#ifndef FDRMS_SERVE_FDRMS_SERVICE_H_
#define FDRMS_SERVE_FDRMS_SERVICE_H_

/// \file fdrms_service.h
/// Concurrent serving layer over FD-RMS: single writer, many readers.
///
/// The update algorithm (Algorithms 3-4) is inherently sequential — every
/// mutation rewrites the dual-tree and the stable set-cover state — so the
/// service gives it a dedicated writer thread and keeps everyone else off
/// it. Producers submit mutations into a bounded lock-free MPSC ring
/// queue (serve/mpsc_ring_queue.h); each wakeup the writer drains whatever
/// is queued, up to the batch bound, into one FdRms::ApplyBatch call, and
/// after every batch publishes an immutable ResultSnapshot through
/// std::atomic<std::shared_ptr<const ResultSnapshot>>. Query() is a single
/// atomic shared_ptr load: readers never touch the queue, never wait for
/// the writer, and keep their snapshot alive for as long as they hold the
/// pointer.
///
///   FdRmsServiceOptions sopt;
///   sopt.algo.r = 20;
///   FdRmsService service(dim, sopt);
///   service.Start(initial_tuples);             // Initialize + spawn writer
///   service.SubmitInsert(id, p);               // any thread
///   auto snap = service.Query();               // any thread, wait-free
///   service.Stop(FdRmsService::StopPolicy::kDrain);
///
/// Consistency model: snapshots are point-in-time consistent (each is the
/// exact FD-RMS state after some batch prefix of the applied operation
/// sequence) and versions are strictly monotone, but reads are *stale* by
/// up to the queue backlog plus one in-flight batch. ResultSnapshot carries
/// the result and the counters a reader needs to bound that staleness;
/// every other stat (publication latency, queue depth, batch sizes) lives
/// only in the metric registry (registry()).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/fdrms.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "serve/mpsc_ring_queue.h"
#include "serve/result_snapshot.h"

namespace fdrms {

/// What a completed snapshot save looked like — handed to
/// FdRmsServiceOptions::on_persist so the sharded layer's manifest can
/// reference the exact bytes on disk.
struct PersistEvent {
  std::string file;        ///< full path the snapshot landed at
  long long gen = 0;       ///< persist generation (named in the file)
  long long batches = 0;   ///< writer batches applied at save time
  std::uint64_t checksum = 0;  ///< FNV-1a over the bytes written
};

/// Knobs of the serving layer (the algorithm's own knobs ride in `algo`).
struct FdRmsServiceOptions {
  FdRmsOptions algo;

  /// Bound of the MPSC update queue (operations, not batches).
  size_t queue_capacity = 4096;

  /// Most operations the writer drains into one ApplyBatch and
  /// publication. Each wakeup it takes min(queue depth, batch bound), so a
  /// near-idle queue still publishes small batches promptly while a burst
  /// amortizes publication cost over up to `max_batch` ops. The bound
  /// starts here; SetBatchBound (the SLO controller) lowers or raises it
  /// within [1, max_batch].
  size_t max_batch = 256;

  /// What a submitter experiences when the queue is full: kBlock parks the
  /// caller until the writer frees room; kReject returns kResourceExhausted
  /// immediately (shed load at the edge).
  enum class Overflow { kBlock, kReject };
  Overflow overflow = Overflow::kBlock;

  /// Background persistence: every N batches the writer saves the full
  /// FD-RMS state (core/snapshot.h SaveSnapshot) to a fresh immutable file
  /// named by `persist_version_path(gen, batches)`, crash-durably (tmp →
  /// fsync → rename → dir fsync; a failed fsync counts as a persist
  /// failure), and once more when the writer exits — also when no batch
  /// landed, so a bulk-loaded P_0 is restorable. A crash loses at most N
  /// batches and a clean shutdown loses nothing. A referenced file is never
  /// rewritten, so a crash mid-save can only orphan a new file; `on_persist`
  /// reports each file and its checksum. 0 = off. Failures are counted
  /// (persist_failures()), never fatal: a full disk must not take the
  /// serving path down. Start() fails with kInvalidArgument when N > 0 and
  /// `persist_version_path` is unset. The sharded layer supplies the names
  /// (`<base>.shard<i>.g<gen>.b<batches>`) and binds the files into its
  /// manifest; a standalone durable store is a 1-shard ShardedFdRmsService.
  size_t persist_every_batches = 0;
  std::function<std::string(long long gen, long long batches)>
      persist_version_path;

  /// Base path of the sharded layer's durable store (its manifest, routing
  /// and shard snapshot files all start with it; see ShardedServiceOptions).
  /// FdRmsService itself does not read it.
  std::string persist_path = "fdrms_service.snapshot";

  /// First `gen` handed to persist_version_path is persist_gen_start + 1 —
  /// the sharded layer seeds it from the manifest so filenames stay unique
  /// across restarts.
  long long persist_gen_start = 0;

  /// Writer-thread hook fired after every *successful* snapshot save. The
  /// sharded layer feeds its persist ledger from it. Must be cheap and must
  /// not call back into the service.
  std::function<void(const PersistEvent&)> on_persist;

  /// Restart-from-snapshot: when non-empty and the file exists at Start(),
  /// the service adopts the instance LoadSnapshot (core/snapshot.h) builds
  /// from it instead of initializing from the `initial` tuples, so a
  /// restarted process resumes without replaying its history and without
  /// a second Initialize. A missing file falls back to `initial` (first
  /// boot); a corrupt file, a dimension mismatch, or algorithm options
  /// that differ from the snapshot's fail Start. Typically a file an
  /// earlier on_persist reported (the sharded layer passes the one its
  /// manifest references). Whether the resume actually happened is
  /// reported by resumed().
  std::string resume_path;

  /// Version stamped on the Start() publication; every batch publication
  /// increments from it. The sharded layer seeds a revived shard's
  /// successor with (dead incarnation's last published version + 1) so the
  /// per-shard version sequence stays strictly monotone across the restart
  /// — readers' component-wise monotonicity check survives a revive.
  uint64_t initial_version = 0;

  /// Writer-thread hook invoked after every snapshot publication (the
  /// version-0 publication runs on the Start() caller's thread). The shard
  /// layer uses it to observe publication cadence. Must be cheap and must
  /// not call back into the service.
  std::function<void(const ResultSnapshot&)> on_publish;

  /// Writer-thread hook fired after each batch is applied (before its
  /// publication), with the exact operation sequence the writer consumed —
  /// the live journal tap. Runs on the writer thread: it adds directly to
  /// apply latency, so keep it cheap. Must not call back into the service.
  std::function<void(const std::vector<FdRms::BatchOp>&)> on_apply;

  /// Test/debug hook: record every consumed operation in application order
  /// (retrievable via journal() after Stop). Off in production — it grows
  /// without bound.
  bool record_journal = false;

  /// Test hook: the writer sleeps this long before applying each batch,
  /// making backlog-dependent behavior (backpressure, abort drops)
  /// deterministic to exercise. 0 in production.
  int batch_delay_us_for_test = 0;

  /// Metric registry this service reports through (obs/registry.h). Null =
  /// the service creates a private one (reachable via registry()). The
  /// sharded layer passes one shared registry to every shard and tells the
  /// series apart with `metrics_labels`.
  std::shared_ptr<obs::MetricRegistry> registry;

  /// Labels stamped on every metric series this instance registers
  /// (e.g. {{"shard", "3"}}).
  obs::Labels metrics_labels;
};

/// A live FD-RMS instance behind a single-writer/multi-reader façade.
/// Start/Stop must be called from one controlling thread; Submit*/Query/
/// Flush are safe from any thread.
class FdRmsService {
 public:
  /// Shutdown behavior: kDrain applies everything still queued before the
  /// writer exits; kAbort discards the backlog (counted in ops_dropped())
  /// and exits after the in-flight batch.
  enum class StopPolicy { kDrain, kAbort };

  /// Liveness of the writer thread, the service's single fault domain.
  ///  * kRunning — writer alive, no injected faults survived.
  ///  * kDegraded — writer alive but it survived an injected error (or kept
  ///    serving through a persist failure); snapshots stay correct, the
  ///    operator should look.
  ///  * kDead — the writer thread exited while the service was nominally
  ///    running (injected kDie fault). The last published snapshot keeps
  ///    serving reads; Submit/Flush/Inspect fail fast with kUnavailable
  ///    instead of hanging, and the queue is closed so parked kBlock
  ///    submitters wake. Recovery is the sharded layer's ReviveShard.
  enum class Health { kRunning, kDegraded, kDead };

  FdRmsService(int dim, const FdRmsServiceOptions& options);

  /// Stops with kDrain if still running.
  ~FdRmsService();

  FdRmsService(const FdRmsService&) = delete;
  FdRmsService& operator=(const FdRmsService&) = delete;

  /// Bulk-loads P_0 (Algorithm 2), publishes snapshot version 0, and spawns
  /// the writer thread. Fails (without starting) if initialization fails or
  /// the service was already started.
  Status Start(const std::vector<std::pair<int, Point>>& initial);

  /// As Start, but adopts `state` as is instead of bulk-loading: an
  /// initialized instance with this service's dimension and algorithm
  /// options. ReviveShard seeds a successor with its dead predecessor's
  /// exact state this way.
  Status StartFrom(FdRms state);

  /// Stops the writer thread per `policy` and joins it. Idempotent once
  /// stopped; fails if never started.
  Status Stop(StopPolicy policy = StopPolicy::kDrain);

  /// Enqueues one mutation. Returns kFailedPrecondition when the service is
  /// not running (or shut down while the caller was blocked), and
  /// kResourceExhausted under Overflow::kReject when the queue is full.
  Status Submit(FdRms::BatchOp op);
  Status SubmitInsert(int id, const Point& p) {
    return Submit({FdRms::BatchOp::Kind::kInsert, id, p});
  }
  Status SubmitDelete(int id) {
    return Submit({FdRms::BatchOp::Kind::kDelete, id, Point{}});
  }
  Status SubmitUpdate(int id, const Point& p) {
    return Submit({FdRms::BatchOp::Kind::kUpdate, id, p});
  }

  /// Blocks until every operation submitted before this call has been
  /// consumed and its snapshot published. Fails if the writer exited first
  /// (kAbort dropped the backlog, or the service never started).
  Status Flush();

  /// Runs `fn` on the writer thread, between batches, against the live
  /// algorithm state — a point-in-time view after some applied batch
  /// prefix. Blocks the caller until `fn` returns; fails without running
  /// it when the service is not running (or the writer exits first). `fn`
  /// must not call back into the service. This is the hook the shard
  /// layer's live migration uses to read frozen hash slots out of a
  /// running shard without stopping its writer.
  Status Inspect(const std::function<void(const FdRms&)>& fn);

  /// Drain-range hook: collects every live tuple whose id satisfies `pred`
  /// into `out` (sorted by id), via Inspect — a consistent cut of the
  /// range as of some applied batch prefix. Callers that have stopped
  /// routing new mutations for the range to this shard (and Flush()ed it)
  /// get the range's final state.
  Status CollectRange(const std::function<bool(int)>& pred,
                      std::vector<std::pair<int, Point>>* out);

  /// Persists the current algorithm state right now, on the writer thread
  /// (via the Inspect rendezvous), regardless of the batch cadence — the
  /// sharded layer calls this before committing a manifest so every shard
  /// has a snapshot at least as new as the routing epoch being committed.
  /// Requires persistence configured; fails if the writer is not running or
  /// the save itself fails (a failed save also counts in
  /// persist_failures()).
  Status PersistNow();

  /// Wait-free read of the latest published snapshot. Never null after a
  /// successful Start(); null before it.
  std::shared_ptr<const ResultSnapshot> Query() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Version of the newest snapshot published or being published: stored
  /// before the snapshot itself, so it is never behind the version of any
  /// snapshot a reader can load (0 before Start). A reader holding a view
  /// of version v knows it is current when this still reads v, without
  /// loading the snapshot.
  uint64_t published_version() const {
    return published_version_.load(std::memory_order_acquire);
  }

  /// Control surface for an external policy (the SLO controller): sets the
  /// most operations the writer drains per batch. `bound` is clamped into
  /// [1, options.max_batch]; the clamped value in force is returned and
  /// takes effect at the writer's next wakeup. Safe from any thread;
  /// exported as the fdrms_batch_bound gauge.
  size_t SetBatchBound(size_t bound);

  /// The batch bound currently in force (== options.max_batch until the
  /// first SetBatchBound call).
  size_t batch_bound() const {
    return batch_bound_.load(std::memory_order_relaxed);
  }

  /// Operations accepted into the queue so far (monotone). Counted inside
  /// the queue at push time, so ops_submitted() >= Query()->ops_applied +
  /// ops_rejected always holds (for a snapshot loaded before the read) and
  /// the difference is the current backlog, underflow-free.
  uint64_t ops_submitted() const { return queue_.total_pushed(); }

  /// Operations discarded by Stop(kAbort).
  uint64_t ops_dropped() const { return metrics_.ops_dropped->Value(); }

  /// Background persistence runs completed / failed so far (0/0 when
  /// options.persist_every_batches is 0).
  uint64_t persists() const { return metrics_.persists->Value(); }
  uint64_t persist_failures() const {
    return metrics_.persist_failures->Value();
  }

  bool running() const { return state_.load() == State::kRunning; }

  /// Writer liveness (see Health). Safe from any thread; kDead is visible
  /// before the queue closes, so a submitter failed out of a blocked Push
  /// always observes it.
  Health health() const { return health_.load(std::memory_order_acquire); }

  /// Writer-loop iteration counter (also the fdrms_writer_heartbeat gauge).
  /// A frozen heartbeat with a non-empty queue means a stalled writer; the
  /// sharded layer's health tracker polls it.
  uint64_t writer_heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  /// Injected fault actions the writer observed (delays, errors, deaths).
  uint64_t writer_faults() const { return metrics_.writer_faults->Value(); }

  /// After a writer death (health() == kDead, writer_done_): moves every
  /// operation that was accepted into the queue but never applied — the
  /// in-flight dead-letter batch first, then the remaining queue backlog,
  /// in submission order — into *out. These ops were acknowledged to
  /// submitters, so a revive must replay them into the successor shard.
  /// Fails with kFailedPrecondition while the writer is still alive.
  Status DrainDeadBacklog(std::vector<FdRms::BatchOp>* out);

  /// The registry every stat of this service lives in — the one passed via
  /// options, or the private one created when none was. Scrape it with
  /// registry()->PrometheusText() / JsonText(). Never null.
  const std::shared_ptr<obs::MetricRegistry>& registry() const {
    return registry_;
  }

  /// Human-readable status page: options summary, lifecycle state, and
  /// this instance's own metric series (counters, gauges, latency
  /// quantiles) — scoped to this shard even when the registry is shared.
  std::string DebugString() const;

  /// True when Start() initialized from options.resume_path instead of the
  /// `initial` tuples.
  bool resumed() const { return resumed_; }

  int dim() const { return dim_; }
  const FdRmsServiceOptions& options() const { return options_; }

  /// The consumed-operation journal (requires options.record_journal).
  /// Only valid after Stop() — the writer owns it while running.
  const std::vector<FdRms::BatchOp>& journal() const;

  /// Direct read access to the owned algorithm for tests and persistence.
  /// Only valid after Stop() — the writer owns it while running.
  const FdRms& algorithm() const;

 private:
  enum class State { kNew, kRunning, kStopped };

  /// One caller parked in Inspect(); completed (or failed) by the writer.
  struct InspectRequest {
    const std::function<void(const FdRms&)>* fn;
    bool done = false;
    Status status;
  };

  void WriterLoop();
  void ApplyAndPublish(const std::vector<FdRms::BatchOp>& batch);
  void PublishSnapshot();

  /// Writer-thread only: consults the fault site `<prefix>.<step>`
  /// (common/fault_point.h). A kDelay already slept inside the hit; an
  /// injected error degrades health and is returned; kDie latches
  /// writer_die_ so the loop falls through to the death epilogue at the
  /// next check. Returns OK when nothing (or only a delay/die) fired.
  Status WriterFaultSite(const char* prefix, const char* step);

  /// Initializes algo_ from `initial` or, when configured and present, the
  /// resume snapshot. Start()-caller thread, pre-writer.
  Status InitializeAlgo(const std::vector<std::pair<int, Point>>& initial);

  /// Fails unless the service is new and its persistence options are
  /// complete. Start()-caller thread.
  Status CheckStartable() const;
  /// Publishes algo_'s state and spawns the writer. Start()-caller thread.
  Status Launch();

  /// Writer-thread only: serves queued InspectRequests in FIFO order.
  void RunPendingInspections();

  /// Writer-thread only, on exit: fails every pending and future Inspect.
  void CloseInspections();

  /// True when the algorithm state has not reached disk yet this run (a
  /// batch landed since the last successful save, or nothing was saved).
  /// Writer-thread only.
  bool PersistDirty() const;

  /// Saves the algorithm state if a persistence interval is configured and
  /// the state is dirty, at the batch cadence or whenever `force` is set.
  /// Writer-thread only.
  void MaybePersist(bool force);

  /// The save itself: serializes the algorithm state, writes it
  /// crash-durably (tmp → fsync → rename → dir fsync), bumps the persist
  /// counters, and fires options.on_persist. Writer-thread only.
  Status DoPersist();

  /// Registers this instance's metric series (labelled with
  /// options.metrics_labels) in registry_. Constructor only.
  void RegisterMetrics();

  const int dim_;
  const FdRmsServiceOptions options_;
  FdRms algo_;

  MpscRingQueue<FdRms::BatchOp> queue_;
  /// Batch bound (SetBatchBound); always within [1, options.max_batch].
  /// Read by the writer each wakeup, written by any controlling thread.
  std::atomic<size_t> batch_bound_;
  std::thread writer_;
  std::atomic<State> state_{State::kNew};
  std::atomic<Health> health_{Health::kRunning};
  std::atomic<uint64_t> heartbeat_{0};
  bool resumed_ = false;  ///< written before the writer spawns, const after

  /// Writer-thread only: a fault site requested writer death; the loop
  /// exits through the death epilogue at its next check.
  bool writer_die_ = false;

  /// The in-flight batch the dying writer popped but never applied — set in
  /// the death path, handed to DrainDeadBacklog. Writer-thread written;
  /// read only after writer_done_.
  std::vector<FdRms::BatchOp> dead_letter_;

  std::atomic<std::shared_ptr<const ResultSnapshot>> snapshot_;
  std::atomic<uint64_t> published_version_{0};  ///< see published_version()

  /// Every stat below lives here; ResultSnapshot's counters are read back
  /// out of it at publication.
  std::shared_ptr<obs::MetricRegistry> registry_;

  /// Handles into registry_, stable for the service's lifetime. Counters
  /// and pow2/latency histograms are multi-writer-safe (striped relaxed
  /// atomics); the gauges are Set from the writer thread (queue_depth,
  /// live_tuples, ...), except batch_bound, which SetBatchBound sets from
  /// any thread.
  struct Metrics {
    obs::Counter* ops_submitted;     ///< accepted pushes (telemetry; the
                                     ///< authoritative count stays in the
                                     ///< queue, see ops_submitted())
    obs::Counter* ops_applied;
    obs::Counter* ops_rejected;
    obs::Counter* ops_dropped;
    obs::Counter* batches;
    obs::Counter* publications;
    obs::Counter* persists;
    obs::Counter* persist_failures;
    obs::Counter* writer_faults;     ///< injected fault actions observed
    obs::Gauge* healthy;             ///< 1 while health() != kDead
    obs::Gauge* heartbeat;           ///< writer-loop iterations
    obs::Gauge* version;
    obs::Gauge* live_tuples;
    obs::Gauge* sample_size_m;
    obs::Gauge* cover_size;         ///< |Q_t|
    obs::Gauge* incidence_entries;  ///< Σ|Φ(u)|, a running link count
    obs::Counter* insert_scan_skips;  ///< inserts that skipped the scan
    obs::Gauge* queue_depth;
    obs::Gauge* batch_bound;
    obs::Gauge* writer_busy_seconds;
    obs::Pow2Histogram* queue_depth_pow2;
    obs::Pow2Histogram* batch_size_pow2;
    obs::LatencyHistogram* publish_latency_us;  ///< drain→publish per batch
    obs::LatencyHistogram* drain_us;            ///< time in PopBatch per batch
    obs::LatencyHistogram* apply_us;            ///< ApplyBatch phase
    obs::LatencyHistogram* publish_us;          ///< snapshot-build phase
  };
  Metrics metrics_;

  // Writer-thread-local policy state. Pure telemetry lives in metrics_;
  // these stay local because control flow depends on them.
  uint64_t version_ = 0;
  uint64_t batches_ = 0;
  uint64_t persisted_batches_ = 0;  ///< batches_ as of the last *successful* save
  uint64_t attempted_persist_batches_ = 0;  ///< batches_ as of the last attempt
  bool ever_persisted_ = false;     ///< any successful save this run
  long long persist_gen_ = 0;       ///< last persist generation handed out
  double busy_seconds_ = 0.0;
  uint64_t applied_total_ = 0;   ///< ops this instance applied
  uint64_t rejected_total_ = 0;  ///< ops this instance rejected

  // Flush rendezvous: consumed_published_ tracks applied_total_ +
  // rejected_total_ as of the last publication; writer_done_ flips when the
  // writer exits. The tallies are instance-local on purpose: registry
  // counters may be shared with a prior incarnation of the same series, and
  // Flush's contract is about THIS instance's queue.
  mutable std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  uint64_t consumed_published_ = 0;
  bool writer_done_ = false;

  // Inspect rendezvous: callers append requests, the writer serves them
  // between batches; inspect_closed_ flips on writer exit so late callers
  // fail instead of hanging.
  std::mutex inspect_mutex_;
  std::condition_variable inspect_cv_;
  std::vector<InspectRequest*> inspect_queue_;
  bool inspect_closed_ = false;

  std::vector<FdRms::BatchOp> journal_;
};

}  // namespace fdrms

#endif  // FDRMS_SERVE_FDRMS_SERVICE_H_
