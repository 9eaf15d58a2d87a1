#ifndef FDRMS_SHARD_SHARDED_SERVICE_H_
#define FDRMS_SHARD_SHARDED_SERVICE_H_

/// \file sharded_service.h
/// Sharded serving: the tuple space hash-partitioned across S independent
/// FdRmsService instances, with merged snapshot reads and live rebalancing.
///
/// The FD-RMS update algorithm is inherently sequential, so one
/// FdRmsService tops out at a single writer thread's budget. Because the
/// update cost is per-instance, partitioning the tuple space across S
/// instances gives ~S× aggregate update capacity on id-partitionable
/// workloads: each shard runs its own writer thread over its own bounded
/// queue, and a mutation only ever touches the shard that owns its id.
///
///   ShardedServiceOptions sopt;
///   sopt.num_shards = 4;
///   sopt.shard.algo.r = 20;
///   ShardedFdRmsService service(dim, sopt);       // routed by hash slot
///   service.Start(initial_tuples);                // fan-out bulk load
///   service.SubmitInsert(id, p);                  // routed to the owner
///   auto merged = service.Query();                // composed view, S snapshots
///   service.AddShard();                           // scale out, online
///   service.Stop(ShardedFdRmsService::StopPolicy::kDrain);
///
/// Reads compose the S independently published ResultSnapshots into one
/// MergedSnapshot (see merged_snapshot.h for the version-vector consistency
/// model). The merge is cached together with the topology it was built
/// from and the topology generation read before that topology was loaded.
/// A cached merge is current — Query() returns it — when the generation
/// still matches and every shard of its topology reports the cached
/// version as its published_version() and the cached degraded bit as its
/// health. That costs two atomic loads plus two per shard, no topology
/// load, no snapshot load and no allocation. Any publication, death,
/// revive or topology swap fails the check, and that reader rebuilds the
/// merge from freshly loaded snapshots; every later reader hits again.
///
/// Merge policy: the per-shard result sets are unioned (ids are disjoint by
/// routing). Every shard keeps its own budget of r, so the union can reach
/// S·r; when `merged_budget_r` is set, a greedy re-cover tops the union
/// down to the global budget by picking the members that preserve
/// (1-ε) coverage, ε = 0.05, of a fixed sample of 512 utility directions.
///
/// Routing: every id hashes to one of kNumHashSlots slots and the current
/// epoch's RoutingTable names each slot's owner (shard/shard_router.h,
/// shard/migration.h); epoch 0 gives slot t to shard t mod S.
///
/// Live rebalancing: routing is epoch-versioned. Migrate(plan) moves a set
/// of hash slots to new owners while the constellation keeps serving:
///
///   1. freeze  — a router interposer diverts new mutations of the moving
///                slots into a side buffer (reads stay wait-free; the
///                frozen slots just stop advancing),
///   2. drain   — every shard is Flush()ed, so each source's applied state
///                contains every pre-freeze mutation of the moving slots,
///   3. replay  — the moving slots' live tuples are read out of the
///                sources via the drain-range hook (CollectRange) and
///                re-inserted into their targets through the normal Submit
///                path, then deleted from the sources — ordinary journaled
///                operations, exactly the delete-then-reinsert shape the
///                FD-RMS update algorithm is built from,
///   4. cutover — the side buffer is flushed to the targets and the next
///                routing epoch is published in one atomic swap; subsequent
///                reads merge the post-cutover version vector.
///
/// During a migration a moved tuple may transiently exist on both its old
/// and new shard (insert applied, delete still queued) — the merge de-dups
/// ids, so readers never see two states of one tuple — and is never absent.
/// Once Migrate returns, all shards are flushed and ownership matches the
/// published epoch exactly. AddShard()/RemoveShard() build on Migrate to
/// grow/shrink the constellation online (slot-balanced plans; RemoveShard
/// drains the last shard and retires it).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/periodic_task.h"
#include "common/status.h"
#include "core/fdrms.h"
#include "obs/periodic_dumper.h"
#include "serve/fdrms_service.h"
#include "shard/manifest.h"
#include "shard/merged_snapshot.h"
#include "shard/migration.h"
#include "shard/shard_router.h"

namespace fdrms {

/// Knobs of the sharded layer; per-shard serving and algorithm knobs ride
/// in `shard` and apply to every instance.
struct ShardedServiceOptions {
  /// Shard count at construction, in [1, kNumHashSlots]; AddShard/
  /// RemoveShard change the live count (num_shards() reports the current
  /// topology).
  int num_shards = 4;

  /// Options handed to every shard. The shared algo.seed means all shards
  /// sample the same utility sequence, which is what makes the merged
  /// result's regret guarantee testable on the shared prefix (see
  /// MergedSnapshot::min_sample_size_m).
  ///
  /// Durability (see shard/manifest.h for the full protocol): when
  /// persistence is on (`shard.persist_every_batches > 0`), shard s writes
  /// immutable versioned snapshots `persist_path + ".shard<s>.g<G>.b<B>"`
  /// on its own batch cadence, the routing table is saved to
  /// `persist_path + ".routing.e<epoch>"`, and a checksummed constellation
  /// manifest (`persist_path + ".manifest.{a,b}"`) binding one snapshot
  /// per shard to one routing epoch is committed crash-durably at every
  /// cutover, on the manifest tick below, and at Stop(). Superseded
  /// snapshot files are garbage-collected after each commit. This is the
  /// only durable format: with persistence on and an empty `persist_path`,
  /// Start() fails with kInvalidArgument.
  ///
  /// Resume: when `shard.resume_path` is set it must equal `persist_path`
  /// (with persistence on); Start() then resolves the whole topology —
  /// shard count, epoch, per-shard snapshot files — from the newest valid
  /// manifest, verifying every referenced file's checksum. The `num_shards`
  /// the constellation was constructed with is ignored on resume: the
  /// manifest is self-describing. A torn newest manifest falls back to the
  /// previous generation; snapshot files with no manifest at all (or the
  /// pre-manifest `.shard<s>`/`.routing` layout) fail Start loudly rather
  /// than risk serving a torn constellation.
  FdRmsServiceOptions shard;

  /// Manifest commit cadence: a background tick that commits a new
  /// manifest generation whenever shard saves have landed since the last
  /// commit, bounding how much applied-but-unreferenced work a crash can
  /// lose. Skipped while a migration holds the control plane (cutover
  /// commits its own). 0 disables the ticker (deterministic tests); commits
  /// still happen at every cutover and at Stop(). Ignored when persistence
  /// is off.
  int manifest_commit_every_ms = 250;

  /// Shard health poll cadence: a background tracker polls every shard's
  /// health() / writer_heartbeat(), keeps the fdrms_shards_unhealthy gauge
  /// current, and records a "shard.unhealthy" trace event once per death
  /// transition. 0 disables the tracker (deterministic tests); health stays
  /// readable via num_unhealthy()/unhealthy_shards(), which scan the live
  /// topology directly.
  int health_poll_every_ms = 50;

  /// Global result budget of the merged view: 0 serves the pure union
  /// (|Q| <= num_shards * algo.r); > 0 greedily re-covers the union down
  /// to this size when it is larger (see the merge policy above).
  int merged_budget_r = 0;

  /// Metric registry shared by the whole constellation: every shard reports
  /// into it under a {"shard","<index>"} label (plus {"gen","<n>"} when an
  /// index is re-created, so instances never share series), and the sharded
  /// layer adds its own series (reads, merge cache, migration phases). Null = the
  /// service creates one (reachable via registry()). Any registry set on
  /// `shard.registry` is overridden by this one so the constellation never
  /// splits across registries.
  std::shared_ptr<obs::MetricRegistry> registry;

  /// Constellation-level periodic metrics dump: every
  /// `metrics_dump_every_ms` the shared registry's Prometheus exposition is
  /// written to `metrics_dump_path` (and, when non-empty, a JSON document
  /// to `metrics_dump_json_path`) with atomic tmp+rename; a final dump
  /// lands on Stop() after the shards stop. One file covers all shards.
  /// 0 = off.
  int metrics_dump_every_ms = 0;
  std::string metrics_dump_path = "fdrms_metrics.prom";
  std::string metrics_dump_json_path;
};

/// S single-writer FdRmsService instances behind one façade. Start/Stop/
/// Migrate/AddShard/RemoveShard must not race each other (they serialize
/// internally, but call them from control-plane code, not hot paths);
/// Submit*/Query/Flush are safe from any thread at any time, including
/// while a migration runs.
class ShardedFdRmsService {
 public:
  using StopPolicy = FdRmsService::StopPolicy;

  /// Starts at routing epoch 0: slot t owned by shard t mod
  /// options.num_shards.
  ShardedFdRmsService(int dim, const ShardedServiceOptions& options);

  /// Stops the manifest ticker and health tracker (shard writers are
  /// joined when the topology releases the FdRmsService instances).
  ~ShardedFdRmsService();
  ShardedFdRmsService(const ShardedFdRmsService&) = delete;
  ShardedFdRmsService& operator=(const ShardedFdRmsService&) = delete;

  /// Routes P_0 across the shards and Start()s them all concurrently (bulk
  /// load is per-shard sequential but independent). With
  /// options.shard.resume_path set, the persisted routing table and shard
  /// snapshots are restored instead (see ShardedServiceOptions::shard). On
  /// any failure the already-started shards are aborted, the constellation
  /// is rebuilt fresh, and the first error is returned — Start may then be
  /// retried. The failure-path rebuild is not synchronized with concurrent
  /// Submit/Query; route traffic only after Start has returned OK.
  Status Start(const std::vector<std::pair<int, Point>>& initial);

  /// Fans Stop(policy) out to every shard concurrently and joins all
  /// writer threads. kDrain waits for every shard's backlog; kAbort drops
  /// the backlogs (summed in ops_dropped()). Idempotent once stopped.
  Status Stop(StopPolicy policy = StopPolicy::kDrain);

  /// Enqueues one mutation on the owning shard (or, mid-migration, into
  /// the side buffer of the moving slots). Same status surface as
  /// FdRmsService::Submit. A side-buffered operation reaches its new owner
  /// before the cutover epoch publishes; the buffer is unbounded, so
  /// backpressure pauses for the moving slots during the (short) migration
  /// window.
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

  /// Blocks until every shard has consumed everything submitted to it
  /// before this call. First per-shard failure wins. Operations parked in
  /// a migration side buffer are not yet "submitted to a shard"; Migrate
  /// flushes them before it returns.
  Status Flush();

  /// Live rebalancing: moves the plan's hash slots to their target shards
  /// with the freeze → drain → replay → cutover protocol documented above,
  /// then publishes the next routing epoch. Synchronous: when it returns
  /// OK, ownership matches routing_table() exactly, every replayed and
  /// side-buffered operation is applied, and readers merge post-cutover
  /// snapshots. Readers are never blocked; writes to the moving slots are
  /// buffered (not rejected) for the duration. Serialized against
  /// Start/Stop/other migrations.
  Status Migrate(const MigrationPlan& plan);

  /// Scales out online: starts an empty shard, exposes it at the next
  /// epoch, then Migrate()s a slot-balanced share (~1/(S+1) of the slot
  /// space, drawn from the currently most-loaded shards) onto it.
  /// kFailedPrecondition once there are kNumHashSlots shards: a further
  /// shard could own no slot.
  Status AddShard();

  /// Scales in online: Migrate()s every slot owned by the last shard to
  /// the remaining shards (least-loaded first), publishes the shrunk
  /// epoch, drains and stops the victim, and retires it. Requires at
  /// least two shards.
  Status RemoveShard();

  /// Recovers shard `s` after its writer died (health() == kDead): joins
  /// the dead writer, drains its acknowledged-but-unapplied backlog, builds
  /// a successor seeded with a copy of the dead instance's own state (the
  /// exact applied prefix: revive is in-process, so no durable snapshot is
  /// read, and nothing is re-initialized), swaps it into the topology
  /// under the route lock (the routing table is unchanged: same slots, same
  /// epoch), replays the backlog in
  /// submission order, and flushes. When the replay completes the revived
  /// shard's applied state equals an unfaulted run's. With persistence on,
  /// a manifest commit then binds the successor's first save. Fails with
  /// kFailedPrecondition when the shard is not dead; on a failed successor
  /// Start the dead shard stays in place and the call may be retried.
  /// Serialized with the rest of the control plane.
  Status ReviveShard(int s);

  /// Revives every currently dead shard; returns how many came back.
  int ReviveDeadShards();

  /// Shard indices whose writer is dead, scanned from the live topology.
  std::vector<int> unhealthy_shards() const;
  int num_unhealthy() const;

  /// Successful ReviveShard completions (fdrms_shard_writer_restarts_total).
  uint64_t writer_restarts() const {
    return metrics_.writer_restarts->Value();
  }

  /// Merged Query() calls served while >= 1 shard was dead
  /// (fdrms_degraded_reads_total).
  uint64_t degraded_reads() const { return metrics_.degraded_reads->Value(); }

  /// Fans FdRmsService::SetBatchBound out to every live shard and remembers
  /// the override so shards created later (AddShard, rebirths) inherit it.
  /// Returns the value in force, `bound` clamped into
  /// [1, options.shard.max_batch] (identical on every shard — they share
  /// one options template). Safe from any thread.
  size_t SetBatchBound(size_t bound);

  /// The constellation-wide batch ceiling (options.shard.max_batch until
  /// the first SetBatchBound call).
  size_t batch_bound() const {
    return batch_bound_.load(std::memory_order_relaxed);
  }

  /// Registry-clock microsecond stamp of the last completed topology
  /// change (successful Migrate/AddShard/RemoveShard), 0 if none yet. The
  /// SLO controller's cooldown signal — it covers operator-initiated
  /// migrations too, so an external rebalance also quiets the controller.
  uint64_t last_topology_change_us() const {
    return last_topology_change_us_.load(std::memory_order_relaxed);
  }

  /// The latest merged view, or nullptr before every shard has published
  /// its version-0 snapshot. A cache hit (nothing published, died, revived
  /// or re-routed since the last merge) reads 2S+2 atomics and allocates
  /// nothing; the first reader after a change pays the
  /// O(S·r log(S·r) + re-cover) merge. Never blocks on migrations.
  std::shared_ptr<const MergedSnapshot> Query() const;

  /// Aggregates across shards, including retired ones (each monotone).
  uint64_t ops_submitted() const;
  uint64_t ops_dropped() const;

  /// Per-shard snapshot publications observed via the on_publish hook
  /// (includes each shard's version-0 publication).
  uint64_t publications() const { return metrics_.publications->Value(); }

  /// Completed Migrate() calls (AddShard/RemoveShard count theirs).
  uint64_t migrations() const { return metrics_.migrations->Value(); }

  /// Routing-table snapshot writes completed / failed (failures used to be
  /// swallowed; now every write step — serialize, fsync, rename — counts).
  uint64_t routing_persists() const {
    return metrics_.routing_persists->Value();
  }
  uint64_t routing_persist_failures() const {
    return metrics_.routing_persist_failures->Value();
  }

  /// Constellation manifest commits completed / failed.
  uint64_t manifest_commits() const {
    return metrics_.manifest_commits->Value();
  }
  uint64_t manifest_commit_failures() const {
    return metrics_.manifest_commit_failures->Value();
  }

  /// True when Start() restored the topology from a persisted manifest
  /// instead of bulk-loading `initial`.
  bool resumed() const { return resumed_; }

  bool running() const;

  /// The constellation's shared registry: every shard's series (labelled
  /// shard="<index>") plus the sharded layer's own. Never null.
  const std::shared_ptr<obs::MetricRegistry>& registry() const {
    return registry_;
  }

  /// Constellation status page: topology + migration + merge-cache summary
  /// followed by each live shard's own DebugString() section.
  std::string DebugString() const;

  int dim() const { return dim_; }
  int num_shards() const {
    return static_cast<int>(topology()->shards.size());
  }
  const ShardedServiceOptions& options() const { return options_; }

  /// The routing view. router() reflects the current epoch (Route() is
  /// one atomic load); the table accessors expose it explicitly.
  const EpochShardRouter& router() const { return *router_; }
  std::shared_ptr<const RoutingTable> routing_table() const {
    return router_->table();
  }
  uint64_t epoch() const { return router_->epoch(); }

  /// Read access to one shard (counters always; journal()/algorithm() only
  /// after Stop, per FdRmsService's contract). Indices follow the current
  /// topology.
  const FdRmsService& shard(int s) const { return *topology()->shards[s]; }

  /// Shards retired by RemoveShard, oldest first (already stopped, so
  /// journal()/algorithm() are valid).
  int num_retired() const {
    return static_cast<int>(topology()->retired.size());
  }
  const FdRmsService& retired_shard(int i) const {
    return *topology()->retired[i];
  }

 private:
  /// The unit of topology: the routing table plus the shard set it routes
  /// over, swapped together so Submit/Query always see a coherent pair.
  struct Topology {
    std::shared_ptr<const RoutingTable> table;
    std::vector<std::shared_ptr<FdRmsService>> shards;
    std::vector<std::shared_ptr<FdRmsService>> retired;
  };

  /// The freeze interposer: while installed, Submit diverts matching ids
  /// into `buffered` instead of routing them.
  struct MigrationState;

  /// A merged view plus what Query() needs to prove it current without
  /// loading anything else. Private, so no caller can keep a topology (and
  /// with it the shard writers) alive past the service.
  struct MergedCacheEntry {
    std::shared_ptr<const MergedSnapshot> merged;
    std::shared_ptr<const Topology> topology;  ///< merged was built from it
    uint64_t generation;  ///< topology_generation_ read before loading it
  };

  std::shared_ptr<const Topology> topology() const {
    return topology_.load(std::memory_order_acquire);
  }

  /// The only writer of topology_: swaps in `topo` bracketed by two
  /// generation bumps (odd while the swap is in flight, even once it
  /// landed; see Query() for why both are needed).
  void PublishTopology(std::shared_ptr<const Topology> topo);

  /// Builds one shard service (publication hook, versioned persist wiring,
  /// optional resume file) for slot `index`. `resume_file` is the exact
  /// snapshot file the manifest references for this shard (empty = start
  /// empty/from initial). The first instance at an index is labelled
  /// {shard=index}; rebirths (RemoveShard→AddShard, failed-Start rebuild,
  /// AddShard rollback retry) add a {gen=n} label so the new instance never
  /// inherits the retired instance's registry series.
  /// `initial_version` seeds the instance's publication version counter
  /// (nonzero only for a revive successor continuing the dead
  /// incarnation's sequence).
  std::shared_ptr<FdRmsService> MakeShard(int index,
                                          const std::string& resume_file,
                                          uint64_t initial_version = 0);

  /// (Re)creates the S-shard epoch-0 topology. Used at construction and to
  /// reset a constellation whose Start failed partway.
  void ResetTopology();

  /// Registers the sharded layer's own series in registry_. Ctor only,
  /// before the first MakeShard (whose publish hook touches metrics_).
  void RegisterMetrics();

  /// Refreshes the fdrms_epoch / fdrms_shards gauges after a routing
  /// publication or topology swap.
  void UpdateTopologyGauges(uint64_t epoch, size_t num_shards);

  /// Migrate body; caller holds admin_mutex_. Wraps MigrateLockedImpl to
  /// count failures exactly once per attempt.
  Status MigrateLocked(const MigrationPlan& plan);
  Status MigrateLockedImpl(const MigrationPlan& plan);

  /// Removes the freeze and re-routes anything buffered through `table`
  /// (used on early failure, before any tuple moved).
  void AbortFreeze(const std::shared_ptr<MigrationState>& state,
                   const Topology& topo);

  /// Resume path of Start (admin lock held): loads the newest valid
  /// manifest, verifies every referenced file's checksum, and swaps in the
  /// topology it describes (router at the manifest epoch, one shard per
  /// manifest row with its exact snapshot file). kNotFound when no
  /// manifest slot exists; then the caller decides between fresh boot
  /// (empty directory) and loud failure (snapshot files without a
  /// manifest).
  Status BuildResumedTopologyLocked();

  /// The commit point (admin lock held): optionally forces every shard to
  /// persist its current state (PersistNow), writes the routing snapshot
  /// for the current epoch if not yet on disk, commits the next manifest
  /// generation crash-durably, and garbage-collects snapshot files no
  /// longer referenced by the current or previous generation. No-op when
  /// persistence is off or nothing changed since the last commit.
  Status CommitConstellationLocked(bool persist_shards);

  /// Durably writes the routing snapshot for `table` (immutable
  /// `.routing.e<epoch>` file) and reports its checksum. Every failure is
  /// counted in fdrms_routing_persist_failures_total.
  Status PersistRoutingLocked(const RoutingTable& table, std::string* file,
                              std::uint64_t* checksum);

  /// on_persist hook target (shard writer threads): records shard
  /// `index`'s newest durable snapshot in the ledger and marks it dirty.
  void OnShardPersist(int index, const PersistEvent& ev);

  /// ReviveShard body; caller holds admin_mutex_.
  Status ReviveShardLocked(int s);

  void StartManifestTickerLocked();
  void StartHealthTrackerLocked();

  std::shared_ptr<const MergedSnapshot> BuildMerged(
      std::vector<std::shared_ptr<const ResultSnapshot>> parts,
      uint64_t epoch, std::vector<bool> degraded, int num_degraded) const;

  /// Greedily selects <= merged_budget_r entries of the union that keep
  /// every merge direction covered at (1-ε) of the union's best score.
  /// `entries` holds indices into ids/points; reduced in place.
  void GreedyReCover(const std::vector<int>& ids,
                     const std::vector<const Point*>& points,
                     std::vector<size_t>* keep) const;

  const int dim_;
  const ShardedServiceOptions options_;
  std::shared_ptr<const RoutingTable> initial_table_;  ///< epoch 0
  std::unique_ptr<EpochShardRouter> router_;
  std::vector<Point> recover_directions_;  ///< GreedyReCover's sample
  std::atomic<bool> started_{false};
  bool resumed_ = false;  ///< written under admin_mutex_ in Start

  /// Manifest-backed versioned persistence is on (persist interval + path
  /// both configured). Const after construction.
  bool versioned_persist_ = false;

  /// Topology construction is deferred to Start (resume_path set): the
  /// manifest, not the constructor argument, decides the shard count.
  bool defer_topology_ = false;

  /// Constellation-wide batch ceiling; fan-out target of SetBatchBound and
  /// the value MakeShard seeds new instances with.
  std::atomic<size_t> batch_bound_;

  /// NowMicros() of the last successful Migrate/AddShard/RemoveShard; 0
  /// before any. Written under admin_mutex_, read lock-free.
  std::atomic<uint64_t> last_topology_change_us_{0};

  /// Shared by every shard; the sharded layer's own series live here too.
  std::shared_ptr<obs::MetricRegistry> registry_;
  std::unique_ptr<obs::PeriodicDumper> dumper_;

  /// Instances ever created per shard index, driving MakeShard's gen label.
  /// Guarded by admin_mutex_ (the constructor's use is pre-publication).
  std::vector<uint64_t> shard_incarnations_;

  /// Persist-generation floor per shard index (decoupled from the metric
  /// gen label above): seeded from the manifest at resume and from the
  /// ledger when an index retires, so a reborn shard's snapshot filenames
  /// never collide with a dead incarnation's. Guarded by admin_mutex_.
  std::vector<long long> persist_gen_seeds_;

  /// Each shard's newest durable snapshot, fed by OnShardPersist from the
  /// shard writer threads; `dirty` means some save landed (or a shard
  /// retired) since the last manifest commit.
  struct PersistLedger {
    std::mutex mu;
    std::map<int, ManifestShardEntry> entries;
    bool dirty = false;
    /// Snapshot files a newer save replaced before any manifest referenced
    /// them (writer cadence can outpace the commit cadence). No current or
    /// future manifest can name them, so the next successful commit's GC
    /// unlinks them — without this they would leak until the next resume.
    std::vector<std::string> superseded;
  };
  PersistLedger ledger_;

  /// Manifest commit state, guarded by admin_mutex_ (all commits hold it).
  long long manifest_generation_ = 0;   ///< last committed generation
  long long manifest_epoch_ = -1;       ///< epoch of the last commit
  int manifest_shard_count_ = -1;       ///< shard count of the last commit
  long long routing_epoch_written_ = -1;  ///< newest .routing.e<E> on disk
  std::string routing_file_;            ///< its basename
  std::uint64_t routing_checksum_ = 0;
  /// Basenames the last committed generation references, and the union the
  /// last two reference. Live GC unlinks only files that drop out of the
  /// two-generation union — never scans the directory — so a snapshot a
  /// shard writer lands concurrently (not yet in any manifest) can't be
  /// swept; the other slot's fallback set always stays restorable.
  std::vector<std::string> prev_referenced_;
  std::vector<std::string> disk_referenced_;

  /// Manifest ticker (manifest_commit_every_ms): wakes, try-locks the
  /// admin mutex (never contends with a live migration or Stop), and
  /// commits when the ledger is dirty.
  PeriodicTask manifest_ticker_;

  /// Health tracker (health_poll_every_ms): polls every live shard's
  /// health, maintains the fdrms_shards_unhealthy gauge + num_unhealthy_,
  /// and traces each death transition once.
  PeriodicTask health_tracker_;
  std::atomic<int> num_unhealthy_{0};  ///< tracker's last poll result

  /// Constellation-level handles into registry_ (unlabelled — the shard
  /// label belongs to per-shard series). Counters/histograms are
  /// multi-writer-safe; the gauges are written under admin/route locking
  /// (topology) or by the buffering submitter (side-buffer depth).
  struct ShardedMetrics {
    obs::Counter* publications;        ///< on_publish events, all shards
    obs::Counter* reads;               ///< Query() calls reaching a merge
    obs::Counter* merge_cache_hits;
    obs::Counter* merge_cache_misses;
    obs::Counter* merge_recovers;      ///< merges that ran GreedyReCover
    obs::Counter* migrations;          ///< completed Migrate() calls
    obs::Counter* migration_failures;
    obs::Counter* migration_ops_replayed;
    obs::Counter* migration_ops_side_buffered;
    obs::Counter* routing_persists;
    obs::Counter* routing_persist_failures;
    obs::Counter* manifest_commits;
    obs::Counter* manifest_commit_failures;
    obs::Counter* writer_restarts;     ///< ReviveShard successes
    obs::Counter* shard_deaths;        ///< tracker-observed death transitions
    obs::Counter* degraded_reads;      ///< merged reads with a dead shard
    obs::Gauge* epoch;
    obs::Gauge* shards;
    obs::Gauge* shards_unhealthy;      ///< health tracker's last poll
    obs::Gauge* migration_side_buffer_depth;
    obs::Gauge* manifest_generation;
    obs::LatencyHistogram* manifest_commit_us;
    obs::LatencyHistogram* merge_build_us;
    obs::LatencyHistogram* merge_recover_us;
    obs::LatencyHistogram* migration_freeze_us;
    obs::LatencyHistogram* migration_drain_us;
    obs::LatencyHistogram* migration_replay_us;
    obs::LatencyHistogram* migration_cutover_us;
  };
  ShardedMetrics metrics_;

  /// Serializes the control plane: Start, Stop, Migrate, AddShard,
  /// RemoveShard.
  std::mutex admin_mutex_;

  /// Submitters hold it shared while routing+enqueuing one operation; a
  /// migration holds it exclusive only for the freeze and cutover swaps,
  /// so no submit can straddle an epoch boundary.
  mutable std::shared_mutex route_mutex_;

  std::atomic<std::shared_ptr<MigrationState>> migration_;

  /// Bumped twice around every topology_ store (PublishTopology).
  std::atomic<uint64_t> topology_generation_{0};

  // Declared last, so destroyed first: shard writer threads (joined in
  // FdRmsService's destructor when the last topology holding them goes,
  // the cache entry's included) can never observe the members above gone.
  std::atomic<std::shared_ptr<const Topology>> topology_;
  mutable std::atomic<std::shared_ptr<const MergedCacheEntry>> merged_cache_;
};

}  // namespace fdrms

#endif  // FDRMS_SHARD_SHARDED_SERVICE_H_
