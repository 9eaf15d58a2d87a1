#include "serve/fdrms_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/durable_io.h"
#include "common/fault_point.h"
#include "common/stopwatch.h"
#include "core/snapshot.h"
#include "obs/phase_span.h"

namespace fdrms {

FdRmsService::FdRmsService(int dim, const FdRmsServiceOptions& options)
    : dim_(dim),
      options_(options),
      algo_(dim, options.algo),
      queue_(options.queue_capacity),
      batch_bound_(options.max_batch),
      registry_(options.registry ? options.registry
                                 : std::make_shared<obs::MetricRegistry>()) {
  FDRMS_CHECK(options.max_batch > 0);
  RegisterMetrics();
  metrics_.batch_bound->Set(static_cast<double>(options.max_batch));
  metrics_.healthy->Set(1.0);
}

size_t FdRmsService::SetBatchBound(size_t bound) {
  const size_t clamped =
      std::min(std::max(bound, size_t{1}), options_.max_batch);
  batch_bound_.store(clamped, std::memory_order_relaxed);
  metrics_.batch_bound->Set(static_cast<double>(clamped));
  return clamped;
}

void FdRmsService::RegisterMetrics() {
  const obs::Labels& l = options_.metrics_labels;
  obs::MetricRegistry& r = *registry_;
  metrics_.ops_submitted = r.GetCounter(
      "fdrms_ops_submitted_total",
      "Operations accepted into the update queue", l);
  metrics_.ops_applied = r.GetCounter(
      "fdrms_ops_applied_total", "Operations applied by the writer", l);
  metrics_.ops_rejected = r.GetCounter(
      "fdrms_ops_rejected_total",
      "Operations the algorithm rejected (duplicate insert, vanished delete "
      "target, ...)",
      l);
  metrics_.ops_dropped = r.GetCounter(
      "fdrms_ops_dropped_total", "Operations discarded by Stop(kAbort)", l);
  metrics_.batches = r.GetCounter(
      "fdrms_batches_total", "ApplyBatch drains that carried work", l);
  metrics_.publications = r.GetCounter(
      "fdrms_publications_total",
      "Snapshot publications, including the version-0 bootstrap", l);
  metrics_.persists = r.GetCounter(
      "fdrms_persists_total", "Background persistence runs completed", l);
  metrics_.persist_failures = r.GetCounter(
      "fdrms_persist_failures_total",
      "Background persistence runs that failed (never fatal)", l);
  metrics_.writer_faults = r.GetCounter(
      "fdrms_writer_faults_total",
      "Injected fault actions the writer observed (delays, errors, deaths)",
      l);
  metrics_.healthy = r.GetGauge(
      "fdrms_shard_healthy",
      "1 while the writer thread is alive (0 after a writer death)", l);
  metrics_.heartbeat = r.GetGauge(
      "fdrms_writer_heartbeat",
      "Writer-loop iterations; frozen with a non-empty queue = stalled "
      "writer",
      l);
  metrics_.version = r.GetGauge(
      "fdrms_snapshot_version", "Version of the latest published snapshot",
      l);
  metrics_.live_tuples = r.GetGauge(
      "fdrms_live_tuples", "Live tuple count after the latest batch", l);
  metrics_.sample_size_m = r.GetGauge(
      "fdrms_sample_size_m", "FD-RMS utility sample size m in force", l);
  metrics_.cover_size = r.GetGauge(
      "fdrms_cover_size", "Sets in the stable cover, |Q_t|, after the latest "
      "batch", l);
  metrics_.incidence_entries = r.GetGauge(
      "fdrms_incidence_entries",
      "Memberships of the set system, the sum of |Phi(u)| over all M "
      "utilities, after the latest batch",
      l);
  metrics_.insert_scan_skips = r.GetCounter(
      "fdrms_insert_scan_skips_total",
      "Inserts whose utility scan was skipped because k members of Q_t "
      "dominate the tuple, added per batch",
      l);
  metrics_.queue_depth = r.GetGauge(
      "fdrms_queue_depth", "Queue depth observed at the last writer wakeup",
      l);
  metrics_.batch_bound = r.GetGauge(
      "fdrms_batch_bound",
      "Most ops the writer drains per batch, set via SetBatchBound "
      "(== max_batch until the controller moves it)",
      l);
  metrics_.writer_busy_seconds = r.GetGauge(
      "fdrms_writer_busy_seconds",
      "Cumulative writer-thread CPU seconds spent applying batches", l);
  metrics_.queue_depth_pow2 = r.GetPow2Histogram(
      "fdrms_queue_depth_pow2",
      "Queue depth per writer wakeup (power-of-two buckets)", l);
  metrics_.batch_size_pow2 = r.GetPow2Histogram(
      "fdrms_batch_size_pow2",
      "Applied batch size (power-of-two buckets)", l);
  metrics_.publish_latency_us = r.GetLatencyHistogram(
      "fdrms_publish_latency_us",
      "Batch publication latency: queue drain to snapshot publication (us)",
      l);
  metrics_.drain_us = r.GetLatencyHistogram(
      "fdrms_writer_drain_us",
      "Writer drain phase: time in PopBatch per non-empty batch (us)", l);
  metrics_.apply_us = r.GetLatencyHistogram(
      "fdrms_writer_apply_us", "Writer apply phase: ApplyBatch loop (us)", l);
  metrics_.publish_us = r.GetLatencyHistogram(
      "fdrms_writer_publish_us",
      "Writer publish phase: snapshot construction + swap (us)", l);
}

FdRmsService::~FdRmsService() {
  if (state_.load() == State::kRunning) {
    (void)Stop(StopPolicy::kDrain);
  }
}

namespace {

/// True when `a` and `b` define the same guarantee (k, r, eps, M, seed).
bool SameAlgorithmOptions(const FdRmsOptions& a, const FdRmsOptions& b) {
  return a.k == b.k && a.r == b.r && a.eps == b.eps &&
         a.max_utilities == b.max_utilities && a.seed == b.seed;
}

}  // namespace

Status FdRmsService::CheckStartable() const {
  if (state_.load() != State::kNew) {
    return Status::FailedPrecondition("service already started");
  }
  if (options_.persist_every_batches > 0 && !options_.persist_version_path) {
    return Status::Invalid(
        "persistence needs persist_version_path (a standalone durable store "
        "is a 1-shard ShardedFdRmsService)");
  }
  return Status::OK();
}

Status FdRmsService::Start(const std::vector<std::pair<int, Point>>& initial) {
  FDRMS_RETURN_NOT_OK(CheckStartable());
  FDRMS_RETURN_NOT_OK(InitializeAlgo(initial));
  return Launch();
}

Status FdRmsService::StartFrom(FdRms state) {
  FDRMS_RETURN_NOT_OK(CheckStartable());
  if (state.dim() != dim_ ||
      !SameAlgorithmOptions(state.options(), algo_.options())) {
    return Status::Invalid(
        "adopted instance's dimension or algorithm options differ from the "
        "service's");
  }
  algo_ = std::move(state);
  return Launch();
}

Status FdRmsService::Launch() {
  version_ = options_.initial_version;
  PublishSnapshot();  // the post-Initialize state (version 0 on first boot)
  state_.store(State::kRunning);
  writer_ = std::thread(&FdRmsService::WriterLoop, this);
  return Status::OK();
}

Status FdRmsService::InitializeAlgo(
    const std::vector<std::pair<int, Point>>& initial) {
  if (options_.resume_path.empty()) {
    return algo_.Initialize(initial);
  }
  std::ifstream in(options_.resume_path);
  if (!in.good()) {
    // First boot: no snapshot on disk yet, start from the given tuples.
    return algo_.Initialize(initial);
  }
  auto loaded = LoadSnapshot(&in);
  if (!loaded.ok()) return loaded.status();
  const FdRms& snap = **loaded;
  if (snap.dim() != dim_) {
    return Status::Invalid("resume snapshot has dim " +
                           std::to_string(snap.dim()) + ", service has " +
                           std::to_string(dim_));
  }
  // The snapshot's options (incl. the utility-sampling seed) define the
  // restored guarantee; silently serving it under different knobs would
  // misreport eps/r, so a mismatch is an error. Compare against the
  // normalized options (the FdRms constructor may raise max_utilities).
  if (!SameAlgorithmOptions(snap.options(), algo_.options())) {
    return Status::Invalid(
        "resume snapshot algorithm options differ from the service's");
  }
  // The loaded instance *is* the restored state (LoadSnapshot already ran
  // Initialize over the saved tuples): adopt it.
  algo_ = std::move(**loaded);
  resumed_ = true;
  return Status::OK();
}

Status FdRmsService::Stop(StopPolicy policy) {
  State expected = State::kRunning;
  if (!state_.compare_exchange_strong(expected, State::kStopped)) {
    return expected == State::kStopped
               ? Status::OK()  // idempotent
               : Status::FailedPrecondition("service never started");
  }
  queue_.Close();
  if (policy == StopPolicy::kAbort) {
    // Close first so no producer can slip an op in after the purge; the
    // writer still finishes its in-flight batch.
    metrics_.ops_dropped->Increment(queue_.Clear());
  }
  if (writer_.joinable()) writer_.join();
  return Status::OK();
}

Status FdRmsService::Submit(FdRms::BatchOp op) {
  if (health() == Health::kDead) {
    // Fail fast instead of parking against a queue no writer will ever
    // drain. The hint is advisory: a revive typically lands within one
    // health-tracker poll plus the successor's Initialize.
    return Status::Unavailable(
        "shard writer is dead; retry after revive (suggested backoff 50ms)");
  }
  if (state_.load() != State::kRunning) {
    return Status::FailedPrecondition("service is not running");
  }
  if (options_.overflow == FdRmsServiceOptions::Overflow::kReject) {
    if (!queue_.TryPush(std::move(op))) {
      if (queue_.closed()) {
        if (health() == Health::kDead) {
          return Status::Unavailable(
              "shard writer died; retry after revive (suggested backoff "
              "50ms)");
        }
        return Status::FailedPrecondition("service is shutting down");
      }
      return Status::ResourceExhausted("update queue full");
    }
  } else {
    if (!queue_.Push(std::move(op))) {
      // The queue only refuses a blocking Push once it is closed: either a
      // Stop() (shutdown) or the writer's death epilogue (health is kDead
      // by the time the close wakes parked producers).
      if (health() == Health::kDead) {
        return Status::Unavailable(
            "shard writer died while the submit was parked; retry after "
            "revive (suggested backoff 50ms)");
      }
      return Status::FailedPrecondition("service is shutting down");
    }
  }
  // Telemetry only: the authoritative submitted count is the queue's
  // total_pushed() (see ops_submitted()'s >=-consumed invariant).
  metrics_.ops_submitted->Increment();
  return Status::OK();
}

Status FdRmsService::Flush() {
  if (state_.load() == State::kNew) {
    return Status::FailedPrecondition("service never started");
  }
  const uint64_t target = ops_submitted();
  std::unique_lock<std::mutex> lock(flush_mutex_);
  flush_cv_.wait(lock,
                 [&] { return consumed_published_ >= target || writer_done_; });
  if (consumed_published_ >= target) return Status::OK();
  if (health() == Health::kDead) {
    return Status::Unavailable(
        "shard writer died before the backlog drained; revive the shard and "
        "retry");
  }
  return Status::FailedPrecondition(
      "writer exited before the backlog drained (aborted?)");
}

Status FdRmsService::Inspect(const std::function<void(const FdRms&)>& fn) {
  if (health() == Health::kDead) {
    return Status::Unavailable("shard writer is dead; revive before Inspect");
  }
  if (state_.load() != State::kRunning) {
    return Status::FailedPrecondition("service is not running");
  }
  InspectRequest req{&fn, /*done=*/false, Status::OK()};
  {
    std::lock_guard<std::mutex> lock(inspect_mutex_);
    if (inspect_closed_) {
      if (health() == Health::kDead) {
        return Status::Unavailable(
            "shard writer died; revive before Inspect");
      }
      return Status::FailedPrecondition("writer already exited");
    }
    inspect_queue_.push_back(&req);
  }
  queue_.Kick();  // wake the writer even if the op queue is empty
  std::unique_lock<std::mutex> lock(inspect_mutex_);
  inspect_cv_.wait(lock, [&] { return req.done; });
  return req.status;
}

Status FdRmsService::CollectRange(const std::function<bool(int)>& pred,
                                  std::vector<std::pair<int, Point>>* out) {
  out->clear();
  Status st = Inspect([&](const FdRms& algo) {
    algo.topk().tree().ForEach([&](int id, const Point& p) {
      if (pred(id)) out->emplace_back(id, p);
    });
  });
  if (!st.ok()) return st;
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return Status::OK();
}

void FdRmsService::RunPendingInspections() {
  for (;;) {
    InspectRequest* req = nullptr;
    {
      std::lock_guard<std::mutex> lock(inspect_mutex_);
      if (inspect_queue_.empty()) return;
      req = inspect_queue_.front();
      inspect_queue_.erase(inspect_queue_.begin());
    }
    // Run outside the lock: the caller waits on req->done, not the queue.
    (*req->fn)(algo_);
    {
      std::lock_guard<std::mutex> lock(inspect_mutex_);
      req->done = true;
    }
    inspect_cv_.notify_all();
  }
}

void FdRmsService::CloseInspections() {
  std::lock_guard<std::mutex> lock(inspect_mutex_);
  inspect_closed_ = true;
  const Status refusal =
      health() == Health::kDead
          ? Status::Unavailable("shard writer died; revive before Inspect")
          : Status::FailedPrecondition("writer exited");
  for (InspectRequest* req : inspect_queue_) {
    req->status = refusal;
    req->done = true;
  }
  inspect_queue_.clear();
  inspect_cv_.notify_all();
}

Status FdRmsService::DrainDeadBacklog(std::vector<FdRms::BatchOp>* out) {
  out->clear();
  if (health() != Health::kDead) {
    return Status::FailedPrecondition(
        "DrainDeadBacklog requires a dead writer");
  }
  {
    std::unique_lock<std::mutex> lock(flush_mutex_);
    if (!writer_done_) {
      return Status::FailedPrecondition("writer has not finished dying yet");
    }
  }
  // The writer thread is gone, so this thread can take over the queue's
  // single-consumer role. The dead-letter batch was popped first, so it
  // leads; the queue remnants follow in submission order.
  out->insert(out->end(), dead_letter_.begin(), dead_letter_.end());
  dead_letter_.clear();
  std::vector<FdRms::BatchOp> chunk;
  while (queue_.PopBatch(1024, &chunk)) {
    if (chunk.empty()) break;  // closed queues never Kick; paranoia
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
  return Status::OK();
}

const std::vector<FdRms::BatchOp>& FdRmsService::journal() const {
  FDRMS_CHECK(state_.load() != State::kRunning)
      << "journal() is only valid after Stop()";
  return journal_;
}

const FdRms& FdRmsService::algorithm() const {
  FDRMS_CHECK(state_.load() != State::kRunning)
      << "algorithm() is only valid after Stop()";
  return algo_;
}

Status FdRmsService::WriterFaultSite(const char* prefix, const char* step) {
  FaultAction act = FaultPoints::Hit(prefix, step);
  if (act.none()) return Status::OK();
  metrics_.writer_faults->Increment();
  if (act.kind == FaultKind::kDelay) return Status::OK();
  if (act.die()) {
    writer_die_ = true;
    return Status::OK();
  }
  // Injected error: the writer survives and the state stays correct, but
  // the operator should know something is throwing in the fault domain.
  Health expected = Health::kRunning;
  health_.compare_exchange_strong(expected, Health::kDegraded);
  return act.ToStatus();
}

void FdRmsService::WriterLoop() {
  std::vector<FdRms::BatchOp> batch;
  for (;;) {
    metrics_.heartbeat->Set(static_cast<double>(
        heartbeat_.fetch_add(1, std::memory_order_relaxed) + 1));
    RunPendingInspections();
    const size_t depth = queue_.size();
    metrics_.queue_depth->Set(static_cast<double>(depth));
    metrics_.queue_depth_pow2->Record(depth);
    // Drain min(backlog, bound), so a near-idle queue still publishes
    // small, prompt batches. SetBatchBound keeps the bound in
    // [1, max_batch].
    Stopwatch drain_watch;
    if (!queue_.PopBatch(batch_bound_.load(std::memory_order_relaxed),
                         &batch)) {
      break;
    }
    // An empty batch is a Kick() wakeup: loop back for the control work.
    if (!batch.empty()) {
      // Drain time only counts when ops arrived: an idle writer parked in
      // PopBatch is not a drain phase worth charging.
      metrics_.drain_us->Record(drain_watch.ElapsedMicros());
      metrics_.batch_size_pow2->Record(batch.size());
      // A drain-site death leaves the popped batch unapplied: stash it as
      // the dead letter so a revive can replay the acknowledged ops.
      (void)WriterFaultSite("writer.drain", "post");
      if (writer_die_) {
        dead_letter_ = std::move(batch);
        break;
      }
      ApplyAndPublish(batch);
      if (writer_die_) break;
    }
  }
  const bool faulted = writer_die_;
  // Serve inspections that raced shutdown (they observe the final drained
  // state, which is as point-in-time as any other), then refuse the rest.
  RunPendingInspections();
  // Final save on the way out (drain, abort, or death — the applied prefix
  // is a consistent state either way), so a clean shutdown persists
  // everything and a dead writer's last applied batch still reaches the
  // store.
  MaybePersist(/*force=*/true);
  if (faulted) {
    // Death epilogue. Order matters: health flips to kDead *before* the
    // queue closes, so a kBlock submitter woken by the close always
    // observes a dead service (kUnavailable), never "shutting down".
    health_.store(Health::kDead, std::memory_order_release);
    metrics_.healthy->Set(0.0);
    queue_.Close();
  }
  {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    writer_done_ = true;
  }
  flush_cv_.notify_all();
  CloseInspections();
}

void FdRmsService::ApplyAndPublish(const std::vector<FdRms::BatchOp>& batch) {
  Stopwatch batch_watch;
  const uint64_t batch_start_us = registry_->NowMicros();
  const double cpu_start = ThreadCpuSeconds();
  if (options_.batch_delay_us_for_test > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.batch_delay_us_for_test));
  }
  if (options_.record_journal) {
    journal_.insert(journal_.end(), batch.begin(), batch.end());
  }
  // An apply-site death strikes before any op of this batch lands: the
  // whole batch becomes the dead letter. (An injected *error* here just
  // degrades health — the batch still applies; correctness is the
  // algorithm's job, liveness is this loop's.)
  (void)WriterFaultSite("writer.apply", "pre");
  if (writer_die_) {
    dead_letter_ = batch;
    return;
  }
  // The whole drain goes down as one ApplyBatch. On a rejected operation
  // (duplicate insert, vanished delete target, ...) resume from the next
  // offset instead of discarding the tail — one submitter's bad op must
  // not eat its neighbors' writes.
  {
    obs::PhaseSpan apply_span(registry_.get(), metrics_.apply_us,
                              "writer.apply");
    apply_span.set_args(batch.size(), version_ + 1);
    const uint64_t skips_before = algo_.topk().insert_scan_skips();
    size_t pos = 0;
    while (pos < batch.size()) {
      size_t applied = 0;
      Status st = algo_.ApplyBatch(batch, pos, &applied);
      metrics_.ops_applied->Increment(applied);
      applied_total_ += applied;
      pos += applied;
      if (!st.ok()) {
        metrics_.ops_rejected->Increment();
        ++rejected_total_;
        ++pos;  // skip the offender
      }
    }
    metrics_.insert_scan_skips->Increment(algo_.topk().insert_scan_skips() -
                                          skips_before);
  }
  busy_seconds_ += ThreadCpuSeconds() - cpu_start;
  metrics_.writer_busy_seconds->Set(busy_seconds_);
  ++batches_;
  ++version_;
  metrics_.batches->Increment();
  // Journal tap: the batch is applied and not yet published.
  if (options_.on_apply) options_.on_apply(batch);
  // A publish-site death leaves this batch applied but unpublished: the
  // algorithm state (and the exit-path save above all else) carries it, so
  // no dead letter — only the snapshot goes stale by one batch.
  (void)WriterFaultSite("writer.publish", "pre");
  if (writer_die_) return;
  MaybePersist(/*force=*/false);
  if (writer_die_) return;  // a persist-site death also skips the publish
  {
    obs::PhaseSpan publish_span(registry_.get(), metrics_.publish_us,
                                "writer.publish");
    publish_span.set_args(batch.size(), version_);
    PublishSnapshot();
  }
  {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    // Writer-exact, and deliberately instance-local rather than reading the
    // registry counters back: a registry series can be shared with a prior
    // incarnation (same name + labels), and a rendezvous seeded with a dead
    // instance's totals would let Flush() report an un-drained queue as
    // flushed.
    consumed_published_ = applied_total_ + rejected_total_;
  }
  flush_cv_.notify_all();
  // This batch's drain→publish latency, known only once its publication
  // completed.
  const double latency_us = batch_watch.ElapsedMicros();
  metrics_.publish_latency_us->Record(latency_us);
  registry_->trace().Record("writer.batch", batch_start_us,
                            static_cast<uint64_t>(latency_us), batch.size(),
                            version_);
}

bool FdRmsService::PersistDirty() const {
  // "Never saved this run" counts as dirty: a bulk-loaded P_0 with zero
  // batches must still reach disk on the forced exit/PersistNow saves, or
  // the manifest would have nothing to reference for this shard.
  return batches_ != persisted_batches_ || !ever_persisted_;
}

void FdRmsService::MaybePersist(bool force) {
  if (options_.persist_every_batches == 0 || !PersistDirty()) return;
  // Throttle on the last *attempt* so a failing disk is retried once per
  // interval, not once per batch; gate on the last *success* above so the
  // forced exit save still fires whenever any batch is not yet durable.
  if (!force &&
      batches_ - attempted_persist_batches_ < options_.persist_every_batches) {
    return;
  }
  DoPersist();
}

Status FdRmsService::DoPersist() {
  attempted_persist_batches_ = batches_;
  // An injected persist error exercises the real failure path (counted,
  // never fatal). A persist-site death aborts only *this* save — the flag
  // check must not trip for a writer already dying from another site, or
  // the epilogue's forced exit save would never land.
  const bool was_dying = writer_die_;
  Status injected = WriterFaultSite("writer.persist", "pre");
  if (writer_die_ && !was_dying) {
    return Status::Internal("fault injected: writer died at persist");
  }
  if (!injected.ok()) {
    metrics_.persist_failures->Increment();
    return injected;
  }
  // Serialize to memory first: the checksum handed to on_persist must be
  // over the exact bytes that land on disk, with no re-read race.
  std::ostringstream buf;
  Status st = SaveSnapshot(algo_, &buf);
  std::string bytes;
  std::string path;
  // Immutable versioned file; gen survives restarts via persist_gen_start
  // so names never collide across boots.
  const long long gen = std::max(persist_gen_, options_.persist_gen_start) + 1;
  if (st.ok()) {
    bytes = buf.str();
    path = options_.persist_version_path(gen,
                                         static_cast<long long>(batches_));
    st = WriteFileDurable(path, bytes, "serve.persist");
  }
  if (!st.ok()) {
    metrics_.persist_failures->Increment();
    return st;
  }
  persist_gen_ = gen;
  persisted_batches_ = batches_;
  ever_persisted_ = true;
  metrics_.persists->Increment();
  if (options_.on_persist) {
    PersistEvent ev;
    ev.file = path;
    ev.gen = gen;
    ev.batches = static_cast<long long>(batches_);
    ev.checksum = Fnv1a64(bytes.data(), bytes.size());
    options_.on_persist(ev);
  }
  return Status::OK();
}

Status FdRmsService::PersistNow() {
  if (options_.persist_every_batches == 0) {
    return Status::FailedPrecondition("persistence not configured");
  }
  Status save = Status::OK();
  Status rendezvous = Inspect([this, &save](const FdRms&) {
    // Writer thread, between batches: a forced save outside the cadence.
    if (PersistDirty()) save = DoPersist();
  });
  FDRMS_RETURN_NOT_OK(rendezvous);
  return save;
}

void FdRmsService::PublishSnapshot() {
  // The snapshot's counters read back out of the same metrics a scrape
  // exports, so a ResultSnapshot and a concurrent PrometheusText() can
  // never disagree about what this service has done.
  metrics_.version->Set(static_cast<double>(version_));
  metrics_.sample_size_m->Set(static_cast<double>(algo_.current_m()));
  metrics_.cover_size->Set(static_cast<double>(algo_.cover().CoverSize()));
  metrics_.incidence_entries->Set(
      static_cast<double>(algo_.cover().system().num_links()));
  metrics_.live_tuples->Set(static_cast<double>(algo_.size()));
  auto snap = std::make_shared<ResultSnapshot>();
  snap->version = version_;
  snap->ops_applied = metrics_.ops_applied->Value();
  snap->ops_rejected = metrics_.ops_rejected->Value();
  snap->batches = metrics_.batches->Value();
  snap->sample_size_m = algo_.current_m();
  snap->live_tuples = algo_.size();
  snap->writer_busy_seconds = busy_seconds_;
  snap->persisted = metrics_.persists->Value();
  std::vector<FdRms::ResultEntry> entries = algo_.ResolvedResult();
  snap->ids.reserve(entries.size());
  snap->points.reserve(entries.size());
  for (FdRms::ResultEntry& e : entries) {
    snap->ids.push_back(e.id);
    snap->points.push_back(std::move(e.point));
  }
  std::shared_ptr<const ResultSnapshot> published = std::move(snap);
  published_version_.store(version_, std::memory_order_release);
  snapshot_.store(published, std::memory_order_release);
  metrics_.publications->Increment();
  if (options_.on_publish) options_.on_publish(*published);
}

std::string FdRmsService::DebugString() const {
  std::ostringstream out;
  out << "FdRmsService{dim=" << dim_ << ", ";
  switch (state_.load()) {
    case State::kNew: out << "new"; break;
    case State::kRunning: out << "running"; break;
    case State::kStopped: out << "stopped"; break;
  }
  for (const auto& [k, v] : options_.metrics_labels) {
    out << ", " << k << "=" << v;
  }
  out << "}\n";
  out << "  version=" << static_cast<uint64_t>(metrics_.version->Value())
      << " live_tuples=" << static_cast<int64_t>(metrics_.live_tuples->Value())
      << " sample_m=" << static_cast<int64_t>(metrics_.sample_size_m->Value())
      << "\n";
  out << "  submitted=" << ops_submitted()
      << " applied=" << metrics_.ops_applied->Value()
      << " rejected=" << metrics_.ops_rejected->Value()
      << " dropped=" << metrics_.ops_dropped->Value()
      << " batches=" << metrics_.batches->Value()
      << " publications=" << metrics_.publications->Value() << "\n";
  out << "  queue_depth=" << static_cast<uint64_t>(
             metrics_.queue_depth->Value())
      << " writer_busy_s=" << metrics_.writer_busy_seconds->Value() << "\n";
  char quant[160];
  std::snprintf(quant, sizeof(quant),
                "  publish_latency_us p50=%.1f p90=%.1f p99=%.1f p999=%.1f "
                "(n=%llu)\n",
                metrics_.publish_latency_us->Quantile(0.50),
                metrics_.publish_latency_us->Quantile(0.90),
                metrics_.publish_latency_us->Quantile(0.99),
                metrics_.publish_latency_us->Quantile(0.999),
                static_cast<unsigned long long>(
                    metrics_.publish_latency_us->Count()));
  out << quant;
  std::snprintf(quant, sizeof(quant),
                "  phases_us drain p50=%.1f apply p50=%.1f publish p50=%.1f\n",
                metrics_.drain_us->Quantile(0.50),
                metrics_.apply_us->Quantile(0.50),
                metrics_.publish_us->Quantile(0.50));
  out << quant;
  out << "  persists=" << metrics_.persists->Value()
      << " persist_failures=" << metrics_.persist_failures->Value()
      << " resumed=" << (resumed_ ? "yes" : "no") << "\n";
  const char* health_name = "running";
  switch (health()) {
    case Health::kRunning: health_name = "running"; break;
    case Health::kDegraded: health_name = "DEGRADED"; break;
    case Health::kDead: health_name = "DEAD"; break;
  }
  out << "  health=" << health_name << " heartbeat=" << writer_heartbeat()
      << " writer_faults=" << metrics_.writer_faults->Value() << "\n";
  return out.str();
}

}  // namespace fdrms
