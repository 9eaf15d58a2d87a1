#include "shard/sharded_service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include <sstream>

#include "common/check.h"
#include "common/durable_io.h"
#include "common/fault_point.h"
#include "common/rng.h"
#include "geometry/sampling.h"
#include "obs/phase_span.h"

namespace fdrms {

namespace {

/// Combines fan-out statuses: the first non-OK wins (shard order, so the
/// report is deterministic).
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Runs `fn(s)` for every shard index on its own thread and joins. Used
/// for lifecycle fan-out (Start bulk loads, Stop drains) where the
/// per-shard work is independent and potentially long.
void ForEachShardConcurrently(size_t num_shards,
                              const std::function<void(size_t)>& fn) {
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) workers.emplace_back(fn, s);
  for (std::thread& w : workers) w.join();
}

/// Submits a migration-internal operation, absorbing kResourceExhausted
/// backpressure (Overflow::kReject shards shed load at the edge, but a
/// migration's replay must land). kUnavailable is NOT retried: a dead
/// writer never drains its queue, so spinning here would hang the control
/// plane — the caller gets the error and the revive path owns recovery.
Status SubmitWithRetry(FdRmsService* shard, FdRms::BatchOp op) {
  for (;;) {
    Status st = shard->Submit(op);
    if (st.code() != StatusCode::kResourceExhausted) return st;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Greedy re-cover of the merged view (GreedyReCover): a direction counts
/// as covered once a selected tuple scores >= (1 - kMergeEps) of the
/// union's best, over kMergeDirections utility directions sampled once at
/// construction from kMergeSeed.
constexpr double kMergeEps = 0.05;
constexpr int kMergeDirections = 512;
constexpr uint64_t kMergeSeed = 4242;

/// Consults a control-plane fault site (common/fault_point.h). kDie is not
/// meaningful off the writer thread, so it acts like kError here: the
/// surrounding operation fails with the injected status.
Status ControlFaultSite(const char* prefix, const char* step) {
  FaultAction act = FaultPoints::Hit(prefix, step);
  if (act.error() || act.die()) return act.ToStatus();
  return Status::OK();
}

}  // namespace

/// The freeze interposer of one in-flight migration: Submit diverts every
/// operation whose id hashes to a moving slot into `buffered` (in
/// submission order); the migration drains the buffer into the targets
/// before the cutover epoch publishes.
struct ShardedFdRmsService::MigrationState {
  explicit MigrationState(const MigrationPlan& plan) {
    for (const MigrationPlan::SlotMove& move : plan.slot_moves) {
      slot_moved[static_cast<size_t>(move.slot)] = true;
    }
  }

  bool Matches(int id) const {
    return slot_moved[static_cast<size_t>(HashSlotOf(id))];
  }

  std::array<bool, kNumHashSlots> slot_moved{};

  std::mutex mu;
  std::vector<FdRms::BatchOp> buffered;
};

ShardedFdRmsService::ShardedFdRmsService(int dim,
                                         const ShardedServiceOptions& options)
    : dim_(dim),
      options_(options),
      initial_table_(RoutingTable::Slotted(options.num_shards)),
      batch_bound_(options.shard.max_batch),
      registry_(options.registry ? options.registry
                                 : std::make_shared<obs::MetricRegistry>()) {
  versioned_persist_ = options_.shard.persist_every_batches > 0 &&
                       !options_.shard.persist_path.empty();
  // With a resume path the manifest decides the topology, so shard
  // construction waits for Start (keeps non-resume behavior bit-identical).
  defer_topology_ = !options_.shard.resume_path.empty();
  RegisterMetrics();
  if (options_.merged_budget_r > 0) {
    Rng rng(kMergeSeed);
    recover_directions_.reserve(static_cast<size_t>(kMergeDirections));
    for (int i = 0; i < kMergeDirections; ++i) {
      recover_directions_.push_back(SampleUnitVectorNonneg(dim, &rng));
    }
  }
  ResetTopology();
}

ShardedFdRmsService::~ShardedFdRmsService() {
  // Runs before member destruction, so the ticker can still see every
  // member; shard writer threads are joined when topology_ (declared last,
  // destroyed first) releases the FdRmsService instances.
  health_tracker_.Stop();
  manifest_ticker_.Stop();
}

void ShardedFdRmsService::RegisterMetrics() {
  obs::MetricRegistry& r = *registry_;
  metrics_.publications = r.GetCounter(
      "fdrms_shard_publications_total",
      "Per-shard snapshot publications observed by the sharded layer");
  metrics_.reads = r.GetCounter(
      "fdrms_reads_total", "Merged Query() calls served");
  metrics_.merge_cache_hits = r.GetCounter(
      "fdrms_merge_cache_hits_total",
      "Query() calls answered from the cached merged snapshot");
  metrics_.merge_cache_misses = r.GetCounter(
      "fdrms_merge_cache_misses_total",
      "Query() calls that rebuilt the merged snapshot");
  metrics_.merge_recovers = r.GetCounter(
      "fdrms_merge_recovers_total",
      "Merge rebuilds that ran the greedy re-cover to the global budget");
  metrics_.migrations = r.GetCounter(
      "fdrms_migrations_total",
      "Completed Migrate() calls (AddShard/RemoveShard count theirs)");
  metrics_.migration_failures = r.GetCounter(
      "fdrms_migration_failures_total", "Migrate() attempts that failed");
  metrics_.migration_ops_replayed = r.GetCounter(
      "fdrms_migration_ops_replayed_total",
      "Tuples moved between shards by migration replay");
  metrics_.migration_ops_side_buffered = r.GetCounter(
      "fdrms_migration_ops_side_buffered_total",
      "Operations parked in a migration side buffer at submit time");
  metrics_.routing_persists = r.GetCounter(
      "fdrms_routing_persists_total",
      "Routing-table snapshot files written crash-durably");
  metrics_.routing_persist_failures = r.GetCounter(
      "fdrms_routing_persist_failures_total",
      "Routing-table snapshot writes that failed at any step "
      "(serialize, write, fsync, rename, dir sync)");
  metrics_.manifest_commits = r.GetCounter(
      "fdrms_manifest_commits_total",
      "Constellation manifest generations committed crash-durably");
  metrics_.manifest_commit_failures = r.GetCounter(
      "fdrms_manifest_commit_failures_total",
      "Manifest commit attempts that failed (shard save, routing write, "
      "or manifest slot write)");
  metrics_.writer_restarts = r.GetCounter(
      "fdrms_shard_writer_restarts_total",
      "Dead shards brought back by ReviveShard (successor seeded from the "
      "dead instance's applied state)");
  metrics_.shard_deaths = r.GetCounter(
      "fdrms_shard_deaths_total",
      "Shard writer deaths observed by the health tracker (one per dead "
      "instance; a revived shard's next death counts again)");
  metrics_.degraded_reads = r.GetCounter(
      "fdrms_degraded_reads_total",
      "Merged Query() calls served while at least one shard was dead "
      "(that component frozen at its last published snapshot)");
  metrics_.epoch = r.GetGauge(
      "fdrms_epoch", "Published routing epoch");
  metrics_.shards = r.GetGauge(
      "fdrms_shards", "Live shard count of the current topology");
  metrics_.shards_unhealthy = r.GetGauge(
      "fdrms_shards_unhealthy",
      "Live shards whose writer thread is dead, per the health tracker's "
      "last poll");
  metrics_.migration_side_buffer_depth = r.GetGauge(
      "fdrms_migration_side_buffer_depth",
      "Operations currently parked in the in-flight migration's side buffer");
  metrics_.manifest_generation = r.GetGauge(
      "fdrms_manifest_generation",
      "Generation of the last committed constellation manifest");
  metrics_.manifest_commit_us = r.GetLatencyHistogram(
      "fdrms_manifest_commit_us",
      "Constellation manifest commit: routing snapshot + manifest slot "
      "write + snapshot GC (us)");
  metrics_.merge_build_us = r.GetLatencyHistogram(
      "fdrms_merge_build_us",
      "Merged-snapshot rebuild on a read-cache miss (us)");
  metrics_.merge_recover_us = r.GetLatencyHistogram(
      "fdrms_merge_recover_us",
      "Greedy re-cover portion of a merge rebuild (us)");
  metrics_.migration_freeze_us = r.GetLatencyHistogram(
      "fdrms_migration_freeze_us",
      "Migration freeze phase: side-buffer interposer install (us)");
  metrics_.migration_drain_us = r.GetLatencyHistogram(
      "fdrms_migration_drain_us",
      "Migration drain phase: all-shard flush + frozen-range collect (us)");
  metrics_.migration_replay_us = r.GetLatencyHistogram(
      "fdrms_migration_replay_us",
      "Migration replay phase: target inserts, flush, source deletes (us)");
  metrics_.migration_cutover_us = r.GetLatencyHistogram(
      "fdrms_migration_cutover_us",
      "Migration cutover phase: side-buffer drain + epoch publish + "
      "post-cutover flush (us)");
}

void ShardedFdRmsService::UpdateTopologyGauges(uint64_t epoch,
                                               size_t num_shards) {
  metrics_.epoch->Set(static_cast<double>(epoch));
  metrics_.shards->Set(static_cast<double>(num_shards));
}

std::shared_ptr<FdRmsService> ShardedFdRmsService::MakeShard(
    int index, const std::string& resume_file, uint64_t initial_version) {
  FdRmsServiceOptions per_shard = options_.shard;
  per_shard.initial_version = initial_version;
  if (versioned_persist_) {
    // Manifest mode: every save goes to a fresh immutable
    // `<base>.shard<i>.g<G>.b<B>` file and reports into the ledger; the
    // persist-generation floor keeps filenames unique across rebirths and
    // process restarts.
    if (static_cast<size_t>(index) >= persist_gen_seeds_.size()) {
      persist_gen_seeds_.resize(static_cast<size_t>(index) + 1, 0);
    }
    const std::string base = options_.shard.persist_path;
    per_shard.persist_gen_start = persist_gen_seeds_[static_cast<size_t>(index)];
    per_shard.persist_version_path = [base, index](long long gen,
                                                   long long batches) {
      return ShardSnapshotPath(base, index, gen, batches);
    };
    auto user_persist = per_shard.on_persist;
    per_shard.on_persist = [this, index, user_persist = std::move(
                                             user_persist)](
                               const PersistEvent& ev) {
      OnShardPersist(index, ev);
      if (user_persist) user_persist(ev);
    };
  }
  // `resume_file` is the exact snapshot the manifest references (resume
  // boots only); a shard added to a live constellation starts empty.
  per_shard.resume_path = resume_file;
  // One registry for the constellation: shards are told apart by label, and
  // the sharded layer owns the one dumper over it. GetOrCreate hands the same
  // series back for the same (name, labels), so a reborn index must not
  // reuse the retired instance's labels — its counters would resume at the
  // dead instance's totals, inflating the new shard's stats. The first
  // instance keeps the plain {shard=i} label; rebirths add {gen=n}.
  per_shard.registry = registry_;
  if (static_cast<size_t>(index) >= shard_incarnations_.size()) {
    shard_incarnations_.resize(static_cast<size_t>(index) + 1, 0);
  }
  const uint64_t gen = shard_incarnations_[static_cast<size_t>(index)]++;
  per_shard.metrics_labels.emplace_back("shard", std::to_string(index));
  if (gen > 0) {
    per_shard.metrics_labels.emplace_back("gen", std::to_string(gen));
  }
  auto user_hook = per_shard.on_publish;
  per_shard.on_publish = [this, user_hook = std::move(user_hook)](
                             const ResultSnapshot& snap) {
    metrics_.publications->Increment();
    if (user_hook) user_hook(snap);
  };
  auto shard = std::make_shared<FdRmsService>(dim_, per_shard);
  // A shard born under an active controller override must start throttled:
  // the controller only re-asserts the bound on its next adjustment.
  const size_t bound = batch_bound_.load(std::memory_order_relaxed);
  if (bound != options_.shard.max_batch) shard->SetBatchBound(bound);
  return shard;
}

size_t ShardedFdRmsService::SetBatchBound(size_t bound) {
  // Remember the override first so a shard being created concurrently
  // (MakeShard reads batch_bound_) can never miss both the fan-out below
  // and the seeded value.
  size_t in_force =
      std::min(std::max(bound, size_t{1}), options_.shard.max_batch);
  batch_bound_.store(in_force, std::memory_order_relaxed);
  std::shared_ptr<const Topology> topo = topology();
  for (const auto& shard : topo->shards) {
    in_force = shard->SetBatchBound(bound);
  }
  return in_force;
}

void ShardedFdRmsService::ResetTopology() {
  auto topo = std::make_shared<Topology>();
  topo->table = initial_table_;
  if (!defer_topology_) {
    topo->shards.reserve(static_cast<size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      topo->shards.push_back(MakeShard(s, /*resume_file=*/""));
    }
  }
  // Deferred (resume) constellations stay shard-less until Start resolves
  // the manifest: the persisted shard count, not options_.num_shards, is
  // authoritative there.
  router_ = std::make_unique<EpochShardRouter>(initial_table_);
  UpdateTopologyGauges(initial_table_->epoch(), topo->shards.size());
  PublishTopology(std::move(topo));
}

Status ShardedFdRmsService::Start(
    const std::vector<std::pair<int, Point>>& initial) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("sharded service already started");
  }
  // On resume the whole topology — shard count, epoch, per-shard snapshot
  // files — comes out of the constellation manifest; a torn or missing
  // store fails loudly here instead of serving a guessed topology.
  if (defer_topology_) {
    Status resolved = BuildResumedTopologyLocked();
    if (!resolved.ok()) {
      started_.store(false);
      return resolved;
    }
  }

  std::shared_ptr<const Topology> topo = topology();
  const size_t num_shards = topo->shards.size();

  std::vector<std::vector<std::pair<int, Point>>> partitions(num_shards);
  for (const auto& [id, point] : initial) {
    const size_t s = static_cast<size_t>(topo->table->Route(id));
    partitions[s].emplace_back(id, point);
  }
  std::vector<Status> statuses(num_shards);
  ForEachShardConcurrently(num_shards, [&](size_t s) {
    statuses[s] = topo->shards[s]->Start(partitions[s]);
  });
  Status combined = FirstError(statuses);
  if (!combined.ok()) {
    // A partial constellation must not accept traffic: abort the shards
    // that did come up, then rebuild everything fresh (a stopped
    // FdRmsService cannot restart) so the caller may retry Start.
    for (size_t s = 0; s < num_shards; ++s) {
      if (statuses[s].ok()) (void)topo->shards[s]->Stop(StopPolicy::kAbort);
    }
    {
      std::lock_guard<std::mutex> lg(ledger_.mu);
      ledger_.entries.clear();
      ledger_.dirty = false;
    }
    resumed_ = false;
    ResetTopology();
    started_.store(false);
    return combined;
  }
  if (versioned_persist_) {
    // Durability root: commit a manifest for the just-started constellation
    // (forcing every shard's first save) so a crash from here on always
    // resumes — without this, files-without-manifest is indistinguishable
    // from a torn store and resume must refuse it. Failures are counted,
    // not fatal: a full disk must not take the serving path down.
    (void)CommitConstellationLocked(/*persist_shards=*/true);
    StartManifestTickerLocked();
  }
  if (options_.metrics_dump_every_ms > 0 && dumper_ == nullptr) {
    obs::PeriodicDumperOptions dump;
    dump.prometheus_path = options_.metrics_dump_path;
    dump.json_path = options_.metrics_dump_json_path;
    dump.interval_ms = options_.metrics_dump_every_ms;
    dumper_ = std::make_unique<obs::PeriodicDumper>(registry_, dump);
    dumper_->Start();
  }
  StartHealthTrackerLocked();
  return combined;
}

Status ShardedFdRmsService::Stop(StopPolicy policy) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  if (!started_.load()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  // The ticker only try-locks admin_mutex_, so joining it while holding the
  // lock cannot deadlock; stopping it first means no commit races the
  // shard shutdown below. The health tracker goes first for the same
  // reason (it takes no locks at all — pure atomic polling).
  health_tracker_.Stop();
  manifest_ticker_.Stop();
  std::shared_ptr<const Topology> topo = topology();
  std::vector<Status> statuses(topo->shards.size());
  ForEachShardConcurrently(topo->shards.size(), [&](size_t s) {
    statuses[s] = topo->shards[s]->Stop(policy);
  });
  // Final manifest: every shard's exit save has landed in the ledger, so
  // this commit makes the terminal state the restorable one.
  (void)CommitConstellationLocked(/*persist_shards=*/false);
  // Stop the dumper after the shards so its final dump carries the shards'
  // terminal counter values.
  if (dumper_ != nullptr) dumper_->Stop();
  return FirstError(statuses);
}

Status ShardedFdRmsService::Submit(FdRms::BatchOp op) {
  std::shared_lock<std::shared_mutex> lock(route_mutex_);
  std::shared_ptr<MigrationState> mig =
      migration_.load(std::memory_order_acquire);
  if (mig != nullptr && mig->Matches(op.id)) {
    std::lock_guard<std::mutex> g(mig->mu);
    mig->buffered.push_back(std::move(op));
    metrics_.migration_ops_side_buffered->Increment();
    metrics_.migration_side_buffer_depth->Set(
        static_cast<double>(mig->buffered.size()));
    return Status::OK();
  }
  std::shared_ptr<const Topology> topo = topology();
  if (topo->shards.empty()) {
    // A resume-deferred constellation has no shards until Start resolves
    // the manifest.
    return Status::FailedPrecondition("sharded service never started");
  }
  const int s = topo->table->Route(op.id);
  return topo->shards[static_cast<size_t>(s)]->Submit(std::move(op));
}

Status ShardedFdRmsService::Flush() {
  std::shared_ptr<const Topology> topo = topology();
  if (topo->shards.empty()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  std::vector<Status> statuses(topo->shards.size());
  for (size_t s = 0; s < topo->shards.size(); ++s) {
    statuses[s] = topo->shards[s]->Flush();
  }
  return FirstError(statuses);
}

Status ShardedFdRmsService::Migrate(const MigrationPlan& plan) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  return MigrateLocked(plan);
}

Status ShardedFdRmsService::MigrateLocked(const MigrationPlan& plan) {
  Status st = MigrateLockedImpl(plan);
  if (st.ok()) {
    metrics_.migrations->Increment();
    // Cooldown anchor for the SLO controller: every completed migration
    // (including AddShard/RemoveShard's internal ones) resets the window.
    last_topology_change_us_.store(registry_->NowMicros(),
                                   std::memory_order_relaxed);
  } else {
    metrics_.migration_failures->Increment();
  }
  return st;
}

Status ShardedFdRmsService::MigrateLockedImpl(const MigrationPlan& plan) {
  if (!started_.load()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  std::shared_ptr<const Topology> topo = topology();
  const int num_shards = static_cast<int>(topo->shards.size());
  auto next_or = topo->table->Apply(plan, num_shards);
  if (!next_or.ok()) return next_or.status();
  std::shared_ptr<const RoutingTable> next = *next_or;

  // Nothing installed yet: an injected freeze failure is a clean reject.
  FDRMS_RETURN_NOT_OK(ControlFaultSite("migration.freeze", "pre"));

  // (1) Freeze: divert new mutations of the moving slots into the side
  // buffer. The exclusive section is only the pointer swap, so no submit
  // can be mid-route across the freeze.
  auto state = std::make_shared<MigrationState>(plan);
  {
    obs::PhaseSpan freeze(registry_.get(), metrics_.migration_freeze_us,
                          "migration.freeze", /*lifecycle=*/true);
    freeze.set_args(next->epoch());
    std::unique_lock<std::shared_mutex> lock(route_mutex_);
    migration_.store(state, std::memory_order_release);
  }

  // (2) Drain: once every queue is flushed, each source's applied state
  // holds every pre-freeze mutation of the moving slots, and they can no
  // longer change there (new matching mutations sit in the buffer).
  struct MovedTuple {
    int source;
    int target;
    int id;
    Point point;
  };
  std::vector<MovedTuple> moved;
  {
    // An aborted drain still records its span (partial duration) — the
    // trace then shows a freeze with no matching replay/cutover.
    obs::PhaseSpan drain(registry_.get(), metrics_.migration_drain_us,
                         "migration.drain", /*lifecycle=*/true);
    drain.set_args(next->epoch());
    Status injected = ControlFaultSite("migration.drain", "pre");
    if (!injected.ok()) {
      AbortFreeze(state, *topo);
      return injected;
    }
    for (int s = 0; s < num_shards; ++s) {
      Status st = topo->shards[s]->Flush();
      if (!st.ok()) {
        AbortFreeze(state, *topo);
        return st;
      }
    }

    // Read the frozen slots out of their sources (drain-range hook; runs on
    // each shard's writer thread against a consistent cut).
    for (int s = 0; s < num_shards; ++s) {
      std::vector<std::pair<int, Point>> in_range;
      Status st = topo->shards[s]->CollectRange(
          [&state](int id) { return state->Matches(id); }, &in_range);
      if (!st.ok()) {
        AbortFreeze(state, *topo);
        return st;
      }
      for (auto& [id, point] : in_range) {
        const int target = next->Route(id);
        if (target != s) moved.push_back({s, target, id, std::move(point)});
      }
    }
    drain.set_args(next->epoch(), moved.size());
  }

  // (3) Replay, as ordinary journaled operations (the FD-RMS update is
  // delete-then-reinsert by construction, so a migration is just those two
  // halves landing on different shards). Inserts reach the targets and are
  // flushed before any source delete is issued: no merged view ever loses
  // a moved tuple, and transient double-ownership de-duplicates in the
  // merge. Failures past this point are not rolled back — they are
  // unreachable through the public API (Stop serializes behind the
  // migration) — the first error is reported after the cutover unfreezes
  // the slots.
  Status first_error = Status::OK();
  auto note = [&first_error](Status st) {
    if (!st.ok() && first_error.ok()) first_error = std::move(st);
  };
  {
    // Still nothing moved: an injected replay failure aborts cleanly (the
    // sources keep the slots, the side buffer replays to them).
    Status injected = ControlFaultSite("migration.replay", "pre");
    if (!injected.ok()) {
      AbortFreeze(state, *topo);
      return injected;
    }
    obs::PhaseSpan replay(registry_.get(), metrics_.migration_replay_us,
                          "migration.replay", /*lifecycle=*/true);
    replay.set_args(next->epoch(), moved.size());
    for (const MovedTuple& m : moved) {
      note(SubmitWithRetry(topo->shards[static_cast<size_t>(m.target)].get(),
                           {FdRms::BatchOp::Kind::kInsert, m.id, m.point}));
    }
    for (int s = 0; s < num_shards; ++s) {
      note(topo->shards[s]->Flush());  // the targets now hold the tuples
    }
    for (const MovedTuple& m : moved) {
      note(SubmitWithRetry(topo->shards[static_cast<size_t>(m.source)].get(),
                           {FdRms::BatchOp::Kind::kDelete, m.id, Point{}}));
    }
    metrics_.migration_ops_replayed->Increment(moved.size());
  }

  // (4) Cutover: catch the side buffer up without blocking submitters,
  // then swap the epoch with the last stragglers under the exclusive lock.
  // Buffer order is preserved, and every buffered op follows the replayed
  // inserts already flushed into its target, so per-id order holds.
  {
    // Tuples have moved; aborting now would strand them. Like any
    // post-replay failure the injected error is noted and reported after
    // the cutover unfreezes the slots.
    note(ControlFaultSite("migration.cutover", "pre"));
    obs::PhaseSpan cutover(registry_.get(), metrics_.migration_cutover_us,
                           "migration.cutover", /*lifecycle=*/true);
    uint64_t drained = 0;
    for (int round = 0; round < 4; ++round) {
      std::vector<FdRms::BatchOp> chunk;
      {
        std::lock_guard<std::mutex> g(state->mu);
        chunk.swap(state->buffered);
      }
      if (chunk.empty()) break;
      drained += chunk.size();
      for (FdRms::BatchOp& op : chunk) {
        const int target = next->Route(op.id);
        note(SubmitWithRetry(topo->shards[static_cast<size_t>(target)].get(),
                             std::move(op)));
      }
    }
    {
      std::unique_lock<std::shared_mutex> lock(route_mutex_);
      std::vector<FdRms::BatchOp> rest;
      {
        std::lock_guard<std::mutex> g(state->mu);
        rest.swap(state->buffered);
      }
      drained += rest.size();
      for (FdRms::BatchOp& op : rest) {
        const int target = next->Route(op.id);
        note(SubmitWithRetry(topo->shards[static_cast<size_t>(target)].get(),
                             std::move(op)));
      }
      router_->Publish(next);
      auto cut = std::make_shared<Topology>(*topo);
      cut->table = next;
      UpdateTopologyGauges(next->epoch(), cut->shards.size());
      PublishTopology(std::move(cut));
      migration_.store(nullptr, std::memory_order_release);
      metrics_.migration_side_buffer_depth->Set(0.0);
    }
    cutover.set_args(next->epoch(), drained);

    // Post-cutover flush: the source deletes and side-buffered operations
    // are all applied before Migrate reports success, so ownership matches
    // the published epoch exactly when we return.
    for (int s = 0; s < num_shards; ++s) {
      note(topo->shards[s]->Flush());
    }
  }
  if (first_error.ok()) {
    // The manifest is the migration's durability commit point: a crash
    // before the slot rename resumes into the pre-migration constellation
    // (replay covers the gap); after it, into the post-migration one.
    (void)FaultPoints::Hit("shard.cutover", "pre_manifest");
    (void)CommitConstellationLocked(/*persist_shards=*/true);
    (void)FaultPoints::Hit("shard.cutover", "committed");
  }
  return first_error;
}

void ShardedFdRmsService::AbortFreeze(
    const std::shared_ptr<MigrationState>& state, const Topology& topo) {
  std::unique_lock<std::shared_mutex> lock(route_mutex_);
  std::vector<FdRms::BatchOp> leftover;
  {
    std::lock_guard<std::mutex> g(state->mu);
    leftover.swap(state->buffered);
  }
  migration_.store(nullptr, std::memory_order_release);
  metrics_.migration_side_buffer_depth->Set(0.0);
  // Nothing has moved yet: the pre-migration table still owns the slots,
  // so the buffer replays to the old owners. These operations were already
  // acknowledged to their submitters, so backpressure is absorbed (retry on
  // kResourceExhausted) rather than shedding them; only a shard that has
  // stopped accepting work can still lose one, and in that state the whole
  // constellation is down and Migrate is returning the underlying error.
  for (FdRms::BatchOp& op : leftover) {
    const int s = topo.table->Route(op.id);
    (void)SubmitWithRetry(topo.shards[static_cast<size_t>(s)].get(),
                          std::move(op));
  }
}

Status ShardedFdRmsService::AddShard() {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  if (!started_.load()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  std::shared_ptr<const Topology> topo = topology();
  const int num_shards = static_cast<int>(topo->shards.size());
  if (num_shards >= kNumHashSlots) {
    return Status::FailedPrecondition(
        "every hash slot already has its own shard (" +
        std::to_string(kNumHashSlots) + ")");
  }
  std::shared_ptr<FdRmsService> fresh =
      MakeShard(num_shards, /*resume_file=*/"");
  FDRMS_RETURN_NOT_OK(fresh->Start({}));
  std::shared_ptr<const RoutingTable> grown =
      topo->table->WithNumShards(num_shards + 1);
  {
    std::unique_lock<std::shared_mutex> lock(route_mutex_);
    auto next = std::make_shared<Topology>(*topo);
    next->table = grown;
    next->shards.push_back(std::move(fresh));
    router_->Publish(grown);
    UpdateTopologyGauges(grown->epoch(), next->shards.size());
    PublishTopology(std::move(next));
  }

  // Slot-balanced plan: hand the newcomer its even share, drawn one slot
  // at a time from whichever shard currently owns the most. Some shard
  // owns at least 256/S > want slots, so the plan is never empty.
  std::vector<int> load = grown->SlotLoad();
  std::vector<std::vector<int>> owned(static_cast<size_t>(num_shards + 1));
  for (int s = 0; s <= num_shards; ++s) {
    owned[static_cast<size_t>(s)] = grown->SlotsOwnedBy(s);
  }
  const int want = kNumHashSlots / (num_shards + 1);
  std::vector<int> slots;
  for (int i = 0; i < want; ++i) {
    int donor = -1;
    for (int s = 0; s < num_shards; ++s) {
      if (!owned[static_cast<size_t>(s)].empty() &&
          (donor < 0 || load[static_cast<size_t>(s)] >
                            load[static_cast<size_t>(donor)])) {
        donor = s;
      }
    }
    if (donor < 0 || load[static_cast<size_t>(donor)] <= want) break;
    slots.push_back(owned[static_cast<size_t>(donor)].back());
    owned[static_cast<size_t>(donor)].pop_back();
    --load[static_cast<size_t>(donor)];
  }
  Status migrated = MigrateLocked(MigrationPlan::Slots(slots, num_shards));
  if (!migrated.ok() && topology()->table->epoch() == grown->epoch()) {
    // The migration failed before its cutover, so the newcomer still owns
    // nothing: roll the topology back instead of leaking an idle shard per
    // retry. (After a cutover the newcomer owns slots and stays.)
    auto shrunk_or = grown->WithoutLastShard();
    if (shrunk_or.ok()) {
      std::shared_ptr<const Topology> topo_now = topology();
      std::shared_ptr<FdRmsService> newcomer = topo_now->shards.back();
      {
        std::unique_lock<std::shared_mutex> lock(route_mutex_);
        auto next = std::make_shared<Topology>(*topo_now);
        next->table = *shrunk_or;
        next->shards.pop_back();
        router_->Publish(*shrunk_or);
        UpdateTopologyGauges((*shrunk_or)->epoch(), next->shards.size());
        PublishTopology(std::move(next));
      }
      (void)newcomer->Stop(FdRmsService::StopPolicy::kAbort);
    }
  }
  return migrated;
}

Status ShardedFdRmsService::RemoveShard() {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  if (!started_.load()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  std::shared_ptr<const Topology> topo = topology();
  const int num_shards = static_cast<int>(topo->shards.size());
  if (num_shards < 2) {
    return Status::FailedPrecondition("cannot remove the only shard");
  }
  const int victim = num_shards - 1;

  // Hand every slot the victim owns to the least-loaded survivor.
  std::vector<int> load = topo->table->SlotLoad();
  MigrationPlan plan;
  for (int slot : topo->table->SlotsOwnedBy(victim)) {
    int t = 0;
    for (int s = 1; s < victim; ++s) {
      if (load[static_cast<size_t>(s)] < load[static_cast<size_t>(t)]) t = s;
    }
    plan.slot_moves.push_back({slot, t});
    ++load[static_cast<size_t>(t)];
  }
  if (!plan.slot_moves.empty()) {
    FDRMS_RETURN_NOT_OK(MigrateLocked(plan));
  }

  topo = topology();  // the post-cutover epoch
  auto shrunk_or = topo->table->WithoutLastShard();
  if (!shrunk_or.ok()) return shrunk_or.status();
  std::shared_ptr<const RoutingTable> shrunk = *shrunk_or;
  std::shared_ptr<FdRmsService> victim_shard = topo->shards.back();
  {
    std::unique_lock<std::shared_mutex> lock(route_mutex_);
    auto next = std::make_shared<Topology>(*topo);
    next->table = shrunk;
    next->shards.pop_back();
    next->retired.push_back(victim_shard);
    router_->Publish(shrunk);
    UpdateTopologyGauges(shrunk->epoch(), next->shards.size());
    PublishTopology(std::move(next));
  }
  Status stopped = victim_shard->Stop(FdRmsService::StopPolicy::kDrain);
  // Retire the victim from the durable constellation: drop its ledger row
  // (the exit save above already reported into it) but remember its persist
  // generation, so a reborn shard at this index keeps filenames unique. The
  // next manifest commit stops referencing the victim's snapshot, and GC
  // unlinks it once no slot references it — the fix for resurrected dead
  // tuples on rebirth + crash + resume.
  if (versioned_persist_) {
    {
      std::lock_guard<std::mutex> lg(ledger_.mu);
      auto it = ledger_.entries.find(victim);
      if (it != ledger_.entries.end()) {
        if (static_cast<size_t>(victim) >= persist_gen_seeds_.size()) {
          persist_gen_seeds_.resize(static_cast<size_t>(victim) + 1, 0);
        }
        persist_gen_seeds_[static_cast<size_t>(victim)] =
            std::max(persist_gen_seeds_[static_cast<size_t>(victim)],
                     it->second.gen);
        ledger_.entries.erase(it);
      }
      ledger_.dirty = true;
    }
    (void)CommitConstellationLocked(/*persist_shards=*/false);
  }
  if (stopped.ok()) {
    last_topology_change_us_.store(registry_->NowMicros(),
                                   std::memory_order_relaxed);
  }
  return stopped;
}

Status ShardedFdRmsService::ReviveShard(int s) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  if (!started_.load()) {
    return Status::FailedPrecondition("sharded service never started");
  }
  return ReviveShardLocked(s);
}

int ShardedFdRmsService::ReviveDeadShards() {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  if (!started_.load()) return 0;
  int revived = 0;
  std::shared_ptr<const Topology> topo = topology();
  for (int s = 0; s < static_cast<int>(topo->shards.size()); ++s) {
    if (topo->shards[s]->health() == FdRmsService::Health::kDead &&
        ReviveShardLocked(s).ok()) {
      ++revived;
    }
  }
  return revived;
}

Status ShardedFdRmsService::ReviveShardLocked(int s) {
  std::shared_ptr<const Topology> topo = topology();
  if (s < 0 || s >= static_cast<int>(topo->shards.size())) {
    return Status::Invalid("no shard " + std::to_string(s));
  }
  std::shared_ptr<FdRmsService> dead = topo->shards[static_cast<size_t>(s)];
  if (dead->health() != FdRmsService::Health::kDead) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(s) + " is not dead; nothing to revive");
  }
  const uint64_t t0 = registry_->NowMicros();

  // Join the dead writer. kDrain, not kAbort: kAbort would Clear() the
  // queue and drop the acknowledged-but-unapplied backlog we are about to
  // replay. The Stop status itself is uninteresting (the writer is already
  // gone); the backlog drain below is what matters.
  (void)dead->Stop(FdRmsService::StopPolicy::kDrain);
  std::vector<FdRms::BatchOp> backlog;
  (void)dead->DrainDeadBacklog(&backlog);

  // Successor seed: a copy of the dead instance's own applied state.
  // algorithm() is valid now that the dead service is stopped, and revive
  // is in-process, so this is exactly the applied prefix — no durable
  // snapshot (which a failing disk may have left behind) can be fresher —
  // and the successor continues from the very state, not a re-initialized
  // one over the same tuples.
  if (versioned_persist_) {
    // The successor's save generations must not collide with the dead
    // incarnation's filenames.
    std::lock_guard<std::mutex> lg(ledger_.mu);
    auto it = ledger_.entries.find(s);
    if (it != ledger_.entries.end()) {
      if (static_cast<size_t>(s) >= persist_gen_seeds_.size()) {
        persist_gen_seeds_.resize(static_cast<size_t>(s) + 1, 0);
      }
      persist_gen_seeds_[static_cast<size_t>(s)] =
          std::max(persist_gen_seeds_[static_cast<size_t>(s)],
                   it->second.gen);
    }
  }

  // The successor continues the dead incarnation's publication sequence:
  // its seed publication is stamped one past the last version the dead
  // writer published, so readers' per-component version monotonicity holds
  // straight through the revive (the epoch does not change).
  std::shared_ptr<const ResultSnapshot> last_pub = dead->Query();
  const uint64_t next_version = last_pub != nullptr ? last_pub->version + 1 : 0;
  std::shared_ptr<FdRmsService> fresh =
      MakeShard(s, /*resume_file=*/"", next_version);
  Status st = fresh->StartFrom(dead->algorithm());
  if (!st.ok()) return st;  // dead shard left in place; ReviveShard may retry

  // Cutover: the routing table (and so the epoch) is unchanged — the
  // successor owns exactly the slots the dead instance did — so the swap
  // is the in-place instance replacement under the route lock. The dead
  // instance retires for post-mortem inspection.
  {
    std::unique_lock<std::shared_mutex> lock(route_mutex_);
    std::shared_ptr<const Topology> now = topology();
    auto next = std::make_shared<Topology>(*now);
    next->retired.push_back(next->shards[static_cast<size_t>(s)]);
    next->shards[static_cast<size_t>(s)] = fresh;
    PublishTopology(std::move(next));
  }

  // Replay the dead writer's acknowledged-but-unapplied ops, in submission
  // order, then flush: once this returns the revived shard's applied state
  // equals an unfaulted run over the same submit sequence.
  Status first = Status::OK();
  for (FdRms::BatchOp& op : backlog) {
    Status rst = SubmitWithRetry(fresh.get(), std::move(op));
    if (!rst.ok() && first.ok()) first = rst;
  }
  Status flushed = fresh->Flush();
  if (!flushed.ok() && first.ok()) first = flushed;

  metrics_.writer_restarts->Increment();
  registry_->lifecycle().Record("shard.revive", t0,
                                registry_->NowMicros() - t0,
                                static_cast<uint64_t>(s), backlog.size());
  if (versioned_persist_) {
    // Bind the successor's state into the durable constellation (forces
    // its first save): a crash after the revive must resume post-replay.
    (void)CommitConstellationLocked(/*persist_shards=*/true);
  }
  // Cooldown anchor: a revive is a topology event for the SLO controller —
  // let the constellation stabilize before scaling resumes.
  last_topology_change_us_.store(registry_->NowMicros(),
                                 std::memory_order_relaxed);
  return first;
}

std::vector<int> ShardedFdRmsService::unhealthy_shards() const {
  std::shared_ptr<const Topology> topo = topology();
  std::vector<int> out;
  for (int s = 0; s < static_cast<int>(topo->shards.size()); ++s) {
    if (topo->shards[s]->health() == FdRmsService::Health::kDead) {
      out.push_back(s);
    }
  }
  return out;
}

int ShardedFdRmsService::num_unhealthy() const {
  std::shared_ptr<const Topology> topo = topology();
  int n = 0;
  for (const auto& shard : topo->shards) {
    if (shard->health() == FdRmsService::Health::kDead) ++n;
  }
  return n;
}

void ShardedFdRmsService::StartHealthTrackerLocked() {
  if (options_.health_poll_every_ms <= 0) return;
  // Death transitions already traced, keyed by instance (a revived index
  // is a new instance, so its next death traces again).
  health_tracker_.Start(
      std::chrono::milliseconds(options_.health_poll_every_ms),
      [this, traced = std::set<const FdRmsService*>()]() mutable {
        std::shared_ptr<const Topology> topo = topology();
        int dead = 0;
        for (size_t s = 0; s < topo->shards.size(); ++s) {
          const FdRmsService* shard = topo->shards[s].get();
          if (shard->health() == FdRmsService::Health::kDead) {
            ++dead;
            if (traced.insert(shard).second) {
              metrics_.shard_deaths->Increment();
              registry_->lifecycle().Record("shard.unhealthy",
                                            registry_->NowMicros(), 0,
                                            static_cast<uint64_t>(s),
                                            shard->writer_heartbeat());
            }
          }
        }
        num_unhealthy_.store(dead, std::memory_order_relaxed);
        metrics_.shards_unhealthy->Set(static_cast<double>(dead));
      });
}

Status ShardedFdRmsService::PersistRoutingLocked(const RoutingTable& table,
                                                 std::string* file,
                                                 std::uint64_t* checksum) {
  // Serialize first: the checksum must cover the exact bytes on disk, and a
  // serialization failure must count like any other persist failure instead
  // of leaving a half-written file.
  std::ostringstream buf;
  Status st = table.Save(&buf);
  if (!st.ok()) {
    metrics_.routing_persist_failures->Increment();
    return st;
  }
  const std::string bytes = buf.str();
  const std::string path = RoutingSnapshotPath(
      options_.shard.persist_path, static_cast<long long>(table.epoch()));
  st = WriteFileDurable(path, bytes, "shard.routing");
  if (!st.ok()) {
    metrics_.routing_persist_failures->Increment();
    return st;
  }
  metrics_.routing_persists->Increment();
  *file = FileBasename(path);
  *checksum = Fnv1a64(bytes.data(), bytes.size());
  return Status::OK();
}

void ShardedFdRmsService::OnShardPersist(int index, const PersistEvent& ev) {
  std::lock_guard<std::mutex> lg(ledger_.mu);
  ManifestShardEntry& e = ledger_.entries[index];
  const std::string file = FileBasename(ev.file);
  if (!e.file.empty() && e.file != file) {
    // The replaced save may never reach a manifest (the commit cadence can
    // lag the writer cadence); remember it so commit-time GC can unlink it.
    ledger_.superseded.push_back(e.file);
  }
  e.index = index;
  e.gen = ev.gen;
  e.batches = ev.batches;
  e.checksum = ev.checksum;
  e.file = file;
  ledger_.dirty = true;
}

Status ShardedFdRmsService::CommitConstellationLocked(bool persist_shards) {
  if (!versioned_persist_) return Status::OK();
  std::shared_ptr<const Topology> topo = topology();
  if (topo->shards.empty()) return Status::OK();
  if (FaultPoints::crashed()) {
    metrics_.manifest_commit_failures->Increment();
    return Status::Internal("crash injected: process is dead");
  }
  {
    // Before the ledger swap, so the ledger stays dirty and the next tick
    // retries — an injected commit failure must behave like a real one.
    Status injected = ControlFaultSite("manifest.commit", "pre");
    if (!injected.ok()) {
      metrics_.manifest_commit_failures->Increment();
      return injected;
    }
  }
  obs::PhaseSpan span(registry_.get(), metrics_.manifest_commit_us,
                      "manifest.commit");

  if (persist_shards) {
    // Cutover/Start commits force every shard's applied state to disk first
    // so the manifest binds the constellation *as of this epoch*, not as of
    // each shard's last lazy save.
    for (const auto& shard : topo->shards) {
      Status st = shard->PersistNow();
      if (!st.ok()) {
        metrics_.manifest_commit_failures->Increment();
        return st;
      }
    }
  }

  const std::shared_ptr<const RoutingTable> table = topo->table;
  const long long epoch = static_cast<long long>(table->epoch());
  const int shard_count = static_cast<int>(topo->shards.size());
  std::map<int, ManifestShardEntry> entries;
  std::vector<std::string> superseded;
  {
    std::lock_guard<std::mutex> lg(ledger_.mu);
    if (!ledger_.dirty && epoch == manifest_epoch_ &&
        shard_count == manifest_shard_count_ && manifest_generation_ > 0) {
      return Status::OK();  // nothing changed since the last commit
    }
    entries = ledger_.entries;
    superseded.swap(ledger_.superseded);
    ledger_.dirty = false;
  }
  // Any failure from here re-dirties the ledger (and returns the taken
  // superseded list, unswept) so the next tick retries.
  auto fail = [this, &superseded](Status st) {
    {
      std::lock_guard<std::mutex> lg(ledger_.mu);
      ledger_.dirty = true;
      ledger_.superseded.insert(ledger_.superseded.end(), superseded.begin(),
                                superseded.end());
    }
    metrics_.manifest_commit_failures->Increment();
    return st;
  };

  if (epoch != routing_epoch_written_) {
    std::string file;
    std::uint64_t cksum = 0;
    Status st = PersistRoutingLocked(*table, &file, &cksum);
    if (!st.ok()) return fail(st);
    routing_epoch_written_ = epoch;
    routing_file_ = file;
    routing_checksum_ = cksum;
  }

  ConstellationManifest m;
  m.generation = manifest_generation_ + 1;
  m.epoch = epoch;
  m.shard_count = shard_count;
  m.routing_file = routing_file_;
  m.routing_checksum = routing_checksum_;
  for (int s = 0; s < shard_count; ++s) {
    ManifestShardEntry e;
    e.index = s;  // no ledger row yet = never persisted, encoded "-"
    auto it = entries.find(s);
    if (it != entries.end()) e = it->second;
    m.shards.push_back(std::move(e));
  }
  Status st = CommitManifestSlot(options_.shard.persist_path, m);
  if (!st.ok()) return fail(st);
  manifest_generation_ = m.generation;
  manifest_epoch_ = epoch;
  manifest_shard_count_ = shard_count;
  metrics_.manifest_commits->Increment();
  metrics_.manifest_generation->Set(static_cast<double>(m.generation));

  // Unlink snapshots that just dropped out of the two-generation window
  // (this commit's slot + the other slot), plus saves a newer save
  // superseded before any manifest referenced them. Only ever files an
  // older manifest referenced or the ledger reported replaced — never a
  // directory scan — so a snapshot a shard writer lands concurrently can't
  // be swept before it is referenced.
  std::vector<std::string> current;
  if (!m.routing_file.empty()) current.push_back(m.routing_file);
  for (const ManifestShardEntry& e : m.shards) {
    if (!e.file.empty()) current.push_back(e.file);
  }
  std::set<std::string> need(current.begin(), current.end());
  need.insert(prev_referenced_.begin(), prev_referenced_.end());
  std::set<std::string> drop(superseded.begin(), superseded.end());
  drop.insert(disk_referenced_.begin(), disk_referenced_.end());
  for (const std::string& name : drop) {
    if (need.count(name) == 0) {
      std::error_code ec;
      std::filesystem::remove(
          JoinDirOf(options_.shard.persist_path, name), ec);
    }
  }
  disk_referenced_.assign(need.begin(), need.end());
  prev_referenced_ = std::move(current);
  return Status::OK();
}

Status ShardedFdRmsService::BuildResumedTopologyLocked() {
  const std::string& base = options_.shard.persist_path;
  if (!versioned_persist_) {
    return Status::Invalid(
        "resume_path requires persistence (persist_every_batches > 0 and "
        "persist_path set)");
  }
  if (options_.shard.resume_path != base) {
    return Status::Invalid("resume_path must equal persist_path ('" +
                           options_.shard.resume_path + "' vs '" + base +
                           "'): the manifest names the per-shard files");
  }
  Result<LoadedManifest> loaded_or = LoadNewestManifest(base);
  if (!loaded_or.ok()) {
    if (loaded_or.status().code() != StatusCode::kNotFound) {
      return loaded_or.status();  // slots exist but none valid: stay down
    }
    ConstellationFileScan scan = ScanConstellationFiles(base);
    if (scan.any_legacy) {
      return Status::FailedPrecondition(
          "pre-manifest snapshot layout at " + base +
          " (.shard<i>/.routing): nothing binds those files to one "
          "consistent cut; refusing to resume from them");
    }
    if (scan.any_versioned) {
      return Status::FailedPrecondition(
          "snapshot files at " + base +
          " but no manifest references them (manifest lost or store torn); "
          "refusing to guess a topology");
    }
    // Fresh directory: fall through to a normal first boot with the
    // configured shard count (the Start-end commit then writes gen 1).
    auto topo = std::make_shared<Topology>();
    topo->table = initial_table_;
    topo->shards.reserve(static_cast<size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      topo->shards.push_back(MakeShard(s, /*resume_file=*/""));
    }
    router_ = std::make_unique<EpochShardRouter>(initial_table_);
    UpdateTopologyGauges(initial_table_->epoch(), topo->shards.size());
    PublishTopology(std::move(topo));
    return Status::OK();
  }
  const LoadedManifest& loaded = loaded_or.value();
  const ConstellationManifest& m = loaded.manifest;

  // Routing table at the manifest's epoch.
  std::shared_ptr<const RoutingTable> table;
  if (m.routing_file.empty()) {
    if (m.epoch != 0) {
      return Status::Internal("manifest generation " +
                              std::to_string(m.generation) + " is at epoch " +
                              std::to_string(m.epoch) +
                              " but names no routing snapshot");
    }
    table = RoutingTable::Slotted(m.shard_count);
  } else {
    const std::string path = JoinDirOf(base, m.routing_file);
    Result<std::string> bytes_or = ReadFileToString(path);
    if (!bytes_or.ok()) {
      return Status::Internal("manifest references routing snapshot " + path +
                              ": " + bytes_or.status().ToString());
    }
    const std::string& bytes = bytes_or.value();
    if (Fnv1a64(bytes.data(), bytes.size()) != m.routing_checksum) {
      return Status::Internal("routing snapshot " + path +
                              " fails its manifest checksum");
    }
    std::istringstream in(bytes);
    auto table_or = RoutingTable::Load(&in);
    if (!table_or.ok()) return table_or.status();
    table = *table_or;
    if (table->num_shards() != m.shard_count) {
      return Status::Internal(
          "routing snapshot partitions " +
          std::to_string(table->num_shards()) + " shards, manifest says " +
          std::to_string(m.shard_count));
    }
    if (static_cast<long long>(table->epoch()) != m.epoch) {
      return Status::Internal("routing snapshot is epoch " +
                              std::to_string(table->epoch()) +
                              ", manifest says " + std::to_string(m.epoch));
    }
  }

  // Verify every referenced shard snapshot against its manifest checksum
  // before constructing anything: resume is all-or-nothing.
  std::vector<std::string> resume_files(
      static_cast<size_t>(m.shard_count));
  for (const ManifestShardEntry& e : m.shards) {
    if (e.file.empty()) continue;  // never persisted: shard resumes empty
    const std::string path = JoinDirOf(base, e.file);
    Result<std::uint64_t> cksum = ChecksumFile(path);
    if (!cksum.ok()) {
      return Status::Internal("manifest references shard snapshot " + path +
                              ": " + cksum.status().ToString());
    }
    if (cksum.value() != e.checksum) {
      return Status::Internal("shard snapshot " + path +
                              " fails its manifest checksum");
    }
    resume_files[static_cast<size_t>(e.index)] = path;
  }

  // Seed persist generations and the ledger from the manifest: reborn
  // filenames stay unique across restarts, and an immediate re-commit
  // reproduces the same rows.
  persist_gen_seeds_.assign(static_cast<size_t>(m.shard_count), 0);
  {
    std::lock_guard<std::mutex> lg(ledger_.mu);
    ledger_.entries.clear();
    for (const ManifestShardEntry& e : m.shards) {
      persist_gen_seeds_[static_cast<size_t>(e.index)] = e.gen;
      if (!e.file.empty()) ledger_.entries[e.index] = e;
    }
    ledger_.dirty = false;
  }

  auto topo = std::make_shared<Topology>();
  topo->table = table;
  topo->shards.reserve(static_cast<size_t>(m.shard_count));
  for (int s = 0; s < m.shard_count; ++s) {
    topo->shards.push_back(MakeShard(s, resume_files[static_cast<size_t>(s)]));
  }
  router_ = std::make_unique<EpochShardRouter>(table);
  UpdateTopologyGauges(table->epoch(), topo->shards.size());
  PublishTopology(std::move(topo));

  manifest_generation_ = m.generation;
  manifest_epoch_ = -1;  // force the Start-end commit to write a new one
  manifest_shard_count_ = m.shard_count;
  routing_epoch_written_ = m.epoch;
  routing_file_ = m.routing_file;
  routing_checksum_ = m.routing_checksum;
  prev_referenced_.clear();
  if (!m.routing_file.empty()) prev_referenced_.push_back(m.routing_file);
  for (const ManifestShardEntry& e : m.shards) {
    if (!e.file.empty()) prev_referenced_.push_back(e.file);
  }
  disk_referenced_ = loaded.referenced;

  // No writer lives yet, so a directory sweep is safe: drop `.tmp` orphans
  // and snapshots no valid manifest slot references (crash leftovers).
  GarbageCollectConstellationFiles(base, loaded.referenced,
                                   /*include_tmp=*/true);
  resumed_ = true;
  return Status::OK();
}

void ShardedFdRmsService::StartManifestTickerLocked() {
  if (!versioned_persist_ || options_.manifest_commit_every_ms <= 0) return;
  manifest_ticker_.Start(
      std::chrono::milliseconds(options_.manifest_commit_every_ms), [this] {
        bool dirty;
        {
          std::lock_guard<std::mutex> lg(ledger_.mu);
          dirty = ledger_.dirty;
        }
        if (!dirty) return;
        // try_to_lock: while a migration or Stop holds the control plane the
        // tick is skipped — the cutover/Stop commits its own manifest, and a
        // mid-migration commit could bind a half-moved constellation.
        std::unique_lock<std::mutex> admin(admin_mutex_, std::try_to_lock);
        if (admin.owns_lock()) {
          (void)CommitConstellationLocked(/*persist_shards=*/false);
        }
      });
}

uint64_t ShardedFdRmsService::ops_submitted() const {
  std::shared_ptr<const Topology> topo = topology();
  uint64_t total = 0;
  for (const auto& shard : topo->shards) total += shard->ops_submitted();
  for (const auto& shard : topo->retired) total += shard->ops_submitted();
  return total;
}

uint64_t ShardedFdRmsService::ops_dropped() const {
  std::shared_ptr<const Topology> topo = topology();
  uint64_t total = 0;
  for (const auto& shard : topo->shards) total += shard->ops_dropped();
  for (const auto& shard : topo->retired) total += shard->ops_dropped();
  return total;
}

bool ShardedFdRmsService::running() const {
  std::shared_ptr<const Topology> topo = topology();
  for (const auto& shard : topo->shards) {
    if (!shard->running()) return false;
  }
  return started_.load();
}

void ShardedFdRmsService::PublishTopology(
    std::shared_ptr<const Topology> topo) {
  topology_generation_.fetch_add(1, std::memory_order_acq_rel);
  topology_.store(std::move(topo), std::memory_order_release);
  topology_generation_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const MergedSnapshot> ShardedFdRmsService::Query() const {
  metrics_.reads->Increment();
  // Hit rule: an entry carries the generation that the reader who merged it
  // read before loading its topology, so it was built from the topology
  // published at that generation or a later one. A reader that saw anything
  // of a later topology (through an entry or its own load) also sees the
  // odd bump that preceded that topology's store, so it never matches an
  // older entry: epochs never go back. Within the generation, each shard's
  // published_version() is stored before its snapshot, so it is never
  // behind a version this reader has seen; an entry whose versions equal it
  // is at least as new as anything the reader saw. A death flips health(),
  // a revive or re-route bumps the generation; either fails the check.
  const uint64_t generation =
      topology_generation_.load(std::memory_order_acquire);
  std::shared_ptr<const MergedCacheEntry> cached =
      merged_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->generation == generation) {
    const MergedSnapshot& view = *cached->merged;
    const auto& shards = cached->topology->shards;
    bool current = true;
    for (size_t s = 0; s < shards.size() && current; ++s) {
      current = shards[s]->published_version() == view.versions[s] &&
                (shards[s]->health() == FdRmsService::Health::kDead) ==
                    view.degraded[s];
    }
    if (current) {
      metrics_.merge_cache_hits->Increment();
      if (view.degraded_shards > 0) metrics_.degraded_reads->Increment();
      return cached->merged;
    }
  }

  std::shared_ptr<const Topology> topo = topology();
  const size_t num_shards = topo->shards.size();
  if (num_shards == 0) return nullptr;  // resume-deferred, Start not yet run
  const uint64_t epoch = topo->table->epoch();
  std::vector<std::shared_ptr<const ResultSnapshot>> parts(num_shards);
  // A dead shard's last published snapshot keeps serving — reads degrade,
  // they do not fail — but the merged view must say so.
  std::vector<bool> degraded(num_shards, false);
  int num_degraded = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    parts[s] = topo->shards[s]->Query();
    if (parts[s] == nullptr) return nullptr;  // not every shard is up yet
    if (topo->shards[s]->health() == FdRmsService::Health::kDead) {
      degraded[s] = true;
      ++num_degraded;
    }
  }
  metrics_.merge_cache_misses->Increment();
  std::shared_ptr<const MergedSnapshot> merged;
  {
    obs::PhaseSpan span(registry_.get(), metrics_.merge_build_us,
                        "read.merge_build");
    span.set_args(epoch, num_shards);
    merged = BuildMerged(std::move(parts), epoch, std::move(degraded),
                         num_degraded);
  }
  if (num_degraded > 0) metrics_.degraded_reads->Increment();
  // An odd generation means a topology swap is in flight: the topology
  // just loaded may be either side of it, so the merge is not cached.
  // Racing readers may each cache their own merge; last-writer-wins is
  // safe because every entry is checked against live versions before use.
  if (generation % 2 == 0) {
    merged_cache_.store(std::make_shared<const MergedCacheEntry>(
                            MergedCacheEntry{merged, std::move(topo),
                                             generation}),
                        std::memory_order_release);
  }
  return merged;
}

std::shared_ptr<const MergedSnapshot> ShardedFdRmsService::BuildMerged(
    std::vector<std::shared_ptr<const ResultSnapshot>> parts,
    uint64_t epoch, std::vector<bool> degraded, int num_degraded) const {
  auto merged = std::make_shared<MergedSnapshot>();
  const size_t num_shards = parts.size();
  merged->epoch = epoch;
  merged->degraded = std::move(degraded);
  merged->degraded_shards = num_degraded;
  merged->versions.reserve(num_shards);

  std::vector<int> ids;
  std::vector<const Point*> points;
  std::vector<size_t> order;
  for (size_t s = 0; s < num_shards; ++s) {
    const ResultSnapshot& snap = *parts[s];
    merged->versions.push_back(snap.version);
    merged->ops_applied += snap.ops_applied;
    merged->ops_rejected += snap.ops_rejected;
    merged->batches += snap.batches;
    merged->persisted += snap.persisted;
    merged->live_tuples += snap.live_tuples;
    merged->min_sample_size_m =
        s == 0 ? snap.sample_size_m
               : std::min(merged->min_sample_size_m, snap.sample_size_m);
    merged->writer_busy_seconds_max =
        std::max(merged->writer_busy_seconds_max, snap.writer_busy_seconds);
    merged->writer_busy_seconds_sum += snap.writer_busy_seconds;
    for (size_t i = 0; i < snap.ids.size(); ++i) {
      ids.push_back(snap.ids[i]);
      points.push_back(&snap.points[i]);
    }
  }
  order.resize(ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ids[a] < ids[b]; });
  // Ids are disjoint across shards by routing; drop duplicates anyway so the
  // transient double-ownership window of a live migration degrades to a
  // correct view.
  order.erase(std::unique(order.begin(), order.end(),
                          [&](size_t a, size_t b) { return ids[a] == ids[b]; }),
              order.end());
  merged->union_size = order.size();

  if (options_.merged_budget_r > 0 &&
      order.size() > static_cast<size_t>(options_.merged_budget_r)) {
    obs::PhaseSpan span(registry_.get(), metrics_.merge_recover_us,
                        "read.merge_recover");
    span.set_args(order.size(),
                  static_cast<uint64_t>(options_.merged_budget_r));
    GreedyReCover(ids, points, &order);
    metrics_.merge_recovers->Increment();
    merged->reduced = true;
  }

  merged->ids.reserve(order.size());
  merged->points.reserve(order.size());
  for (size_t i : order) {
    merged->ids.push_back(ids[i]);
    merged->points.push_back(*points[i]);
  }
  merged->shards = std::move(parts);
  return merged;
}

std::string ShardedFdRmsService::DebugString() const {
  std::shared_ptr<const Topology> topo = topology();
  std::ostringstream out;
  out << "=== ShardedFdRmsService ===\n"
      << "epoch=" << topo->table->epoch() << " shards=" << topo->shards.size()
      << " retired=" << topo->retired.size()
      << " running=" << (running() ? "yes" : "no") << "\n"
      << "reads=" << metrics_.reads->Value()
      << " merge_cache_hits=" << metrics_.merge_cache_hits->Value()
      << " merge_cache_misses=" << metrics_.merge_cache_misses->Value()
      << " merge_recovers=" << metrics_.merge_recovers->Value() << "\n"
      << "migrations=" << metrics_.migrations->Value()
      << " failures=" << metrics_.migration_failures->Value()
      << " ops_replayed=" << metrics_.migration_ops_replayed->Value()
      << " ops_side_buffered="
      << metrics_.migration_ops_side_buffered->Value() << "\n";
  {
    std::vector<int> dead = unhealthy_shards();
    out << "health: unhealthy=" << dead.size();
    if (!dead.empty()) {
      out << " [";
      for (size_t i = 0; i < dead.size(); ++i) {
        out << (i > 0 ? "," : "") << dead[i];
      }
      out << "]";
    }
    out << " degraded_reads=" << metrics_.degraded_reads->Value()
        << " writer_restarts=" << metrics_.writer_restarts->Value() << "\n";
  }
  if (versioned_persist_) {
    out << "durability: manifest_gen="
        << static_cast<long long>(metrics_.manifest_generation->Value())
        << " commits=" << metrics_.manifest_commits->Value()
        << " commit_failures=" << metrics_.manifest_commit_failures->Value()
        << " routing_persists=" << metrics_.routing_persists->Value()
        << " routing_failures=" << metrics_.routing_persist_failures->Value()
        << " resumed=" << (resumed_ ? "yes" : "no") << "\n";
  }
  for (size_t s = 0; s < topo->shards.size(); ++s) {
    out << "--- shard " << s << " ---\n" << topo->shards[s]->DebugString();
  }
  return out.str();
}

void ShardedFdRmsService::GreedyReCover(const std::vector<int>& ids,
                                        const std::vector<const Point*>& points,
                                        std::vector<size_t>* keep) const {
  const size_t budget = static_cast<size_t>(options_.merged_budget_r);
  const std::vector<size_t>& candidates = *keep;
  const size_t num_dirs = recover_directions_.size();

  // Score matrix + the union's per-direction optimum.
  std::vector<double> scores(candidates.size() * num_dirs);
  std::vector<double> best(num_dirs, 0.0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Point& p = *points[candidates[c]];
    for (size_t j = 0; j < num_dirs; ++j) {
      const double score = Dot(recover_directions_[j], p);
      scores[c * num_dirs + j] = score;
      best[j] = std::max(best[j], score);
    }
  }

  // A direction with no positive optimum is trivially covered; otherwise it
  // wants a selected tuple within (1-kMergeEps) of the union's best.
  std::vector<bool> covered(num_dirs);
  size_t uncovered = 0;
  for (size_t j = 0; j < num_dirs; ++j) {
    covered[j] = best[j] <= 0.0;
    if (!covered[j]) ++uncovered;
  }

  std::vector<bool> picked(candidates.size(), false);
  std::vector<size_t> selection;  // slots into `candidates`/`scores`
  while (selection.size() < budget && uncovered > 0) {
    size_t best_c = candidates.size();
    size_t best_gain = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      size_t gain = 0;
      for (size_t j = 0; j < num_dirs; ++j) {
        if (!covered[j] && scores[c * num_dirs + j] >=
                               (1.0 - kMergeEps) * best[j]) {
          ++gain;
        }
      }
      if (gain > best_gain) {  // ties resolve to the smallest id (scan order)
        best_gain = gain;
        best_c = c;
      }
    }
    if (best_c == candidates.size()) break;  // nobody covers anything new
    picked[best_c] = true;
    selection.push_back(best_c);
    for (size_t j = 0; j < num_dirs; ++j) {
      if (!covered[j] && scores[best_c * num_dirs + j] >=
                             (1.0 - kMergeEps) * best[j]) {
        covered[j] = true;
        --uncovered;
      }
    }
  }

  // Top-up: coverage can saturate well before the budget (a few strong
  // tuples clear the (1-ε) bar everywhere). Spend the remaining slots on
  // the picks that raise the selected set's per-direction optimum the
  // most, so the served set keeps closing the gap to the union's quality.
  std::vector<double> selected_best(num_dirs, 0.0);
  for (size_t slot : selection) {
    for (size_t j = 0; j < num_dirs; ++j) {
      selected_best[j] = std::max(selected_best[j], scores[slot * num_dirs + j]);
    }
  }
  while (selection.size() < budget) {
    size_t best_c = candidates.size();
    double best_gain = 0.0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      double gain = 0.0;
      for (size_t j = 0; j < num_dirs; ++j) {
        gain += std::max(0.0, scores[c * num_dirs + j] - selected_best[j]);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_c = c;
      }
    }
    if (best_c == candidates.size()) break;  // nobody improves any direction
    picked[best_c] = true;
    selection.push_back(best_c);
    for (size_t j = 0; j < num_dirs; ++j) {
      selected_best[j] =
          std::max(selected_best[j], scores[best_c * num_dirs + j]);
    }
  }

  std::vector<size_t> kept;
  kept.reserve(selection.size());
  for (size_t slot : selection) kept.push_back(candidates[slot]);
  std::sort(kept.begin(), kept.end(),
            [&](size_t a, size_t b) { return ids[a] < ids[b]; });
  *keep = std::move(kept);
}

}  // namespace fdrms
