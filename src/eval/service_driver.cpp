#include "eval/service_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault_point.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "obs/exporters.h"
#include "obs/registry.h"

namespace fdrms {

std::vector<ArrivalPhase> FlashCrowdArrival(double base_ops_per_sec,
                                            double burst_multiplier,
                                            double burst_fraction) {
  // Fractions: 30% baseline warmup, the crowd, then a baseline tail with
  // whatever remains — the tail is what makes "p99 recovered" measurable.
  burst_fraction = std::min(std::max(burst_fraction, 0.05), 0.9);
  const double lead = std::min(0.3, (1.0 - burst_fraction) / 2.0);
  return {
      {lead, base_ops_per_sec},
      {burst_fraction, base_ops_per_sec * burst_multiplier},
      {1.0 - lead - burst_fraction, base_ops_per_sec},
  };
}

std::vector<ArrivalPhase> DiurnalArrival(double base_ops_per_sec, int cycles,
                                         int phases_per_cycle,
                                         double amplitude) {
  cycles = std::max(cycles, 1);
  phases_per_cycle = std::max(phases_per_cycle, 2);
  amplitude = std::min(std::max(amplitude, 0.0), 0.95);
  std::vector<ArrivalPhase> phases;
  const int total = cycles * phases_per_cycle;
  const double fraction = 1.0 / static_cast<double>(total);
  constexpr double kTau = 6.28318530717958647692;
  for (int i = 0; i < total; ++i) {
    const double angle =
        kTau * static_cast<double>(i % phases_per_cycle) /
        static_cast<double>(phases_per_cycle);
    phases.push_back(
        {fraction, base_ops_per_sec * (1.0 + amplitude * std::sin(angle))});
  }
  return phases;
}

namespace {

/// Per-operation scheduled submission instants (seconds from load start)
/// for a paced run: within each phase, operations are spaced 1/rate apart,
/// phases running back to back. Empty when `arrival` is empty (= full
/// speed).
std::vector<double> BuildArrivalSchedule(
    const std::vector<ArrivalPhase>& arrival, size_t num_ops) {
  std::vector<double> at;
  if (arrival.empty() || num_ops == 0) return at;
  at.reserve(num_ops);
  double clock = 0.0;
  size_t scheduled = 0;
  for (size_t p = 0; p < arrival.size() && scheduled < num_ops; ++p) {
    const ArrivalPhase& phase = arrival[p];
    size_t count = p + 1 == arrival.size()
                       ? num_ops - scheduled  // last phase absorbs rounding
                       : std::min(num_ops - scheduled,
                                  static_cast<size_t>(
                                      phase.ops_fraction *
                                      static_cast<double>(num_ops)));
    const double gap =
        phase.ops_per_sec > 0.0 ? 1.0 / phase.ops_per_sec : 0.0;
    for (size_t i = 0; i < count; ++i) {
      at.push_back(clock);
      clock += gap;
    }
    scheduled += count;
  }
  while (at.size() < num_ops) at.push_back(clock);  // defensive top-up
  return at;
}

/// Parks the caller until `wall` reaches `target_seconds` — sleeping for
/// the bulk, yielding the last stretch so the submit lands close to its
/// slot without burning a core for the whole wait.
void WaitUntil(const Stopwatch& wall, double target_seconds) {
  for (;;) {
    const double now = wall.ElapsedSeconds();
    if (now >= target_seconds) return;
    const double remaining = target_seconds - now;
    if (remaining > 0.0005) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(remaining * 5e5)));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Staleness/consistency tallies of one reader thread (no sharing: each
/// reader owns its accumulator; the driver merges after join).
struct ReaderTally {
  uint64_t queries = 0;
  double staleness_sum = 0.0;
  double staleness_max = 0.0;
  bool consistent = true;
};

/// Submitter `t` of `num_submitters` owns the ops on ids congruent to t,
/// so every op on one id goes through one thread in stream order and a
/// delete cannot overtake the insert of its own id.
bool OwnsOp(const Operation& op, int t, int num_submitters) {
  return op.id % num_submitters == t;
}

}  // namespace

ServiceLoadResult RunServiceLoad(const Workload& workload,
                                 const ServiceLoadOptions& opts) {
  FDRMS_CHECK(opts.num_readers >= 0);
  FDRMS_CHECK(opts.num_submitters >= 1);

  FdRmsService service(workload.data().dim(), opts.service);
  std::vector<std::pair<int, Point>> initial;
  initial.reserve(workload.initial_ids().size());
  for (int id : workload.initial_ids()) {
    initial.emplace_back(id, workload.data().Get(id));
  }
  Status started = service.Start(initial);
  FDRMS_CHECK(started.ok()) << started.ToString();

  const int r = opts.service.algo.r;
  const std::vector<Operation>& ops = workload.operations();
  std::atomic<bool> readers_stop{false};
  std::atomic<uint64_t> submit_failures{0};
  std::atomic<uint64_t> submit_retries{0};

  std::vector<ReaderTally> tallies(
      static_cast<size_t>(std::max(opts.num_readers, 0)));
  std::vector<std::thread> threads;
  Stopwatch wall;

  for (int t = 0; t < opts.num_readers; ++t) {
    threads.emplace_back([&, t] {
      ReaderTally& tally = tallies[t];
      uint64_t last_version = 0;
      while (!readers_stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const ResultSnapshot> snap = service.Query();
        ++tally.queries;
        if (snap == nullptr) {
          tally.consistent = false;
          break;
        }
        if (snap->version < last_version) tally.consistent = false;
        last_version = snap->version;
        if (static_cast<int>(snap->ids.size()) > r) tally.consistent = false;
        if (snap->ids.size() != snap->points.size()) tally.consistent = false;
        if (!std::is_sorted(snap->ids.begin(), snap->ids.end()) ||
            std::adjacent_find(snap->ids.begin(), snap->ids.end()) !=
                snap->ids.end()) {
          tally.consistent = false;
        }
        uint64_t submitted = service.ops_submitted();
        uint64_t consumed = snap->ops_applied + snap->ops_rejected;
        if (submitted < consumed) tally.consistent = false;  // invariant
        double backlog = static_cast<double>(submitted - consumed);
        tally.staleness_sum += backlog;
        tally.staleness_max = std::max(tally.staleness_max, backlog);
        std::this_thread::yield();  // keep the writer schedulable on small hosts
      }
    });
  }

  for (int t = 0; t < opts.num_submitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t retries = 0;
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!OwnsOp(ops[i], t, opts.num_submitters)) continue;
        auto submit = [&] {
          return ops[i].is_insert
                     ? service.SubmitInsert(ops[i].id,
                                            workload.data().Get(ops[i].id))
                     : service.SubmitDelete(ops[i].id);
        };
        Status st = opts.retry_submits
                        ? RetryTransient(opts.submit_retry, &retries, submit)
                        : submit();
        if (!st.ok()) {
          submit_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (retries > 0) {
        submit_retries.fetch_add(retries, std::memory_order_relaxed);
      }
    });
  }

  // Join submitters (they were appended after the readers).
  for (size_t i = static_cast<size_t>(opts.num_readers); i < threads.size();
       ++i) {
    threads[i].join();
  }
  Status flushed = service.Flush();
  FDRMS_CHECK(flushed.ok()) << flushed.ToString();
  const double wall_seconds = wall.ElapsedSeconds();
  readers_stop.store(true, std::memory_order_release);
  for (int t = 0; t < opts.num_readers; ++t) threads[t].join();
  Status stopped = service.Stop(FdRmsService::StopPolicy::kDrain);
  FDRMS_CHECK(stopped.ok()) << stopped.ToString();

  ServiceLoadResult result;
  std::shared_ptr<const ResultSnapshot> last = service.Query();
  result.ops_submitted = service.ops_submitted();
  result.ops_applied = last->ops_applied;
  result.ops_rejected = last->ops_rejected;
  result.submit_failures = submit_failures.load();
  result.submit_retries = submit_retries.load();
  result.batches = last->batches;
  result.wall_seconds = wall_seconds;
  result.writer_busy_seconds = last->writer_busy_seconds;
  result.final_version = last->version;
  result.final_result_size = static_cast<int>(last->ids.size());
  result.final_m = last->sample_size_m;
  if (wall_seconds > 0.0) {
    result.update_throughput =
        static_cast<double>(result.ops_applied) / wall_seconds;
  }
  uint64_t total_queries = 0;
  double staleness_sum = 0.0;
  for (const ReaderTally& tally : tallies) {
    total_queries += tally.queries;
    staleness_sum += tally.staleness_sum;
    result.max_staleness_ops =
        std::max(result.max_staleness_ops, tally.staleness_max);
    result.consistent = result.consistent && tally.consistent;
  }
  result.queries = total_queries;
  if (wall_seconds > 0.0) {
    result.query_throughput =
        static_cast<double>(total_queries) / wall_seconds;
  }
  if (total_queries > 0) {
    result.mean_staleness_ops =
        staleness_sum / static_cast<double>(total_queries);
  }
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::Labels& labels = service.options().metrics_labels;
  if (const obs::MetricSnapshot* lat =
          scrape.Find("fdrms_publish_latency_us", labels)) {
    result.publish_p50_us = lat->Quantile(0.50);
    result.publish_p90_us = lat->Quantile(0.90);
    result.publish_p99_us = lat->Quantile(0.99);
    result.publish_p999_us = lat->Quantile(0.999);
  }
  if (const obs::MetricSnapshot* depth =
          scrape.Find("fdrms_queue_depth_pow2", labels)) {
    result.queue_depth_p50 = depth->Quantile(0.50);
    result.queue_depth_p99 = depth->Quantile(0.99);
  }
  if (const obs::MetricSnapshot* sizes =
          scrape.Find("fdrms_batch_size_pow2", labels)) {
    result.batch_size_hist = sizes->buckets;
  }
  result.prometheus_text = obs::PrometheusText(scrape);
  result.json_text = obs::JsonText(scrape);
  result.debug_text = service.DebugString();
  return result;
}

namespace {

/// Bound on each wait of the fault drill's hand-off between the drill
/// thread and the submitters: long enough for a loaded sanitizer build,
/// short enough that a kill that never lands still ends the run.
constexpr double kDrillWaitSeconds = 10.0;

/// Yields until `done()` holds or `seconds` have passed.
template <typename Pred>
void WaitFor(double seconds, Pred done) {
  Stopwatch waited;
  while (!done() && waited.ElapsedSeconds() < seconds) {
    std::this_thread::yield();
  }
}

/// Staleness/consistency tallies of one merged-snapshot reader thread.
struct ShardedReaderTally {
  uint64_t queries = 0;
  uint64_t null_queries = 0;
  uint64_t degraded_queries = 0;  ///< merged reads flagged degraded
  int max_degraded_shards = 0;
  double staleness_sum = 0.0;
  double staleness_max = 0.0;
  std::vector<double> per_shard_staleness_sum;
  bool consistent = true;
};

}  // namespace

ShardedLoadResult RunShardedLoad(const Workload& workload,
                                 const ShardedLoadOptions& opts) {
  FDRMS_CHECK(opts.num_readers >= 0);
  FDRMS_CHECK(opts.num_submitters >= 1);
  const int num_shards = opts.service.num_shards;
  // The SLO controller is a second source of topology changes: when its
  // topology actuator is live, the shard set can grow or shrink at any
  // moment the signals say so, exactly like configured migration events.
  const bool controller_topology =
      opts.enable_slo_controller && opts.slo.enable_topology;
  // A resume run's restored counters (applied ops carried over from the
  // previous process) sit ahead of this process's submitted count, so the
  // backlog arithmetic below is meaningless there — skip it like a
  // changing topology.
  // A fault drill swaps a dead shard instance for a fresh one: the retired
  // incarnation's lifetime counters stay in the aggregate while the
  // successor's restart at zero, so the fixed-topology backlog identities
  // stop holding even though the shard *count* never changes.
  const bool fixed_topology = opts.migrations.empty() &&
                              !controller_topology && !opts.resume &&
                              !opts.fault.enabled;
  // Staleness is derived from service.ops_submitted() (which keeps counting
  // retired shards, monotone) minus the merged view's consumed ops (live
  // shards only). Once a shard retires, its lifetime op count inflates that
  // difference forever, so runs with kRemoveShard events (or a controller
  // that may scale down) skip the staleness tally instead of reporting a
  // phantom backlog.
  bool track_staleness =
      !controller_topology && !opts.resume && !opts.fault.enabled;
  for (const ShardedLoadOptions::MigrationEvent& event : opts.migrations) {
    if (event.kind == ShardedLoadOptions::MigrationEvent::Kind::kRemoveShard) {
      track_staleness = false;
    }
  }

  ShardedFdRmsService service(workload.data().dim(), opts.service);
  std::vector<std::pair<int, Point>> initial;
  if (!opts.resume) {
    // A resume run restores P_0's successor state from the manifest; bulk
    // loading it again would double-apply the initial tuples.
    initial.reserve(workload.initial_ids().size());
    for (int id : workload.initial_ids()) {
      initial.emplace_back(id, workload.data().Get(id));
    }
  }
  Status started = service.Start(initial);
  FDRMS_CHECK(started.ok()) << started.ToString();
  const bool resumed = service.resumed();
  const uint64_t resume_epoch = resumed ? service.epoch() : 0;
  const int resume_num_shards = resumed ? service.num_shards() : 0;

  // On resume the manifest, not the options, decides the starting count.
  const int base_shards = resumed ? resume_num_shards : num_shards;

  // Upper bound of the live shard count over the run (AddShard events can
  // only grow it one at a time) — the merged result bound scales with it.
  int max_shards = base_shards;
  for (const ShardedLoadOptions::MigrationEvent& event : opts.migrations) {
    if (event.kind == ShardedLoadOptions::MigrationEvent::Kind::kAddShard) {
      ++max_shards;
    }
  }
  if (controller_topology) {
    max_shards = std::max(max_shards, opts.slo.max_shards);
  }
  const std::vector<Operation>& ops = workload.operations();
  // Paced arrivals: per-op scheduled instants against the shared wall
  // clock; empty = submit full speed.
  const std::vector<double> arrival_at =
      BuildArrivalSchedule(opts.arrival, ops.size());
  std::atomic<bool> readers_stop{false};
  std::atomic<uint64_t> submit_failures{0};
  std::atomic<uint64_t> submit_retries{0};
  std::atomic<uint64_t> unavailable_submits{0};
  // Workload operations pushed so far (excludes migration-internal ops, so
  // the controller's event fractions track the stream, not the churn).
  std::atomic<uint64_t> workload_submitted{0};
  std::atomic<bool> submitters_done{false};
  // Fault drill progress (see the drill thread below): the kill is armed;
  // the stream past the kill point may go on (the death landed, or its
  // wait ran out); a reader has seen a degraded merged view.
  std::atomic<bool> drill_armed{false};
  std::atomic<bool> drill_released{false};
  std::atomic<bool> degraded_seen{false};
  const uint64_t drill_kill_at =
      opts.fault.enabled
          ? static_cast<uint64_t>(opts.fault.kill_at_fraction *
                                  static_cast<double>(ops.size()))
          : ops.size();

  std::vector<ShardedReaderTally> tallies(
      static_cast<size_t>(std::max(opts.num_readers, 0)));
  for (ShardedReaderTally& tally : tallies) {
    tally.per_shard_staleness_sum.assign(static_cast<size_t>(base_shards),
                                         0.0);
  }
  std::vector<std::thread> threads;
  Stopwatch wall;

  for (int t = 0; t < opts.num_readers; ++t) {
    threads.emplace_back([&, t] {
      ShardedReaderTally& tally = tallies[t];
      uint64_t last_epoch = 0;
      std::vector<uint64_t> last_versions;
      bool first = true;
      while (!readers_stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const MergedSnapshot> snap = service.Query();
        ++tally.queries;
        if (snap == nullptr) {
          // Null is only legal before every shard published version 0;
          // once a reader has seen a merged view, a later null is a
          // serving error (migrations must never block or fail reads).
          if (!first) {
            ++tally.null_queries;
            tally.consistent = false;
          }
          std::this_thread::yield();
          continue;
        }
        if (snap->versions.size() != snap->shards.size()) {
          tally.consistent = false;
        }
        if (snap->degraded_shards > 0) {
          degraded_seen.store(true, std::memory_order_relaxed);
          ++tally.degraded_queries;
          tally.max_degraded_shards =
              std::max(tally.max_degraded_shards, snap->degraded_shards);
        }
        if (!first) {
          if (snap->epoch < last_epoch) tally.consistent = false;
          if (snap->epoch == last_epoch) {
            // Within an epoch the shard set is fixed: the vector keeps its
            // arity and advances component-wise.
            if (snap->versions.size() != last_versions.size()) {
              tally.consistent = false;
            } else {
              for (size_t s = 0; s < snap->versions.size(); ++s) {
                if (snap->versions[s] < last_versions[s]) {
                  tally.consistent = false;
                }
              }
            }
          }
        }
        last_epoch = snap->epoch;
        last_versions = snap->versions;
        const int result_bound =
            opts.service.merged_budget_r > 0
                ? opts.service.merged_budget_r
                : max_shards * opts.service.shard.algo.r;
        if (static_cast<int>(snap->ids.size()) > result_bound) {
          tally.consistent = false;
        }
        if (snap->ids.size() != snap->points.size()) tally.consistent = false;
        if (!std::is_sorted(snap->ids.begin(), snap->ids.end()) ||
            std::adjacent_find(snap->ids.begin(), snap->ids.end()) !=
                snap->ids.end()) {
          tally.consistent = false;
        }
        // Aggregate backlog: ops accepted anywhere (monotone, includes
        // retired shards) minus ops this view has consumed.
        if (track_staleness) {
          uint64_t submitted = service.ops_submitted();
          uint64_t consumed = snap->ops_applied + snap->ops_rejected;
          if (submitted >= consumed) {
            double backlog = static_cast<double>(submitted - consumed);
            tally.staleness_sum += backlog;
            tally.staleness_max = std::max(tally.staleness_max, backlog);
          } else if (fixed_topology) {
            tally.consistent = false;  // invariant under a fixed shard set
          }
        }
        if (fixed_topology) {
          for (int s = 0; s < base_shards; ++s) {
            uint64_t shard_submitted = service.shard(s).ops_submitted();
            uint64_t shard_consumed = snap->shards[s]->ops_applied +
                                      snap->shards[s]->ops_rejected;
            if (shard_submitted < shard_consumed) tally.consistent = false;
            tally.per_shard_staleness_sum[s] +=
                static_cast<double>(shard_submitted - shard_consumed);
          }
        }
        first = false;
        std::this_thread::yield();  // keep the writers schedulable
      }
    });
  }

  for (int t = 0; t < opts.num_submitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t retries = 0;
      bool submitted_since_arm = false;
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!OwnsOp(ops[i], t, opts.num_submitters)) continue;
        if (!arrival_at.empty()) WaitUntil(wall, arrival_at[i]);
        if (i >= drill_kill_at &&
            !drill_released.load(std::memory_order_acquire)) {
          // Past the kill point the stream waits for the drill: one op
          // after the arm gives a writer a batch to die on, and the rest
          // wait for the death, so dead-shard submits are refused however
          // the threads are scheduled.
          WaitFor(kDrillWaitSeconds, [&] {
            return drill_armed.load(std::memory_order_acquire);
          });
          if (submitted_since_arm) {
            WaitFor(kDrillWaitSeconds, [&] {
              return drill_released.load(std::memory_order_acquire);
            });
          }
          submitted_since_arm = true;
        }
        auto submit = [&] {
          return ops[i].is_insert
                     ? service.SubmitInsert(ops[i].id,
                                            workload.data().Get(ops[i].id))
                     : service.SubmitDelete(ops[i].id);
        };
        Status st = opts.retry_submits
                        ? RetryTransient(opts.submit_retry, &retries, submit)
                        : submit();
        if (!st.ok()) {
          submit_failures.fetch_add(1, std::memory_order_relaxed);
          if (st.code() == StatusCode::kUnavailable) {
            unavailable_submits.fetch_add(1, std::memory_order_relaxed);
          }
        }
        workload_submitted.fetch_add(1, std::memory_order_relaxed);
      }
      if (retries > 0) {
        submit_retries.fetch_add(retries, std::memory_order_relaxed);
      }
    });
  }

  // The SLO control loop runs for the submission phase only: it is stopped
  // before the final drain, so end-of-run slack (the queue emptying once
  // the stream ends) can't read as sustained idleness and scale the
  // constellation back down under the assertions' feet.
  std::unique_ptr<control::ShardedServiceActuator> actuator;
  std::unique_ptr<control::SloController> slo_controller;
  if (opts.enable_slo_controller) {
    actuator = std::make_unique<control::ShardedServiceActuator>(&service);
    slo_controller = std::make_unique<control::SloController>(
        service.registry(), actuator.get(), opts.slo);
    slo_controller->Start();
  }

  // Controller: fires the topology events at their stream fractions while
  // the submitters churn.
  ShardedLoadResult result;
  std::thread controller;
  if (!fixed_topology) {
    controller = std::thread([&] {
      using Kind = ShardedLoadOptions::MigrationEvent::Kind;
      for (const ShardedLoadOptions::MigrationEvent& event : opts.migrations) {
        const uint64_t threshold = static_cast<uint64_t>(
            event.at_fraction * static_cast<double>(ops.size()));
        while (workload_submitted.load(std::memory_order_relaxed) < threshold &&
               !submitters_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::shared_ptr<const MergedSnapshot> before = service.Query();
        Stopwatch timer;
        Status st;
        switch (event.kind) {
          case Kind::kAddShard:
            st = service.AddShard();
            break;
          case Kind::kRemoveShard:
            st = service.RemoveShard();
            break;
        }
        const double seconds = timer.ElapsedSeconds();
        std::shared_ptr<const MergedSnapshot> after = service.Query();
        ++result.migrations_attempted;
        if (!st.ok()) ++result.migrations_failed;
        result.migration_seconds.push_back(seconds);
        result.migration_seconds_total += seconds;
        if (before != nullptr && after != nullptr && seconds > 0.0 &&
            after->ops_applied >= before->ops_applied) {
          // Aggregated below into migration_update_throughput.
          result.migration_update_throughput +=
              static_cast<double>(after->ops_applied - before->ops_applied);
        }
      }
    });
  }

  // Fault drill: arm a one-shot writer death once the stream crosses the
  // kill fraction (the next shard writer to apply a batch dies). The
  // submitters hold the rest of the stream until the death lands (bounded
  // waits, see above). The drill then waits until a submit to the dead
  // shard was refused and a reader saw the degraded view, so the outage is
  // observed whatever the pacing, and revives at the revive fraction
  // (or, by the caller, at the end of the stream).
  std::thread drill;
  std::atomic<int> drill_revived{0};
  if (opts.fault.enabled) {
    drill = std::thread([&] {
      while (workload_submitted.load(std::memory_order_relaxed) <
                 drill_kill_at &&
             !submitters_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      FaultSpec die;
      die.kind = FaultKind::kDie;
      FaultPoints::Arm("writer.apply.pre", die);
      drill_armed.store(true, std::memory_order_release);
      WaitFor(kDrillWaitSeconds, [&] {
        return service.num_unhealthy() > 0 ||
               submitters_done.load(std::memory_order_acquire);
      });
      drill_released.store(true, std::memory_order_release);
      WaitFor(kDrillWaitSeconds, [&] {
        const bool refused =
            unavailable_submits.load(std::memory_order_relaxed) > 0 ||
            submitters_done.load(std::memory_order_acquire);
        const bool read = opts.num_readers <= 0 ||
                          degraded_seen.load(std::memory_order_relaxed);
        return service.num_unhealthy() == 0 || (refused && read);
      });
      if (opts.fault.revive_at_fraction >= 0.0) {
        const uint64_t revive_at = static_cast<uint64_t>(
            opts.fault.revive_at_fraction * static_cast<double>(ops.size()));
        while (workload_submitted.load(std::memory_order_relaxed) <
                   revive_at &&
               !submitters_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        drill_revived.fetch_add(service.ReviveDeadShards(),
                                std::memory_order_relaxed);
      }
    });
  }

  // Join submitters (they were appended after the readers).
  for (size_t i = static_cast<size_t>(opts.num_readers); i < threads.size();
       ++i) {
    threads[i].join();
  }
  submitters_done.store(true, std::memory_order_release);
  if (controller.joinable()) controller.join();
  if (drill.joinable()) drill.join();
  if (opts.fault.enabled) {
    // Always hand back a healthy constellation: clear any unconsumed arm
    // (the Flush below must not kill a writer), then revive whatever is
    // still dead so the final drain doesn't fail kUnavailable.
    FaultPoints::Reset();
    drill_revived.fetch_add(service.ReviveDeadShards(),
                            std::memory_order_relaxed);
    result.shards_revived = drill_revived.load();
    result.revive_ok = service.num_unhealthy() == 0;
  }
  if (slo_controller != nullptr) {
    slo_controller->Stop();
    result.controller_debug_text = slo_controller->DebugString();
  }
  Status flushed = service.Flush();
  FDRMS_CHECK(flushed.ok()) << flushed.ToString();
  const double wall_seconds = wall.ElapsedSeconds();
  readers_stop.store(true, std::memory_order_release);
  for (int t = 0; t < opts.num_readers; ++t) threads[t].join();
  Status stopped = service.Stop(FdRmsService::StopPolicy::kDrain);
  FDRMS_CHECK(stopped.ok()) << stopped.ToString();

  std::shared_ptr<const MergedSnapshot> last = service.Query();
  FDRMS_CHECK(last != nullptr);
  const int final_shards = static_cast<int>(last->shards.size());
  result.ops_submitted = service.ops_submitted();
  result.ops_applied = last->ops_applied;
  result.ops_rejected = last->ops_rejected;
  result.submit_failures = submit_failures.load();
  result.submit_retries = submit_retries.load();
  result.unavailable_submits = unavailable_submits.load();
  result.batches = last->batches;
  result.wall_seconds = wall_seconds;
  result.final_versions = last->versions;
  result.final_result_size = static_cast<int>(last->ids.size());
  result.final_union_size = last->union_size;
  result.final_min_m = last->min_sample_size_m;
  result.final_epoch = last->epoch;
  result.final_num_shards = final_shards;
  result.resumed = resumed;
  result.resume_epoch = resume_epoch;
  result.resume_num_shards = resume_num_shards;
  for (int s = 0; s < final_shards; ++s) {
    result.per_shard_applied.push_back(last->shards[s]->ops_applied);
    result.per_shard_busy_seconds.push_back(
        last->shards[s]->writer_busy_seconds);
  }
  if (wall_seconds > 0.0) {
    result.update_throughput =
        static_cast<double>(result.ops_applied) / wall_seconds;
  }
  if (result.migration_seconds_total > 0.0) {
    result.migration_update_throughput /= result.migration_seconds_total;
  }
  if (last->writer_busy_seconds_max > 0.0) {
    result.update_capacity = static_cast<double>(result.ops_applied) /
                             last->writer_busy_seconds_max;
  }
  uint64_t total_queries = 0;
  double staleness_sum = 0.0;
  result.per_shard_mean_staleness.assign(static_cast<size_t>(base_shards),
                                         0.0);
  for (const ShardedReaderTally& tally : tallies) {
    total_queries += tally.queries;
    result.null_queries += tally.null_queries;
    result.degraded_queries += tally.degraded_queries;
    result.max_degraded_shards =
        std::max(result.max_degraded_shards, tally.max_degraded_shards);
    staleness_sum += tally.staleness_sum;
    result.max_staleness_ops =
        std::max(result.max_staleness_ops, tally.staleness_max);
    for (int s = 0; s < base_shards; ++s) {
      result.per_shard_mean_staleness[s] += tally.per_shard_staleness_sum[s];
    }
    result.consistent = result.consistent && tally.consistent;
  }
  result.queries = total_queries;
  if (wall_seconds > 0.0) {
    result.query_throughput =
        static_cast<double>(total_queries) / wall_seconds;
  }
  if (total_queries > 0) {
    result.mean_staleness_ops =
        staleness_sum / static_cast<double>(total_queries);
    for (double& s : result.per_shard_mean_staleness) {
      s /= static_cast<double>(total_queries);
    }
  }
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  auto counter = [&scrape](const char* name) -> uint64_t {
    const obs::MetricSnapshot* m = scrape.Find(name);
    return m != nullptr ? m->counter_value : 0;
  };
  result.merge_cache_hits = counter("fdrms_merge_cache_hits_total");
  result.merge_cache_misses = counter("fdrms_merge_cache_misses_total");
  result.merge_recovers = counter("fdrms_merge_recovers_total");
  for (int s = 0; s < service.num_shards(); ++s) {
    if (const obs::MetricSnapshot* lat =
            scrape.Find("fdrms_publish_latency_us",
                        service.shard(s).options().metrics_labels)) {
      result.publish_p50_us = std::max(result.publish_p50_us,
                                       lat->Quantile(0.50));
      result.publish_p99_us = std::max(result.publish_p99_us,
                                       lat->Quantile(0.99));
    }
  }
  if (opts.enable_slo_controller) {
    auto gauge = [&scrape](const char* name) -> double {
      const obs::MetricSnapshot* m = scrape.Find(name);
      return m != nullptr ? m->gauge_value : 0.0;
    };
    result.control_ticks = counter("control_ticks_total");
    result.control_decisions = counter("control_decisions_total");
    result.control_scale_ups = counter("control_scale_ups_total");
    result.control_scale_downs = counter("control_scale_downs_total");
    result.control_scale_failures = counter("control_scale_failures_total");
    result.control_batch_adjustments =
        counter("control_batch_adjustments_total");
    result.control_publish_p99_window_us =
        gauge("control_publish_p99_window_us");
    result.control_slo_violation_seconds =
        gauge("control_slo_violation_seconds");
  }
  result.writer_restarts = counter("fdrms_shard_writer_restarts_total");
  // Counter, not a trace scan: the ring is fixed-size, and a death early in
  // a long run gets overwritten by writer/merge events before the scrape.
  result.shards_killed =
      static_cast<int>(counter("fdrms_shard_deaths_total"));
  for (const obs::TraceEvent& event : scrape.trace) {
    if (event.name.rfind("migration.", 0) == 0) {
      result.migration_trace.push_back(event);
    }
    if (event.name.rfind("control.", 0) == 0) {
      result.control_trace.push_back(event);
    }
    if (event.name == "shard.unhealthy" || event.name == "shard.revive") {
      result.fault_trace.push_back(event);
    }
  }
  result.prometheus_text = obs::PrometheusText(scrape);
  result.json_text = obs::JsonText(scrape);
  result.debug_text = service.DebugString();
  return result;
}

}  // namespace fdrms
