#ifndef FDRMS_EVAL_SERVICE_DRIVER_H_
#define FDRMS_EVAL_SERVICE_DRIVER_H_

/// \file service_driver.h
/// Closed-loop load harnesses for the concurrent serving layer: M submitter
/// threads replay a Workload's operation stream through FdRmsService (or a
/// ShardedFdRmsService) while N reader threads hammer Query(), and the
/// driver reports update/query throughput plus the snapshot staleness
/// readers actually observed. Used by bench_concurrent/bench_sharded and
/// the serve/shard tests; deterministic in the *set* of operations applied
/// (the interleaving is scheduler-chosen).

#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "control/slo_controller.h"
#include "eval/workload.h"
#include "obs/trace.h"
#include "serve/fdrms_service.h"
#include "shard/sharded_service.h"

namespace fdrms {

/// One segment of a paced arrival schedule: `ops_fraction` of the op
/// stream submitted at an aggregate `ops_per_sec` target rate. Fractions
/// should sum to ~1 (the last phase absorbs rounding). An empty schedule
/// means full speed (the pre-pacing behavior).
struct ArrivalPhase {
  double ops_fraction = 1.0;
  double ops_per_sec = 0.0;  ///< <= 0 means unpaced within the phase
};

/// Flash-crowd arrival: baseline -> `burst_multiplier`x burst over
/// `burst_fraction` of the stream -> baseline tail. The tail keeps traffic
/// flowing after the crowd so post-recovery windows (the "did p99 come
/// back under the SLO" check) measure a served system, not silence.
std::vector<ArrivalPhase> FlashCrowdArrival(double base_ops_per_sec,
                                            double burst_multiplier = 8.0,
                                            double burst_fraction = 0.4);

/// Diurnal arrival: `cycles` piecewise-sinusoid day cycles, each sampled
/// at `phases_per_cycle` plateaus swinging rate between
/// base*(1-amplitude) and base*(1+amplitude).
std::vector<ArrivalPhase> DiurnalArrival(double base_ops_per_sec,
                                         int cycles = 2,
                                         int phases_per_cycle = 8,
                                         double amplitude = 0.75);

/// Shape of one load run.
struct ServiceLoadOptions {
  int num_readers = 4;     ///< Query() threads
  int num_submitters = 2;  ///< threads splitting the workload's op stream
  FdRmsServiceOptions service;

  /// Transient-submit retry (common/retry.h): when enabled, a submitter
  /// retries kResourceExhausted/kUnavailable with bounded exponential
  /// backoff before counting a submit failure. Off by default so
  /// saturation tests still observe raw rejection counts.
  bool retry_submits = false;
  RetryPolicy submit_retry;
};

/// What happened during the run.
struct ServiceLoadResult {
  // Volume.
  uint64_t ops_submitted = 0;
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;   ///< consumed but refused by the algorithm
  uint64_t submit_failures = 0;  ///< kResourceExhausted under Overflow::kReject
  uint64_t submit_retries = 0;   ///< re-submissions (retry_submits only)
  uint64_t queries = 0;
  uint64_t batches = 0;

  // Rates (walls include initialization of neither side: the clock starts
  // when the threads launch and stops when the queue is drained).
  double wall_seconds = 0.0;
  double update_throughput = 0.0;  ///< applied ops / second
  double query_throughput = 0.0;   ///< snapshot reads / second

  // Staleness: queue backlog (submitted - consumed) observed at each read.
  double mean_staleness_ops = 0.0;
  double max_staleness_ops = 0.0;

  // Writer-side cost of the run: cumulative apply CPU seconds, then batch
  // publication latency quantiles (µs) interpolated from the service's
  // fdrms_publish_latency_us histogram at the final scrape.
  double writer_busy_seconds = 0.0;
  double publish_p50_us = 0.0;
  double publish_p99_us = 0.0;
  double publish_p90_us = 0.0;
  double publish_p999_us = 0.0;

  // Batching telemetry from the final scrape: queue-depth quantiles
  // (operations, bucket floors of fdrms_queue_depth_pow2) and the
  // cumulative fdrms_batch_size_pow2 histogram (see obs::Pow2HistBucket
  // for the bucket scheme).
  double queue_depth_p50 = 0.0;
  double queue_depth_p99 = 0.0;
  std::vector<uint64_t> batch_size_hist;

  // Final state.
  uint64_t final_version = 0;
  int final_result_size = 0;
  int final_m = 0;

  /// Every reader saw monotone versions, sorted unique ids, |Q| <= r, and
  /// ids/points parallel; false flags a serving-layer consistency bug.
  bool consistent = true;

  // One consistent scrape of the service's registry, taken after Stop():
  // Prometheus text exposition, the JSON dump, and the human status page.
  // What a monitoring agent would have collected at the end of the run.
  std::string prometheus_text;
  std::string json_text;
  std::string debug_text;
};

/// Replays `workload` through a service built from `opts.service` (initial
/// tuples = the workload's P_0; submitter t takes, in stream order, the
/// operations whose id % num_submitters == t, so each id's insert precedes
/// its delete) and measures. The service is drained and stopped before
/// returning.
ServiceLoadResult RunServiceLoad(const Workload& workload,
                                 const ServiceLoadOptions& opts);

/// Shape of one sharded load run.
struct ShardedLoadOptions {
  int num_readers = 4;     ///< merged-Query() threads
  int num_submitters = 2;  ///< threads splitting the workload's op stream
  ShardedServiceOptions service;

  /// One topology event fired while the load runs: when the submitters
  /// have pushed `at_fraction` of the workload's operations, the driver's
  /// controller thread calls AddShard or RemoveShard on the live service.
  /// Events fire in the given order (sort fractions ascending for sane
  /// timings).
  struct MigrationEvent {
    enum class Kind { kAddShard, kRemoveShard };
    Kind kind = Kind::kAddShard;
    double at_fraction = 0.5;
  };
  std::vector<MigrationEvent> migrations;

  /// Paced submission schedule (see ArrivalPhase); empty = full speed.
  /// Submitters share one wall clock and sleep until each operation's
  /// scheduled instant, so the aggregate rate tracks the phase targets.
  std::vector<ArrivalPhase> arrival;

  /// Closed-loop control: when enabled, an SloController (driving the
  /// live service through a ShardedServiceActuator) runs for the duration
  /// of the submission phase. Its control_* series and control.* trace
  /// events land in the same registry the result scrapes.
  bool enable_slo_controller = false;
  control::SloControllerOptions slo;

  /// Resume instead of bulk-loading: Start() restores the topology from
  /// the constellation manifest at service.shard.resume_path (which the
  /// caller must set, equal to persist_path) and the workload's P_0 is NOT
  /// loaded — the persisted state stands in for it. The op stream still
  /// replays on top.
  bool resume = false;

  /// Transient-submit retry (common/retry.h): when enabled, a submitter
  /// retries kResourceExhausted/kUnavailable with bounded exponential
  /// backoff before counting a submit failure. Off by default so
  /// saturation tests still observe raw rejection counts.
  bool retry_submits = false;
  RetryPolicy submit_retry;

  /// Kill-a-shard-writer drill: when the submitters have pushed
  /// `kill_at_fraction` of the op stream, the driver arms a one-shot
  /// writer-death fault ("writer.apply.pre", FaultKind::kDie) — the next
  /// shard writer to drain a batch dies. Past the kill point the
  /// submitters wait for the death (each wait bounded at 10 s), and the
  /// shard stays dead at least until a submit to it was refused and a
  /// reader saw the degraded view, whatever the pacing. Readers tally
  /// degraded merged reads (the dead shard's last snapshot keeps serving)
  /// until RunShardedLoad calls ReviveDeadShards() at `revive_at_fraction`.
  /// Any shard still dead after the submitters finish is revived before the
  /// final drain, and the leftover fault arms are cleared, so the run
  /// always ends on a healthy constellation.
  struct FaultDrill {
    bool enabled = false;
    double kill_at_fraction = 0.4;
    double revive_at_fraction = 0.75;  ///< < 0: revive only at end of stream
  };
  FaultDrill fault;
};

/// What happened during a sharded run.
struct ShardedLoadResult {
  // Volume (summed across shards).
  uint64_t ops_submitted = 0;
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;
  uint64_t submit_failures = 0;
  uint64_t submit_retries = 0;       ///< re-submissions (retry_submits only)
  uint64_t unavailable_submits = 0;  ///< submits that failed kUnavailable
  uint64_t queries = 0;
  uint64_t batches = 0;

  // Rates. `update_throughput` is measured wall-clock (applied ops /
  // second, all shards sharing this host's cores); `update_capacity` is
  // applied ops / the slowest shard's measured writer CPU seconds — the
  // rate a deployment with one core per writer sustains, since each writer
  // then owns a core and the critical path is the busiest shard. On a
  // single-core host wall throughput cannot scale with S but capacity
  // does; on an >= S core host the two converge.
  double wall_seconds = 0.0;
  double update_throughput = 0.0;
  double update_capacity = 0.0;
  double query_throughput = 0.0;

  // Staleness in queue-backlog operations observed at each merged read:
  // aggregate (submitted-but-unconsumed ops at read time) and per shard.
  // The per-shard breakdown is only populated when the run has no
  // migration events (a changing topology has no stable shard indexing),
  // and the aggregate is zeroed when a kRemoveShard event is configured (a
  // retired shard's lifetime op count would inflate the backlog forever).
  double mean_staleness_ops = 0.0;
  double max_staleness_ops = 0.0;
  std::vector<double> per_shard_mean_staleness;

  // Topology events (zero when no migrations were configured).
  uint64_t migrations_attempted = 0;
  uint64_t migrations_failed = 0;
  double migration_seconds_total = 0.0;  ///< wall time inside the calls
  std::vector<double> migration_seconds;  ///< per event, in firing order
  /// Applied-ops throughput measured across the migration windows only —
  /// compare against update_throughput for the dip a migration costs.
  /// (Counts include the migration's own replayed operations.)
  double migration_update_throughput = 0.0;
  uint64_t final_epoch = 0;
  int final_num_shards = 0;
  /// Resume outcome (resume runs only): Start() restored from a manifest,
  /// and the epoch/shard count it came back with before any new traffic.
  bool resumed = false;
  uint64_t resume_epoch = 0;
  int resume_num_shards = 0;
  /// Merged reads that returned nullptr after the service was up — must
  /// stay 0: a live migration never blocks or errors a read, and a dead
  /// shard's last snapshot keeps the merge serving through an outage.
  uint64_t null_queries = 0;

  // Fault-drill outcome (zeroed unless opts.fault.enabled). The degraded
  // tallies come from the readers (merged snapshots whose degraded
  // annotation was set); the kill/revive counts from the drill thread.
  uint64_t degraded_queries = 0;  ///< merged reads flagged degraded
  int max_degraded_shards = 0;    ///< worst simultaneous degraded count seen
  int shards_killed = 0;          ///< writers observed dead during the run
  int shards_revived = 0;         ///< ReviveDeadShards successes
  bool revive_ok = true;          ///< constellation healthy at final drain
  uint64_t writer_restarts = 0;   ///< fdrms_shard_writer_restarts_total
  /// Fault-domain lifecycle trace ("shard.unhealthy"/"shard.revive"
  /// events), oldest first.
  std::vector<obs::TraceEvent> fault_trace;

  // Per-shard load balance and cost.
  std::vector<uint64_t> per_shard_applied;
  std::vector<double> per_shard_busy_seconds;
  double publish_p50_us = 0.0;  ///< worst final shard, final scrape
  double publish_p99_us = 0.0;

  // Final merged state.
  std::vector<uint64_t> final_versions;
  int final_result_size = 0;
  size_t final_union_size = 0;
  int final_min_m = 0;

  /// Every reader saw component-wise monotone version vectors, sorted
  /// unique ids, parallel ids/points, and |Q| within the merge budget.
  bool consistent = true;

  // Read-path cache behaviour over the run (constellation registry
  // counters: hits answer from the cached merge, misses rebuild it,
  // recovers additionally ran the greedy re-cover).
  uint64_t merge_cache_hits = 0;
  uint64_t merge_cache_misses = 0;
  uint64_t merge_recovers = 0;

  // Migration lifecycle trace ("migration.freeze/drain/replay/cutover"
  // events with start/duration and epoch/count args), oldest first —
  // one freeze/drain/replay/cutover quadruple per successful epoch.
  std::vector<obs::TraceEvent> migration_trace;

  // SLO controller outcome (zeroed unless enable_slo_controller): decision
  // counters scraped from the control_* family, the last non-empty
  // window's publish p99, the controller's own decision trace
  // ("control.scale_up/scale_down/scale_fail/batch_raise/batch_lower"),
  // and its status page at shutdown.
  uint64_t control_ticks = 0;
  uint64_t control_decisions = 0;
  uint64_t control_scale_ups = 0;
  uint64_t control_scale_downs = 0;
  uint64_t control_scale_failures = 0;
  uint64_t control_batch_adjustments = 0;
  double control_publish_p99_window_us = 0.0;
  double control_slo_violation_seconds = 0.0;
  std::vector<obs::TraceEvent> control_trace;
  std::string controller_debug_text;

  // One consistent scrape of the constellation's registry after Stop():
  // per-shard series (labelled shard="i") plus the sharded layer's own,
  // and the constellation's DebugString() status page.
  std::string prometheus_text;
  std::string json_text;
  std::string debug_text;
};

/// Replays `workload` through a ShardedFdRmsService built from
/// `opts.service`. Same protocol as RunServiceLoad: initial tuples are the
/// workload's P_0 (routed across shards), operations are split across
/// submitters by id, readers hammer the merged Query(). Drained and stopped
/// before returning.
ShardedLoadResult RunShardedLoad(const Workload& workload,
                                 const ShardedLoadOptions& opts);

}  // namespace fdrms

#endif  // FDRMS_EVAL_SERVICE_DRIVER_H_
