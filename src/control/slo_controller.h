#ifndef FDRMS_CONTROL_SLO_CONTROLLER_H_
#define FDRMS_CONTROL_SLO_CONTROLLER_H_

/// \file slo_controller.h
/// The loop-closer over the observability substrate: a controller thread
/// that periodically snapshots the constellation's MetricRegistry, derives
/// windowed signals with obs::SnapshotDelta, and steers the service toward
/// an explicit publish-latency SLO through two actuators:
///
///   topology — sustained per-shard writer utilization (windowed
///     fdrms_writer_busy_seconds / wall) or queue-depth saturation above
///     the high watermark triggers AddShard; sustained slack below the low
///     watermark (with the SLO met) triggers RemoveShard. Hysteresis bands,
///     a post-migration cooldown, and min/max shard clamps keep migration
///     cost from oscillating the fleet.
///
///   batching — the windowed publish p99 steers the constellation-wide
///     batch ceiling (FdRmsService::SetBatchBound): over the SLO the bound
///     halves (smaller batches publish sooner), under batch_raise_fraction
///     of the SLO it doubles back toward max_batch (amortize publication
///     cost while latency is cheap).
///
/// The controller is itself fully observable: every decision lands in the
/// registry as a `control_*` metric and a "control.*" TraceRing event, and
/// DebugString() renders an SLO status page. The decision core is the
/// side-effect-free-clocked Tick(snapshot, now_us) — tests drive it with
/// fabricated snapshots and a fake clock, no sleeps; Start()/Stop() wrap it
/// in the production polling thread.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/periodic_task.h"
#include "common/status.h"
#include "obs/registry.h"
#include "obs/snapshot_delta.h"
#include "shard/sharded_service.h"

namespace fdrms {
namespace control {

/// What the controller can do to the system under control. Split from
/// ShardedFdRmsService so decision-logic tests can substitute a fake that
/// records calls and fabricates cooldown stamps.
class SloActuator {
 public:
  virtual ~SloActuator() = default;
  virtual int num_shards() const = 0;
  virtual Status AddShard() = 0;
  virtual Status RemoveShard() = 0;
  /// Returns the clamped bound in force (FdRmsService::SetBatchBound).
  virtual size_t SetBatchBound(size_t bound) = 0;
  virtual size_t batch_bound() const = 0;
  /// Per-shard update-queue capacity (saturation is judged against it).
  virtual size_t queue_capacity() const = 0;
  /// Registry-clock stamp of the last completed topology change, 0 if
  /// none — covers operator-initiated migrations, not just the
  /// controller's own.
  virtual uint64_t last_topology_change_us() const = 0;

  /// Shards whose writer thread is dead. While nonzero the controller
  /// treats the constellation as a fault domain in flux: topology scaling
  /// pauses (a dead writer's utilization reads zero — every scale-down
  /// signal is a lie — and a migration touching it would fail anyway) and
  /// each tick records a "control.shard_unhealthy" trace event. Default 0
  /// for actuators without a health surface.
  virtual int num_unhealthy() const { return 0; }

  /// Revives every dead shard (ShardedFdRmsService::ReviveDeadShards);
  /// returns how many came back. Only called when
  /// SloControllerOptions::revive_unhealthy is set. Default no-op.
  virtual int ReviveDeadShards() { return 0; }
};

/// The production actuator: forwards to a live ShardedFdRmsService.
class ShardedServiceActuator : public SloActuator {
 public:
  explicit ShardedServiceActuator(ShardedFdRmsService* service)
      : service_(service) {}
  int num_shards() const override { return service_->num_shards(); }
  Status AddShard() override { return service_->AddShard(); }
  Status RemoveShard() override { return service_->RemoveShard(); }
  size_t SetBatchBound(size_t bound) override {
    return service_->SetBatchBound(bound);
  }
  size_t batch_bound() const override { return service_->batch_bound(); }
  size_t queue_capacity() const override {
    return service_->options().shard.queue_capacity;
  }
  uint64_t last_topology_change_us() const override {
    return service_->last_topology_change_us();
  }
  int num_unhealthy() const override { return service_->num_unhealthy(); }
  int ReviveDeadShards() override { return service_->ReviveDeadShards(); }

 private:
  ShardedFdRmsService* service_;
};

struct SloControllerOptions {
  /// The latency objective: windowed publish p99 (µs) the batching
  /// actuator steers against and the scale-down guard respects.
  double publish_p99_slo_us = 20000.0;

  /// Controller wakeup period (production thread; Tick itself is
  /// clock-free and tests call it directly).
  int tick_ms = 200;

  /// Topology watermarks on the busiest shard's windowed writer
  /// utilization (busy seconds per wall second, 0..1). The gap between
  /// them is the hysteresis band where topology holds.
  double high_utilization = 0.85;
  double low_utilization = 0.25;

  /// Queue-depth saturation: a shard whose depth reaches this fraction of
  /// queue_capacity() counts as saturated (scale-up signal even when CPU
  /// utilization alone looks fine, e.g. writers blocked on publication).
  double queue_saturation_fraction = 0.5;

  /// Consecutive ticks a watermark breach must sustain before the
  /// controller acts — one noisy window must not migrate the fleet.
  int sustain_ticks = 3;

  /// Quiet period after any completed topology change (the controller's
  /// own or an operator's) during which topology actions are suppressed:
  /// a migration's replay load must not trigger the next migration.
  uint64_t cooldown_us = 2000000;

  /// Clamp on the controller's topology authority.
  int min_shards = 1;
  int max_shards = 8;

  /// Batch bound raises (doubles) when the windowed p99 sits below this
  /// fraction of the SLO; between the fraction and the SLO it holds.
  double batch_raise_fraction = 0.5;

  /// Kill switches for each actuator (both on by default).
  bool enable_topology = true;
  bool enable_batching = true;

  /// Self-healing: when unhealthy shards are observed, call the actuator's
  /// ReviveDeadShards() (off by default — revive replays a backlog and
  /// commits a manifest, which an operator may want to own).
  bool revive_unhealthy = false;
};

/// One Tick's evaluation, returned for tests and rendered on the status
/// page. Signals are always populated; action fields say what was done.
struct SloDecision {
  double window_seconds = 0.0;
  double max_utilization = 0.0;    ///< busiest shard, windowed
  double max_queue_depth = 0.0;    ///< deepest live shard queue
  double publish_p99_us = 0.0;     ///< windowed, 0 when no publishes landed
  uint64_t window_publishes = 0;   ///< publish-latency observations in window
  bool slo_violated = false;       ///< p99 over SLO (non-empty window)
  bool in_cooldown = false;
  int num_shards = 0;              ///< after any action this tick
  size_t batch_bound = 0;          ///< after any action this tick

  bool scaled_up = false;
  bool scaled_down = false;
  bool scale_failed = false;       ///< an attempted topology action errored
  int batch_step = 0;              ///< +1 raised, -1 lowered, 0 held

  int unhealthy_shards = 0;        ///< dead shards observed this tick
  int revived = 0;                 ///< shards revived this tick
};

/// Decision core + production polling thread. Construction registers the
/// control_* metric family in `registry`; Tick() is then callable directly
/// (deterministic, clocked by its arguments) or via Start()'s thread.
class SloController {
 public:
  SloController(std::shared_ptr<obs::MetricRegistry> registry,
                SloActuator* actuator, const SloControllerOptions& options);
  ~SloController();
  SloController(const SloController&) = delete;
  SloController& operator=(const SloController&) = delete;

  /// Evaluates one control window ending at `snap`/`now_us` and acts. The
  /// first call only primes the baseline (no window to judge yet). Not
  /// thread-safe against itself; the production thread is its only caller
  /// once Start()ed.
  SloDecision Tick(const obs::RegistrySnapshot& snap, uint64_t now_us);

  /// Spawns the polling thread (idempotent). Stop() joins it; the
  /// destructor stops if still running.
  void Start();
  void Stop();
  bool running() const { return task_.running(); }

  /// SLO status page: objective, last window's signals, decision counters,
  /// cooldown state.
  std::string DebugString() const;

  const SloControllerOptions& options() const { return options_; }

 private:
  void RegisterMetrics();

  /// Windowed signals shared by both actuators, derived from one delta.
  struct Signals;
  Signals Read(const obs::SnapshotDelta& delta) const;

  const SloControllerOptions options_;
  std::shared_ptr<obs::MetricRegistry> registry_;
  SloActuator* actuator_;

  struct Metrics {
    obs::Counter* ticks;
    obs::Counter* decisions;          ///< ticks that took any action
    obs::Counter* scale_ups;
    obs::Counter* scale_downs;
    obs::Counter* scale_failures;
    obs::Counter* batch_adjustments;
    obs::Counter* revives;              ///< shards revived by the controller
    obs::Gauge* unhealthy_shards;       ///< dead shards at the last tick
    obs::Gauge* slo_violation_seconds;  ///< cumulative window time over SLO
    obs::Gauge* cooldown_seconds;       ///< cumulative window time in cooldown
    obs::Gauge* publish_p99_window_us;  ///< last non-empty window's p99
    obs::Gauge* writer_utilization_max;
    obs::Gauge* batch_bound;
    obs::Gauge* shards;
  };
  Metrics metrics_;

  // Tick-thread state (only the Tick caller touches these).
  bool has_baseline_ = false;
  obs::RegistrySnapshot baseline_;
  int high_streak_ = 0;
  int low_streak_ = 0;
  uint64_t own_last_action_us_ = 0;  ///< fake-actuator-safe cooldown anchor

  // Last decision, for DebugString (any thread).
  mutable std::mutex last_mutex_;
  SloDecision last_;

  PeriodicTask task_;
};

}  // namespace control
}  // namespace fdrms

#endif  // FDRMS_CONTROL_SLO_CONTROLLER_H_
