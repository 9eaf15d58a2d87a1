#include "control/slo_controller.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

namespace fdrms {
namespace control {

SloController::SloController(std::shared_ptr<obs::MetricRegistry> registry,
                             SloActuator* actuator,
                             const SloControllerOptions& options)
    : options_(options), registry_(std::move(registry)), actuator_(actuator) {
  RegisterMetrics();
}

SloController::~SloController() { Stop(); }

void SloController::RegisterMetrics() {
  obs::MetricRegistry& r = *registry_;
  metrics_.ticks = r.GetCounter(
      "control_ticks_total", "SLO controller evaluation windows");
  metrics_.decisions = r.GetCounter(
      "control_decisions_total",
      "Controller ticks that took any action (topology or batching)");
  metrics_.scale_ups = r.GetCounter(
      "control_scale_ups_total", "AddShard actions the controller completed");
  metrics_.scale_downs = r.GetCounter(
      "control_scale_downs_total",
      "RemoveShard actions the controller completed");
  metrics_.scale_failures = r.GetCounter(
      "control_scale_failures_total",
      "Topology actions the controller attempted that errored");
  metrics_.batch_adjustments = r.GetCounter(
      "control_batch_adjustments_total",
      "Batch-bound raises and lowers the controller applied");
  metrics_.revives = r.GetCounter(
      "control_revives_total",
      "Dead shards the controller revived (revive_unhealthy on)");
  metrics_.unhealthy_shards = r.GetGauge(
      "control_unhealthy_shards",
      "Dead shards the controller observed at its last tick");
  metrics_.slo_violation_seconds = r.GetGauge(
      "control_slo_violation_seconds",
      "Cumulative window time with the windowed publish p99 over the SLO");
  metrics_.cooldown_seconds = r.GetGauge(
      "control_cooldown_seconds",
      "Cumulative window time spent inside the post-migration cooldown");
  metrics_.publish_p99_window_us = r.GetGauge(
      "control_publish_p99_window_us",
      "Publish p99 over the last non-empty control window (us)");
  metrics_.writer_utilization_max = r.GetGauge(
      "control_writer_utilization_max",
      "Busiest shard's windowed writer utilization (busy/wall, 0..1)");
  metrics_.batch_bound = r.GetGauge(
      "control_batch_bound", "Batch ceiling the controller last observed");
  metrics_.shards = r.GetGauge(
      "control_shards", "Shard count the controller last observed");
}

struct SloController::Signals {
  double max_utilization = 0.0;
  double max_queue_depth = 0.0;
  double publish_p99_us = 0.0;
  uint64_t window_publishes = 0;
};

SloController::Signals SloController::Read(
    const obs::SnapshotDelta& delta) const {
  Signals sig;
  const double window = delta.WindowSeconds();
  const int shards = actuator_->num_shards();
  for (int s = 0; s < shards; ++s) {
    const obs::Labels sel{{"shard", std::to_string(s)}};
    if (window > 0.0) {
      // GaugeDelta sums per-incarnation movement, so a retired gen of this
      // index (frozen busy counter) contributes nothing to the window.
      const double util =
          delta.GaugeDelta("fdrms_writer_busy_seconds", sel) / window;
      sig.max_utilization = std::max(sig.max_utilization, util);
    }
    sig.max_queue_depth = std::max(
        sig.max_queue_depth, delta.GaugeLatest("fdrms_queue_depth", sel));
  }
  // Aggregate across every shard (empty filter): the SLO is on what any
  // publication costs, not on one shard's.
  sig.window_publishes = delta.HistCountDelta("fdrms_publish_latency_us");
  if (sig.window_publishes > 0) {
    sig.publish_p99_us = delta.HistQuantile("fdrms_publish_latency_us", 0.99);
  }
  return sig;
}

SloDecision SloController::Tick(const obs::RegistrySnapshot& snap,
                                uint64_t now_us) {
  metrics_.ticks->Increment();
  SloDecision d;
  d.num_shards = actuator_->num_shards();
  d.batch_bound = actuator_->batch_bound();
  if (!has_baseline_) {
    // Nothing to judge yet: this snapshot becomes the first window's floor.
    has_baseline_ = true;
    baseline_ = snap;
    metrics_.shards->Set(static_cast<double>(d.num_shards));
    metrics_.batch_bound->Set(static_cast<double>(d.batch_bound));
    std::lock_guard<std::mutex> lock(last_mutex_);
    last_ = d;
    return d;
  }

  const obs::SnapshotDelta delta(baseline_, snap);
  d.window_seconds = delta.WindowSeconds();
  const Signals sig = Read(delta);
  d.max_utilization = sig.max_utilization;
  d.max_queue_depth = sig.max_queue_depth;
  d.publish_p99_us = sig.publish_p99_us;
  d.window_publishes = sig.window_publishes;
  metrics_.writer_utilization_max->Set(d.max_utilization);
  if (d.window_publishes > 0) {
    metrics_.publish_p99_window_us->Set(d.publish_p99_us);
    d.slo_violated = d.publish_p99_us > options_.publish_p99_slo_us;
    if (d.slo_violated) {
      metrics_.slo_violation_seconds->Add(d.window_seconds);
    }
  }

  // Cooldown: the actuator's stamp covers completed migrations (the
  // controller's own and operator-initiated ones); own_last_action_us_
  // additionally covers failed attempts and fake actuators that don't
  // stamp, so a flapping failure can't retry every tick.
  const uint64_t last_change =
      std::max(actuator_->last_topology_change_us(), own_last_action_us_);
  d.in_cooldown =
      last_change > 0 && now_us < last_change + options_.cooldown_us;
  if (d.in_cooldown) metrics_.cooldown_seconds->Add(d.window_seconds);

  // Hysteresis: pressure and slack streaks advance on opposite sides of
  // the band and reset the moment the signal leaves their side, so a
  // signal wandering inside the band never acts.
  const double saturation_depth =
      options_.queue_saturation_fraction *
      static_cast<double>(actuator_->queue_capacity());
  const bool saturated =
      saturation_depth > 0.0 && d.max_queue_depth >= saturation_depth;
  const bool pressured =
      d.max_utilization >= options_.high_utilization || saturated;
  const bool slack = d.max_utilization <= options_.low_utilization &&
                     !saturated && !d.slo_violated;
  high_streak_ = pressured ? high_streak_ + 1 : 0;
  low_streak_ = slack ? low_streak_ + 1 : 0;

  bool acted = false;

  // Fault-domain gate: a dead shard makes the topology signals lies (its
  // writer burns no CPU, so utilization under-reads and the slack streak
  // would happily RemoveShard a constellation that is actually degraded),
  // and any migration touching it would fail. Pause scaling, surface the
  // state each tick, and optionally trigger the revive path.
  d.unhealthy_shards = actuator_->num_unhealthy();
  metrics_.unhealthy_shards->Set(static_cast<double>(d.unhealthy_shards));
  if (d.unhealthy_shards > 0) {
    registry_->lifecycle().Record("control.shard_unhealthy", now_us, 0,
                                  static_cast<uint64_t>(d.unhealthy_shards),
                                  static_cast<uint64_t>(d.num_shards));
    high_streak_ = 0;
    low_streak_ = 0;
    if (options_.revive_unhealthy) {
      const int revived = actuator_->ReviveDeadShards();
      d.revived = revived;
      if (revived > 0) {
        metrics_.revives->Increment(static_cast<uint64_t>(revived));
        own_last_action_us_ = now_us;
        acted = true;
        registry_->lifecycle().Record(
            "control.revive", now_us, 0, static_cast<uint64_t>(revived),
            static_cast<uint64_t>(d.unhealthy_shards));
      }
    }
  }

  if (d.unhealthy_shards == 0 && options_.enable_topology && !d.in_cooldown) {
    if (high_streak_ >= options_.sustain_ticks &&
        d.num_shards < options_.max_shards) {
      const Status st = actuator_->AddShard();
      high_streak_ = 0;
      own_last_action_us_ = now_us;
      acted = true;
      if (st.ok()) {
        d.scaled_up = true;
        metrics_.scale_ups->Increment();
        registry_->lifecycle().Record(
            "control.scale_up", now_us, 0,
            static_cast<uint64_t>(actuator_->num_shards()),
            static_cast<uint64_t>(d.max_utilization * 1000.0));
      } else {
        d.scale_failed = true;
        metrics_.scale_failures->Increment();
        registry_->lifecycle().Record(
            "control.scale_fail", now_us, 0,
            static_cast<uint64_t>(d.num_shards),
            static_cast<uint64_t>(d.max_utilization * 1000.0));
      }
    } else if (low_streak_ >= options_.sustain_ticks &&
               d.num_shards > options_.min_shards) {
      const Status st = actuator_->RemoveShard();
      low_streak_ = 0;
      own_last_action_us_ = now_us;
      acted = true;
      if (st.ok()) {
        d.scaled_down = true;
        metrics_.scale_downs->Increment();
        registry_->lifecycle().Record(
            "control.scale_down", now_us, 0,
            static_cast<uint64_t>(actuator_->num_shards()),
            static_cast<uint64_t>(d.max_utilization * 1000.0));
      } else {
        d.scale_failed = true;
        metrics_.scale_failures->Increment();
        registry_->lifecycle().Record(
            "control.scale_fail", now_us, 0,
            static_cast<uint64_t>(d.num_shards),
            static_cast<uint64_t>(d.max_utilization * 1000.0));
      }
    }
  }

  // Latency-aware batching: only judged on windows that actually published
  // (an idle window says nothing about what a batch costs).
  if (options_.enable_batching && d.window_publishes > 0) {
    const size_t bound = actuator_->batch_bound();
    if (d.publish_p99_us > options_.publish_p99_slo_us) {
      const size_t in_force = actuator_->SetBatchBound(bound / 2);
      if (in_force != bound) {
        d.batch_step = -1;
        acted = true;
        metrics_.batch_adjustments->Increment();
        registry_->trace().Record(
            "control.batch_lower", now_us, 0, in_force,
            static_cast<uint64_t>(d.publish_p99_us));
      }
    } else if (d.publish_p99_us <
               options_.batch_raise_fraction * options_.publish_p99_slo_us) {
      const size_t in_force = actuator_->SetBatchBound(bound * 2);
      if (in_force != bound) {
        d.batch_step = 1;
        acted = true;
        metrics_.batch_adjustments->Increment();
        registry_->trace().Record(
            "control.batch_raise", now_us, 0, in_force,
            static_cast<uint64_t>(d.publish_p99_us));
      }
    }
  }

  if (acted) metrics_.decisions->Increment();
  d.num_shards = actuator_->num_shards();
  d.batch_bound = actuator_->batch_bound();
  metrics_.shards->Set(static_cast<double>(d.num_shards));
  metrics_.batch_bound->Set(static_cast<double>(d.batch_bound));
  baseline_ = snap;
  std::lock_guard<std::mutex> lock(last_mutex_);
  last_ = d;
  return d;
}

void SloController::Start() {
  task_.Start(std::chrono::milliseconds(options_.tick_ms), [this] {
    Tick(registry_->Snapshot(), registry_->NowMicros());
  });
}

void SloController::Stop() { task_.Stop(); }

std::string SloController::DebugString() const {
  SloDecision d;
  {
    std::lock_guard<std::mutex> lock(last_mutex_);
    d = last_;
  }
  std::ostringstream out;
  out << "=== SloController ===\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "objective: publish_p99 <= %.0f us | watermarks util "
                "[%.2f, %.2f] sustain=%d cooldown=%.1fs shards=[%d, %d]\n",
                options_.publish_p99_slo_us, options_.low_utilization,
                options_.high_utilization, options_.sustain_ticks,
                static_cast<double>(options_.cooldown_us) / 1e6,
                options_.min_shards, options_.max_shards);
  out << line;
  std::snprintf(line, sizeof(line),
                "last window: %.3fs util_max=%.2f depth_max=%.0f "
                "publish_p99=%.1fus (n=%llu) %s%s\n",
                d.window_seconds, d.max_utilization, d.max_queue_depth,
                d.publish_p99_us,
                static_cast<unsigned long long>(d.window_publishes),
                d.slo_violated ? "SLO-VIOLATED " : "slo-ok ",
                d.in_cooldown ? "(cooldown)" : "");
  out << line;
  out << "state: shards=" << d.num_shards << " batch_bound=" << d.batch_bound
      << " unhealthy=" << d.unhealthy_shards
      << " revives=" << metrics_.revives->Value()
      << " running=" << (running() ? "yes" : "no") << "\n";
  out << "decisions: total=" << metrics_.decisions->Value()
      << " scale_ups=" << metrics_.scale_ups->Value()
      << " scale_downs=" << metrics_.scale_downs->Value()
      << " scale_failures=" << metrics_.scale_failures->Value()
      << " batch_adjustments=" << metrics_.batch_adjustments->Value() << "\n";
  std::snprintf(line, sizeof(line),
                "exposure: ticks=%llu slo_violation_s=%.2f cooldown_s=%.2f\n",
                static_cast<unsigned long long>(metrics_.ticks->Value()),
                metrics_.slo_violation_seconds->Value(),
                metrics_.cooldown_seconds->Value());
  out << line;
  return out.str();
}

}  // namespace control
}  // namespace fdrms
