#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "control/slo_controller.h"
#include "data/generators.h"
#include "obs/registry.h"
#include "shard/sharded_service.h"

// All suites here are named Control* on purpose: the `tsan` CMake test
// preset (and the CI ThreadSanitizer job) selects them with
// ^(Serve|Shard|...|Control).

namespace fdrms {
namespace {

using control::SloController;
using control::SloControllerOptions;
using control::SloDecision;
using obs::MetricSnapshot;
using obs::MetricType;
using obs::RegistrySnapshot;

// ---------------------------------------------------------------------------
// Deterministic decision-logic tests: a fake actuator records what the
// controller did, fabricated RegistrySnapshots say what the system looked
// like, and Tick() is clocked by its now_us argument — no threads, no
// sleeps, no real services.
// ---------------------------------------------------------------------------

class FakeActuator : public control::SloActuator {
 public:
  int num_shards() const override { return shards_; }
  Status AddShard() override {
    ++add_calls_;
    if (!add_ok_) return Status::Invalid("injected AddShard failure");
    ++shards_;
    return Status::OK();
  }
  Status RemoveShard() override {
    ++remove_calls_;
    if (!remove_ok_) return Status::Invalid("injected RemoveShard failure");
    --shards_;
    return Status::OK();
  }
  size_t SetBatchBound(size_t bound) override {
    ++set_bound_calls_;
    bound_ = std::min(std::max(bound, size_t{1}), max_batch_);
    return bound_;
  }
  size_t batch_bound() const override { return bound_; }
  size_t queue_capacity() const override { return queue_capacity_; }
  uint64_t last_topology_change_us() const override { return stamp_; }

  int shards_ = 2;
  bool add_ok_ = true;
  bool remove_ok_ = true;
  int add_calls_ = 0;
  int remove_calls_ = 0;
  int set_bound_calls_ = 0;
  size_t bound_ = 64;
  size_t max_batch_ = 64;
  size_t queue_capacity_ = 1024;
  uint64_t stamp_ = 0;  ///< fabricated external-migration timestamp
};

// Publish-latency buckets for fabricated snapshots: <=1ms, <=10ms, <=100ms,
// +overflow. With the default 20ms SLO, traffic in the third bucket
// interpolates to a violating p99 and traffic in the first sits well under
// the raise threshold.
const std::vector<double> kBounds = {1000.0, 10000.0, 100000.0};

/// Builder for fabricated registry snapshots. Only the series the
/// controller reads are modelled.
struct Snap {
  RegistrySnapshot s;

  explicit Snap(double uptime_seconds) { s.uptime_seconds = uptime_seconds; }

  Snap& Busy(int shard, double busy_seconds,
             const std::string& gen = std::string()) {
    return Gauge("fdrms_writer_busy_seconds", shard, busy_seconds, gen);
  }
  Snap& Depth(int shard, double depth, const std::string& gen = std::string()) {
    return Gauge("fdrms_queue_depth", shard, depth, gen);
  }
  Snap& Publish(uint64_t fast, uint64_t mid, uint64_t slow) {
    MetricSnapshot m;
    m.name = "fdrms_publish_latency_us";
    m.type = MetricType::kLatencyHistogram;
    m.bounds = kBounds;
    m.buckets = {fast, mid, slow, 0};
    m.count = fast + mid + slow;
    s.metrics.push_back(std::move(m));
    return *this;
  }

  Snap& Gauge(const std::string& name, int shard, double v,
              const std::string& gen) {
    MetricSnapshot m;
    m.name = name;
    m.type = MetricType::kGauge;
    m.labels = {{"shard", std::to_string(shard)}};
    if (!gen.empty()) m.labels.emplace_back("gen", gen);
    m.gauge_value = v;
    s.metrics.push_back(std::move(m));
    return *this;
  }
};

/// A snapshot at second `t` where every shard has been busy `util` of the
/// wall since the start and nothing else is going on.
RegistrySnapshot UniformLoad(double t, int shards, double util,
                             double depth = 0.0) {
  Snap b(t);
  for (int s = 0; s < shards; ++s) b.Busy(s, util * t).Depth(s, depth);
  return std::move(b.s);
}

SloControllerOptions TestOptions() {
  SloControllerOptions o;
  o.publish_p99_slo_us = 20000.0;
  o.high_utilization = 0.85;
  o.low_utilization = 0.25;
  o.queue_saturation_fraction = 0.5;
  o.sustain_ticks = 3;
  o.cooldown_us = 5000000;  // 5s
  o.min_shards = 1;
  o.max_shards = 4;
  return o;
}

uint64_t Us(double seconds) { return static_cast<uint64_t>(seconds * 1e6); }

TEST(ControlTickTest, FirstTickPrimesBaselineWithoutActing) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());
  const SloDecision d = ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  EXPECT_EQ(d.window_seconds, 0.0);
  EXPECT_FALSE(d.scaled_up);
  EXPECT_FALSE(d.scaled_down);
  EXPECT_EQ(d.batch_step, 0);
  EXPECT_EQ(act.add_calls_, 0);
  EXPECT_EQ(act.remove_calls_, 0);
  EXPECT_EQ(act.set_bound_calls_, 0);
  EXPECT_EQ(d.num_shards, 2);
}

TEST(ControlTickTest, SustainedPressureScalesUpAtSustainTicks) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  // Saturated writers: busy advances 1:1 with the wall.
  SloDecision d = ctl.Tick(UniformLoad(1.0, 2, 1.0), Us(1.0));
  EXPECT_NEAR(d.max_utilization, 1.0, 1e-9);
  EXPECT_FALSE(d.scaled_up);  // streak 1 < sustain 3
  d = ctl.Tick(UniformLoad(2.0, 2, 1.0), Us(2.0));
  EXPECT_FALSE(d.scaled_up);  // streak 2
  EXPECT_EQ(act.add_calls_, 0);
  d = ctl.Tick(UniformLoad(3.0, 2, 1.0), Us(3.0));
  EXPECT_TRUE(d.scaled_up);  // streak 3 == sustain
  EXPECT_EQ(act.add_calls_, 1);
  EXPECT_EQ(d.num_shards, 3);
  // The decision landed in the registry and the trace ring.
  const RegistrySnapshot after = reg->Snapshot();
  const MetricSnapshot* ups = after.Find("control_scale_ups_total");
  ASSERT_NE(ups, nullptr);
  EXPECT_EQ(ups->counter_value, 1u);
  bool traced = false;
  for (const obs::TraceEvent& ev : after.trace) {
    if (ev.name == "control.scale_up") traced = true;
  }
  EXPECT_TRUE(traced);
}

TEST(ControlTickTest, HysteresisBandNeverActsAndBreaksResetStreaks) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  // In-band utilization (0.5 between the 0.25/0.85 watermarks) forever:
  // neither streak ever starts.
  for (int t = 1; t <= 10; ++t) {
    const SloDecision d =
        ctl.Tick(UniformLoad(static_cast<double>(t), 2, 0.5), Us(t));
    EXPECT_FALSE(d.scaled_up);
    EXPECT_FALSE(d.scaled_down);
  }
  EXPECT_EQ(act.add_calls_, 0);
  EXPECT_EQ(act.remove_calls_, 0);

  // Two pressured windows, one in-band window, two more pressured: the
  // in-band window must reset the streak, so sustain=3 is never met.
  double busy = 5.0;  // accumulated busy seconds so far (util 0.5 * 10s)
  const double rates[] = {1.0, 1.0, 0.5, 1.0, 1.0};
  for (int i = 0; i < 5; ++i) {
    const double t = 11.0 + i;
    busy += rates[i];
    Snap b(t);
    b.Busy(0, busy).Depth(0, 0.0).Busy(1, 0.0).Depth(1, 0.0);
    const SloDecision d = ctl.Tick(std::move(b.s), Us(t));
    EXPECT_FALSE(d.scaled_up) << "window " << i;
  }
  EXPECT_EQ(act.add_calls_, 0);
}

TEST(ControlTickTest, CooldownSuppressesTheSecondScaleUp) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());  // cooldown 5s
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  int scale_ups = 0;
  // Pressure forever: the first action fires at t=3 (sustain), then the
  // 5s cooldown holds until t=8, where the streak (rebuilt since t=4) has
  // long re-met sustain and the second action fires.
  for (int t = 1; t <= 12 && scale_ups < 2; ++t) {
    const SloDecision d =
        ctl.Tick(UniformLoad(static_cast<double>(t), act.shards_, 1.0), Us(t));
    if (d.scaled_up) {
      ++scale_ups;
      if (scale_ups == 1) {
        EXPECT_EQ(t, 3);
      }
      if (scale_ups == 2) {
        EXPECT_EQ(t, 8);
      }
    } else if (t > 3 && scale_ups == 1 && t < 8) {
      EXPECT_TRUE(d.in_cooldown) << "t=" << t;
    }
  }
  EXPECT_EQ(scale_ups, 2);
  EXPECT_EQ(act.add_calls_, 2);
}

TEST(ControlTickTest, ExternalMigrationStampStartsCooldownToo) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  act.stamp_ = Us(2.5);  // an operator migrated mid-stream
  for (int t = 1; t <= 7; ++t) {
    const SloDecision d =
        ctl.Tick(UniformLoad(static_cast<double>(t), 2, 1.0), Us(t));
    if (t >= 3 && t < 7) {
      // Sustain was met at t=3 but the 5s cooldown from t=2.5 holds
      // until t=7.5.
      EXPECT_TRUE(d.in_cooldown) << "t=" << t;
      EXPECT_FALSE(d.scaled_up) << "t=" << t;
    }
  }
  EXPECT_EQ(act.add_calls_, 0);
  const SloDecision d = ctl.Tick(UniformLoad(8.0, 2, 1.0), Us(8.0));
  EXPECT_TRUE(d.scaled_up);
}

TEST(ControlTickTest, MaxShardClampHoldsTopology) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloControllerOptions opt = TestOptions();
  opt.max_shards = 2;
  act.shards_ = 2;
  SloController ctl(reg, &act, opt);
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  for (int t = 1; t <= 6; ++t) {
    const SloDecision d =
        ctl.Tick(UniformLoad(static_cast<double>(t), 2, 1.0), Us(t));
    EXPECT_FALSE(d.scaled_up);
    EXPECT_FALSE(d.scale_failed);
  }
  EXPECT_EQ(act.add_calls_, 0);
}

TEST(ControlTickTest, SustainedSlackScalesDownUntilMinShards) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloControllerOptions opt = TestOptions();
  opt.min_shards = 2;
  opt.cooldown_us = 1000000;  // 1s: let both scale-downs land in the sweep
  act.shards_ = 4;
  SloController ctl(reg, &act, opt);
  ctl.Tick(UniformLoad(0.0, 4, 0.0), 0);
  int scale_downs = 0;
  for (int t = 1; t <= 12; ++t) {
    const SloDecision d = ctl.Tick(
        UniformLoad(static_cast<double>(t), act.shards_, 0.0), Us(t));
    if (d.scaled_down) ++scale_downs;
  }
  // 4 -> 3 -> 2, then the min_shards clamp holds despite continued slack.
  EXPECT_EQ(scale_downs, 2);
  EXPECT_EQ(act.remove_calls_, 2);
  EXPECT_EQ(act.shards_, 2);
}

TEST(ControlTickTest, SloViolationBlocksScaleDown) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloControllerOptions opt = TestOptions();
  opt.enable_batching = false;  // isolate the topology side
  act.shards_ = 2;
  SloController ctl(reg, &act, opt);
  Snap base(0.0);
  base.Busy(0, 0.0).Depth(0, 0.0).Busy(1, 0.0).Depth(1, 0.0).Publish(0, 0, 0);
  ctl.Tick(std::move(base.s), 0);
  // Idle writers but every publication lands in the 10..100ms bucket:
  // p99 ~ 99ms >> the 20ms SLO, so the slack condition must not hold.
  for (int t = 1; t <= 8; ++t) {
    Snap b(static_cast<double>(t));
    b.Busy(0, 0.0).Depth(0, 0.0).Busy(1, 0.0).Depth(1, 0.0);
    b.Publish(0, 0, static_cast<uint64_t>(100 * t));
    const SloDecision d = ctl.Tick(std::move(b.s), Us(t));
    EXPECT_TRUE(d.slo_violated) << "t=" << t;
    EXPECT_FALSE(d.scaled_down) << "t=" << t;
  }
  EXPECT_EQ(act.remove_calls_, 0);
}

TEST(ControlTickTest, QueueSaturationPressuresDespiteIdleWriters) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  act.queue_capacity_ = 1000;
  SloController ctl(reg, &act, TestOptions());  // saturation at depth 500
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  SloDecision d;
  for (int t = 1; t <= 3; ++t) {
    d = ctl.Tick(UniformLoad(static_cast<double>(t), 2, 0.0, 600.0), Us(t));
  }
  EXPECT_TRUE(d.scaled_up);
  EXPECT_EQ(act.add_calls_, 1);
}

TEST(ControlTickTest, FailedScaleUpCountsAndEntersCooldown) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  act.add_ok_ = false;
  SloController ctl(reg, &act, TestOptions());  // cooldown 5s
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  for (int t = 1; t <= 7; ++t) {
    const SloDecision d =
        ctl.Tick(UniformLoad(static_cast<double>(t), 2, 1.0), Us(t));
    if (t == 3) {
      EXPECT_TRUE(d.scale_failed);
    }
  }
  // One attempt at t=3; the failure itself anchors the cooldown, so the
  // controller must not hammer a failing actuator every tick.
  EXPECT_EQ(act.add_calls_, 1);
  const RegistrySnapshot after = reg->Snapshot();
  const MetricSnapshot* failures = after.Find("control_scale_failures_total");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->counter_value, 1u);
}

TEST(ControlTickTest, BatchBoundTracksTheWindowedP99) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloControllerOptions opt = TestOptions();
  opt.enable_topology = false;  // isolate the batching side
  SloController ctl(reg, &act, opt);
  Snap base(0.0);
  base.Publish(0, 0, 0);
  ctl.Tick(std::move(base.s), 0);

  // Window 1: p99 in the violation bucket -> bound halves 64 -> 32.
  Snap w1(1.0);
  w1.Publish(0, 0, 100);
  SloDecision d = ctl.Tick(std::move(w1.s), Us(1.0));
  EXPECT_EQ(d.batch_step, -1);
  EXPECT_EQ(act.bound_, 32u);

  // Window 2: p99 between the raise fraction (10ms) and the SLO (20ms) ->
  // hold. Window adds 935 fast + 10 slow: the p99 target (935.55 of 945)
  // lands 0.055 into the 10..100ms bucket, interpolating to ~15ms.
  Snap w2(2.0);
  w2.Publish(935, 0, 110);  // cumulative: window delta {935, 0, 10}
  d = ctl.Tick(std::move(w2.s), Us(2.0));
  EXPECT_FALSE(d.slo_violated);
  EXPECT_EQ(d.batch_step, 0);
  EXPECT_EQ(act.bound_, 32u);

  // Window 3: everything fast (p99 ~ 1ms, under half the SLO) -> the
  // bound doubles back.
  Snap w3(3.0);
  w3.Publish(1335, 0, 110);  // window delta {400, 0, 0}
  d = ctl.Tick(std::move(w3.s), Us(3.0));
  EXPECT_EQ(d.batch_step, 1);
  EXPECT_EQ(act.bound_, 64u);

  // Window 4: idle (no publishes) -> the bound must hold; an empty window
  // says nothing about publication cost.
  Snap w4(4.0);
  w4.Publish(1335, 0, 110);
  d = ctl.Tick(std::move(w4.s), Us(4.0));
  EXPECT_EQ(d.batch_step, 0);
  EXPECT_EQ(d.window_publishes, 0u);
  EXPECT_EQ(act.bound_, 64u);
}

TEST(ControlTickTest, BatchLowerAtTheFloorIsNotAnAdjustment) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  act.bound_ = 1;
  SloControllerOptions opt = TestOptions();
  opt.enable_topology = false;
  SloController ctl(reg, &act, opt);
  Snap base(0.0);
  base.Publish(0, 0, 0);
  ctl.Tick(std::move(base.s), 0);
  Snap w(1.0);
  w.Publish(0, 0, 50);  // violating window
  const SloDecision d = ctl.Tick(std::move(w.s), Us(1.0));
  // SetBatchBound(0) clamps back to the floor: nothing changed, so the
  // tick records no adjustment (and no decision).
  EXPECT_EQ(d.batch_step, 0);
  EXPECT_EQ(act.bound_, 1u);
  const obs::RegistrySnapshot after = reg->Snapshot();
  const MetricSnapshot* adj = after.Find("control_batch_adjustments_total");
  ASSERT_NE(adj, nullptr);
  EXPECT_EQ(adj->counter_value, 0u);
}

TEST(ControlTickTest, RebornShardGenLabelsReadCorrectly) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  act.shards_ = 1;
  SloController ctl(reg, &act, TestOptions());
  // Shard 0 was reborn: a retired gen-less incarnation holds a frozen busy
  // counter and a stale queue depth; the live {gen=1} series moves.
  Snap base(0.0);
  base.Busy(0, 10.0).Depth(0, 900.0);  // retired incarnation, frozen
  base.Busy(0, 0.0, "1").Depth(0, 0.0, "1");
  ctl.Tick(std::move(base.s), 0);
  Snap w(1.0);
  w.Busy(0, 10.0).Depth(0, 900.0);        // still frozen
  w.Busy(0, 0.3, "1").Depth(0, 4.0, "1");  // live gen: util 0.3, shallow
  const SloDecision d = ctl.Tick(std::move(w.s), Us(1.0));
  // GaugeDelta ignores the frozen incarnation (no movement) and
  // GaugeLatest picks the live gen, so neither the stale depth (900 would
  // saturate) nor the frozen busy total (10s busy in a 1s window) leaks
  // into the signals.
  EXPECT_NEAR(d.max_utilization, 0.3, 1e-9);
  EXPECT_NEAR(d.max_queue_depth, 4.0, 1e-9);
}

TEST(ControlTickTest, DebugStringRendersTheSloStatusPage) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FakeActuator act;
  SloController ctl(reg, &act, TestOptions());
  ctl.Tick(UniformLoad(0.0, 2, 0.0), 0);
  ctl.Tick(UniformLoad(1.0, 2, 0.5), Us(1.0));
  const std::string page = ctl.DebugString();
  EXPECT_NE(page.find("SloController"), std::string::npos);
  EXPECT_NE(page.find("publish_p99"), std::string::npos);
  EXPECT_NE(page.find("shards=2"), std::string::npos);
  EXPECT_NE(page.find("slo-ok"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live smoke: the production polling thread against a real (tiny)
// constellation — exercises Start/Stop, the registry snapshot path, and the
// actuator under TSan.
// ---------------------------------------------------------------------------

TEST(ControlLiveTest, PollingThreadRunsAgainstALiveConstellation) {
  PointSet ps = GenerateIndep(300, 3, 41);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 8;
  sopt.shard.algo.max_utilities = 64;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 200; ++i) initial.emplace_back(i, ps.Get(i));
  ASSERT_TRUE(service.Start(initial).ok());

  control::ShardedServiceActuator actuator(&service);
  SloControllerOptions copt;
  copt.tick_ms = 5;
  copt.min_shards = 1;
  copt.max_shards = 4;
  SloController ctl(service.registry(), &actuator, copt);
  ctl.Start();
  ctl.Start();  // idempotent
  EXPECT_TRUE(ctl.running());

  for (int i = 200; i < 300; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ctl.Stop();
  EXPECT_FALSE(ctl.running());
  const RegistrySnapshot snap = service.registry()->Snapshot();
  const MetricSnapshot* ticks = snap.Find("control_ticks_total");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->counter_value, 1u);
  EXPECT_FALSE(ctl.DebugString().empty());
  ASSERT_TRUE(service.Stop().ok());
}

// SetBatchBound plumbing through the sharded layer: the ceiling fans out
// to every live shard and is inherited by shards born later.
TEST(ControlShardPlumbingTest, BatchBoundFansOutAndSurvivesAddShard) {
  PointSet ps = GenerateIndep(200, 3, 42);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 8;
  sopt.shard.algo.max_utilities = 64;
  sopt.shard.max_batch = 64;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 200; ++i) initial.emplace_back(i, ps.Get(i));
  ASSERT_TRUE(service.Start(initial).ok());
  EXPECT_EQ(service.batch_bound(), 64u);

  EXPECT_EQ(service.SetBatchBound(8), 8u);
  EXPECT_EQ(service.batch_bound(), 8u);

  EXPECT_EQ(service.last_topology_change_us(), 0u);
  ASSERT_TRUE(service.AddShard().ok());
  EXPECT_GT(service.last_topology_change_us(), 0u);
  // The new shard inherits the lowered ceiling (observable through the
  // per-shard gauge in the shared registry).
  const RegistrySnapshot snap = service.registry()->Snapshot();
  int bound_series = 0;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.name != "fdrms_batch_bound") continue;
    ++bound_series;
    EXPECT_EQ(m.gauge_value, 8.0) << "labels size " << m.labels.size();
  }
  EXPECT_EQ(bound_series, 3);  // one per live shard

  // Out-of-range asks clamp into [1, max_batch].
  EXPECT_EQ(service.SetBatchBound(0), 1u);
  EXPECT_EQ(service.SetBatchBound(1 << 20), 64u);
  ASSERT_TRUE(service.Stop().ok());
}

}  // namespace
}  // namespace fdrms
