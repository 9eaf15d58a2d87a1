#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/periodic_dumper.h"
#include "obs/phase_span.h"
#include "obs/pow2_hist.h"
#include "obs/registry.h"
#include "obs/snapshot_delta.h"
#include "obs/trace.h"
#include "shard/sharded_service.h"

// All suites here are named Obs* on purpose: the `tsan` CMake test preset
// (and the CI ThreadSanitizer job) selects them with ^(Serve|Shard|...|Obs).

namespace fdrms {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Pow2 bucketing vocabulary
// ---------------------------------------------------------------------------

TEST(ObsPow2Hist, BucketAssignmentMatchesContract) {
  EXPECT_EQ(Pow2HistBucket(0), 0u);
  EXPECT_EQ(Pow2HistBucket(1), 1u);
  EXPECT_EQ(Pow2HistBucket(2), 2u);
  EXPECT_EQ(Pow2HistBucket(3), 2u);
  EXPECT_EQ(Pow2HistBucket(4), 3u);
  EXPECT_EQ(Pow2HistBucket(1023), 10u);
  EXPECT_EQ(Pow2HistBucket(1024), 11u);
}

TEST(ObsPow2Hist, FloorAndCeilBracketEveryBucket) {
  for (size_t b = 0; b + 1 < kPow2HistBuckets; ++b) {
    const uint64_t floor = Pow2HistBucketFloor(b);
    const uint64_t ceil = Pow2HistBucketCeil(b);
    EXPECT_LE(floor, ceil) << "bucket " << b;
    EXPECT_EQ(Pow2HistBucket(floor), b);
    EXPECT_EQ(Pow2HistBucket(ceil), b);
    // The ceil is tight: one past it lands in the next bucket.
    EXPECT_EQ(Pow2HistBucket(ceil + 1), b + 1);
  }
}

TEST(ObsPow2Hist, QuantileOfEmptyHistogramIsZero) {
  EXPECT_EQ(Pow2HistQuantile({}, 0.5), 0.0);
  EXPECT_EQ(Pow2HistQuantile(std::vector<uint64_t>(kPow2HistBuckets, 0), 0.5),
            0.0);
  EXPECT_EQ(Pow2HistQuantile(std::vector<uint64_t>(kPow2HistBuckets, 0), 0.99),
            0.0);
}

TEST(ObsPow2Hist, QuantileClampsQ) {
  std::vector<uint64_t> hist(kPow2HistBuckets, 0);
  hist[3] = 10;  // all mass in [4, 8)
  // Out-of-range q clamps to [0, 1] rather than misbehaving.
  EXPECT_EQ(Pow2HistQuantile(hist, -1.0), Pow2HistQuantile(hist, 0.0));
  EXPECT_EQ(Pow2HistQuantile(hist, 2.0), Pow2HistQuantile(hist, 1.0));
  EXPECT_EQ(Pow2HistQuantile(hist, 2.0), 4.0);
  EXPECT_EQ(Pow2HistQuantile(hist, 0.5), 4.0);
}

TEST(ObsPow2Hist, LastBucketSaturation) {
  // Everything >= 2^(kPow2HistBuckets-2) = 32768 saturates into the last
  // open-ended bucket, and quantiles report that bucket's floor.
  const size_t last = kPow2HistBuckets - 1;
  EXPECT_EQ(Pow2HistBucket(32768), last);
  EXPECT_EQ(Pow2HistBucket(1u << 20), last);
  EXPECT_EQ(Pow2HistBucket(~uint64_t{0}), last);
  EXPECT_EQ(Pow2HistBucketFloor(last), 32768u);
  EXPECT_EQ(Pow2HistBucketCeil(last), 32768u);  // open-ended: floor reported

  Pow2Histogram h;
  h.Record(~uint64_t{0});
  h.Record(1u << 30);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.BucketSums()[last], 2u);
  EXPECT_EQ(h.Quantile(0.99), 32768.0);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterIncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.0);
}

TEST(ObsMetrics, LatencyHistogramRecordsAndInterpolates) {
  LatencyHistogram h({10.0, 100.0, 1000.0});
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.Record(50.0);
  EXPECT_EQ(h.Count(), 100u);
  // All mass in (10, 100]: every quantile interpolates inside that bucket.
  EXPECT_GT(h.Quantile(0.5), 10.0);
  EXPECT_LE(h.Quantile(0.5), 100.0);
  EXPECT_NEAR(h.SumUs(), 5000.0, 1.0);
  // Overflow reports the last boundary, never a fabricated larger value.
  h.Record(1e9);
  EXPECT_EQ(h.Quantile(1.0), 1000.0);
}

TEST(ObsMetrics, LatencyHistogramNegativeClampsToZero) {
  LatencyHistogram h({1.0, 10.0});
  h.Record(-5.0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.BucketSums()[0], 1u);
}

TEST(ObsMetrics, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const std::vector<double> bounds = DefaultLatencyBoundsUs();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_GE(bounds.back(), 1e7);
}

// The TSan-facing hammer: many threads pounding one counter and both
// histogram flavors must lose nothing and trip no race detector.
TEST(ObsMetrics, ConcurrentHammerLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter counter;
  Pow2Histogram pow2;
  LatencyHistogram latency(DefaultLatencyBoundsUs());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        pow2.Record(static_cast<uint64_t>(i));
        latency.Record(static_cast<double>(t + 1));
      }
    });
  }
  // A racing reader: aggregated values must be monotone while writers run.
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = counter.Value();
    ASSERT_GE(now, last);
    last = now;
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(pow2.Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(latency.Count(), uint64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(ObsTrace, RecordsAndCollectsInOrder) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.Record("a", 1, 10, 7, 8);
  ring.Record("b", 2, 20);
  std::vector<TraceEvent> events = ring.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].start_us, 1u);
  EXPECT_EQ(events[0].duration_us, 10u);
  EXPECT_EQ(events[0].arg0, 7u);
  EXPECT_EQ(events[0].arg1, 8u);
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(ring.total_recorded(), 2u);
}

TEST(ObsTrace, WrapKeepsOnlyTheNewestWindow) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) ring.Record("e", i, 0, i);
  std::vector<TraceEvent> events = ring.Collect();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg0, 6 + i);  // events 6..9 survive
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
}

TEST(ObsTrace, ConcurrentWritersNeverSurfaceTornEvents) {
  TraceRing ring(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : ring.Collect()) {
        // Writers always store arg1 == arg0 + 1; a torn slot would break it.
        ASSERT_EQ(e.arg1, e.arg0 + 1);
        ASSERT_TRUE(e.name == "x" || e.name == "y");
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Record(t % 2 == 0 ? "x" : "y", i, 1, i, i + 1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.total_recorded(), uint64_t{kThreads} * kPerThread);
}

TEST(ObsTrace, SingleWriterNeverDropsEvenAcrossWrap) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 100; ++i) ring.Record("e", i, 0, i, i + 1);
  EXPECT_EQ(ring.total_dropped(), 0u);
  EXPECT_EQ(ring.total_recorded(), 100u);
  EXPECT_EQ(ring.Collect().size(), 4u);
}

TEST(ObsTrace, WrapRacingWritersNeverMixPayloads) {
  // A tiny ring makes tickets alias the same slot constantly, exercising
  // the claim path: a writer that finds its slot mid-write or lapped must
  // drop its event rather than interleave payload stores with another
  // ticket's.
  TraceRing ring(4);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : ring.Collect()) {
        // Writers always store arg1 == arg0 + 1; a mixed slot breaks it.
        ASSERT_EQ(e.arg1, e.arg0 + 1);
        ASSERT_EQ(e.name, "w");
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Record("w", i, 1, i, i + 1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.total_recorded(), uint64_t{kThreads} * kPerThread);
  EXPECT_LE(ring.total_dropped(), ring.total_recorded());
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableHandles) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("ops_total", "ops");
  Counter* b = reg.GetCounter("ops_total", "ignored help");
  EXPECT_EQ(a, b);
  Counter* labelled = reg.GetCounter("ops_total", "ops", {{"shard", "0"}});
  EXPECT_NE(a, labelled);
  a->Increment(5);
  labelled->Increment(7);
  RegistrySnapshot snap = reg.Snapshot();
  const MetricSnapshot* plain = snap.Find("ops_total");
  const MetricSnapshot* shard0 = snap.Find("ops_total", {{"shard", "0"}});
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(shard0, nullptr);
  EXPECT_EQ(plain->counter_value, 5u);
  EXPECT_EQ(shard0->counter_value, 7u);
  EXPECT_EQ(snap.Find("absent"), nullptr);
}

TEST(ObsRegistryDeathTest, FamilyTypeConflictAbortsEvenAcrossLabels) {
  // A Prometheus family carries exactly one # TYPE line, so the same name
  // under a different type — even with different labels — would render an
  // exposition whose TYPE mismatches some of its series.
  MetricRegistry reg;
  reg.GetCounter("fdrms_mixed_total", "c", {{"shard", "0"}});
  EXPECT_DEATH(reg.GetGauge("fdrms_mixed_total", "g", {{"shard", "1"}}),
               "re-registered");
}

TEST(ObsRegistry, SnapshotIsSortedByNameThenLabels) {
  MetricRegistry reg;
  reg.GetCounter("zeta_total", "z");
  reg.GetGauge("alpha", "a");
  reg.GetCounter("mid_total", "m", {{"shard", "1"}});
  reg.GetCounter("mid_total", "m", {{"shard", "0"}});
  RegistrySnapshot snap = reg.Snapshot();
  // 4 registered series + the 2 process-level series every snapshot
  // synthesizes (obs_registry_series, process_uptime_seconds).
  ASSERT_EQ(snap.metrics.size(), 6u);
  EXPECT_EQ(snap.metrics[0].name, "alpha");
  EXPECT_EQ(snap.metrics[1].name, "mid_total");
  EXPECT_EQ(snap.metrics[1].labels, (Labels{{"shard", "0"}}));
  EXPECT_EQ(snap.metrics[2].labels, (Labels{{"shard", "1"}}));
  EXPECT_EQ(snap.metrics[3].name, "obs_registry_series");
  EXPECT_EQ(snap.metrics[3].gauge_value, 4.0);
  EXPECT_EQ(snap.metrics[4].name, "process_uptime_seconds");
  EXPECT_EQ(snap.metrics[4].gauge_value, snap.uptime_seconds);
  EXPECT_EQ(snap.metrics[5].name, "zeta_total");
}

TEST(ObsRegistry, CountersNeverDecreaseAcrossScrapes) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ops_total", "ops");
  Pow2Histogram* h = reg.GetPow2Histogram("depth", "queue depth");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        c->Increment();
        h->Record(3);
      }
    });
  }
  uint64_t last_counter = 0;
  uint64_t last_hist = 0;
  for (int i = 0; i < 200; ++i) {
    RegistrySnapshot snap = reg.Snapshot();
    const MetricSnapshot* mc = snap.Find("ops_total");
    const MetricSnapshot* mh = snap.Find("depth");
    ASSERT_NE(mc, nullptr);
    ASSERT_NE(mh, nullptr);
    ASSERT_GE(mc->counter_value, last_counter);
    ASSERT_GE(mh->count, last_hist);
    last_counter = mc->counter_value;
    last_hist = mh->count;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
}

TEST(ObsRegistry, LatencyHistogramSnapshotCarriesBoundsAndSum) {
  MetricRegistry reg;
  LatencyHistogram* h =
      reg.GetLatencyHistogram("lat_us", "latency", {}, {10.0, 100.0});
  h->Record(5.0);
  h->Record(50.0);
  RegistrySnapshot snap = reg.Snapshot();
  const MetricSnapshot* m = snap.Find("lat_us");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->type, MetricType::kLatencyHistogram);
  EXPECT_EQ(m->bounds, (std::vector<double>{10.0, 100.0}));
  EXPECT_EQ(m->count, 2u);
  EXPECT_NEAR(m->sum, 55.0, 0.01);
  EXPECT_GT(m->Quantile(0.9), 10.0);
}

// ---------------------------------------------------------------------------
// PhaseSpan
// ---------------------------------------------------------------------------

TEST(ObsPhaseSpan, RecordsHistogramAndTraceOnce) {
  MetricRegistry reg;
  LatencyHistogram* h = reg.GetLatencyHistogram("phase_us", "phase");
  {
    PhaseSpan span(&reg, h, "test.phase");
    span.set_args(11, 22);
    const double us = span.Finish();
    EXPECT_GE(us, 0.0);
    span.Finish();  // idempotent: no double-record at scope exit
  }
  EXPECT_EQ(h->Count(), 1u);
  std::vector<TraceEvent> events = reg.trace().Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.phase");
  EXPECT_EQ(events[0].arg0, 11u);
  EXPECT_EQ(events[0].arg1, 22u);
}

TEST(ObsPhaseSpan, NullPartsAreInert) {
  MetricRegistry reg;
  LatencyHistogram* h = reg.GetLatencyHistogram("phase_us", "phase");
  { PhaseSpan span(nullptr, h, "ignored"); }
  EXPECT_EQ(h->Count(), 1u);          // histogram still fed
  EXPECT_TRUE(reg.trace().Collect().empty());
  { PhaseSpan span(&reg, nullptr, "only.trace"); }
  EXPECT_EQ(reg.trace().Collect().size(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExporters, PrometheusTextWellFormed) {
  MetricRegistry reg;
  reg.GetCounter("fdrms_ops_total", "Operations \"applied\"\n so far")
      ->Increment(3);
  reg.GetGauge("fdrms_depth", "Queue depth", {{"shard", "a\"b\\c"}})->Set(7);
  reg.GetLatencyHistogram("fdrms_lat_us", "Latency", {}, {1.0, 10.0})
      ->Record(5.0);
  reg.GetPow2Histogram("fdrms_batch", "Batch size")->Record(3);
  const std::string text = reg.PrometheusText();

  // One HELP/TYPE per family, escaped values, and the histogram grammar.
  // HELP escapes backslash and newline only (quotes stay, per the spec).
  EXPECT_NE(text.find("# HELP fdrms_ops_total Operations \"applied\"\\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fdrms_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("fdrms_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdrms_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("fdrms_depth{shard=\"a\\\"b\\\\c\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fdrms_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("fdrms_lat_us_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("fdrms_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fdrms_lat_us_sum 5"), std::string::npos);
  EXPECT_NE(text.find("fdrms_lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdrms_batch histogram"), std::string::npos);
  // Pow2 bucket 2 = [2,4): its le boundary is 3, cumulative count 1.
  EXPECT_NE(text.find("fdrms_batch_bucket{le=\"3\"} 1"), std::string::npos);
  EXPECT_EQ(text.find("# HELP fdrms_ops_total",
                      text.find("# HELP fdrms_ops_total") + 1),
            std::string::npos)
      << "HELP emitted twice for one family";
}

TEST(ObsExporters, PrometheusHistogramBucketsAreCumulative) {
  MetricRegistry reg;
  LatencyHistogram* h =
      reg.GetLatencyHistogram("lat_us", "l", {}, {1.0, 10.0, 100.0});
  h->Record(0.5);
  h->Record(5.0);
  h->Record(50.0);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"100\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
}

TEST(ObsExporters, JsonTextParsesStructurally) {
  MetricRegistry reg;
  reg.GetCounter("ops_total", "with \"quotes\" and \\slashes\\")->Increment();
  reg.GetLatencyHistogram("lat_us", "l", {{"shard", "0"}})->Record(3.0);
  reg.trace().Record("phase", 1, 2, 3, 4);
  const std::string json = reg.JsonText();
  // Balanced braces/brackets outside strings == structurally sound JSON
  // for this exporter's grammar (no nested strings with brackets).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
    } else if (ch == '"') {
      in_string = !in_string;
    } else if (!in_string && (ch == '{' || ch == '[')) {
      ++depth;
    } else if (!in_string && (ch == '}' || ch == ']')) {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
}

TEST(ObsExporters, DebugStringMentionsEverySeries) {
  MetricRegistry reg;
  reg.GetCounter("ops_total", "ops")->Increment(9);
  reg.GetGauge("depth", "d")->Set(4);
  reg.GetLatencyHistogram("lat_us", "l")->Record(10.0);
  const std::string page = reg.DebugString();
  EXPECT_NE(page.find("ops_total"), std::string::npos);
  EXPECT_NE(page.find("depth"), std::string::npos);
  EXPECT_NE(page.find("lat_us"), std::string::npos);
}

TEST(ObsExporters, WriteFileAtomicLeavesNoTempBehind) {
  const std::string path = "obs_test_atomic_write.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "hello\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Periodic dumper
// ---------------------------------------------------------------------------

TEST(ObsDumper, WritesFinalDumpOnStop) {
  auto reg = std::make_shared<MetricRegistry>();
  reg->GetCounter("fdrms_ops_total", "ops")->Increment(17);
  PeriodicDumperOptions opt;
  opt.prometheus_path = "obs_test_dump.prom";
  opt.json_path = "obs_test_dump.json";
  opt.interval_ms = 5;
  {
    PeriodicDumper dumper(reg, opt);
    dumper.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    dumper.Stop();
    EXPECT_GE(dumper.dumps(), 1u);
    EXPECT_EQ(dumper.dump_failures(), 0u);
  }
  std::ifstream prom(opt.prometheus_path);
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("fdrms_ops_total 17"), std::string::npos);
  std::ifstream json(opt.json_path);
  EXPECT_TRUE(json.good());
  std::remove(opt.prometheus_path.c_str());
  std::remove(opt.json_path.c_str());
}

TEST(ObsDumper, ConcurrentStopJoinsExactlyOnce) {
  auto reg = std::make_shared<MetricRegistry>();
  reg->GetCounter("fdrms_ops_total", "ops")->Increment();
  PeriodicDumperOptions opt;
  opt.prometheus_path = "obs_test_concurrent_stop.prom";
  opt.interval_ms = 1;
  PeriodicDumper dumper(reg, opt);
  dumper.Start();
  // All callers race Stop; exactly one may join the dump thread (a double
  // join is std::terminate), the rest must return immediately.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { dumper.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_GE(dumper.dumps(), 1u);
  dumper.Stop();  // still idempotent afterwards
  std::remove(opt.prometheus_path.c_str());
  std::remove((opt.prometheus_path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Live-service integration: the acceptance scrape
// ---------------------------------------------------------------------------

TEST(ObsServiceIntegration, RegistryScrapeMatchesServiceCounters) {
  PointSet ps = GenerateIndep(400, 3, 11);
  Workload wl(&ps, 7);
  ServiceLoadOptions opts;
  opts.num_readers = 2;
  opts.num_submitters = 2;
  opts.service.algo.r = 10;
  opts.service.queue_capacity = 1024;
  ServiceLoadResult res = RunServiceLoad(wl, opts);
  ASSERT_TRUE(res.consistent);

  // The scrape carries the writer/queue/batch/publish-latency series with
  // values matching what the result snapshot reported.
  for (const char* series :
       {"fdrms_ops_submitted_total", "fdrms_ops_applied_total",
        "fdrms_batches_total", "fdrms_publications_total",
        "fdrms_snapshot_version", "fdrms_queue_depth_pow2",
        "fdrms_batch_size_pow2", "fdrms_publish_latency_us",
        "fdrms_writer_drain_us", "fdrms_writer_apply_us",
        "fdrms_writer_publish_us"}) {
    EXPECT_NE(res.prometheus_text.find(series), std::string::npos)
        << "missing series " << series;
  }
  EXPECT_NE(res.prometheus_text.find("fdrms_publish_latency_us_count"),
            std::string::npos);
  EXPECT_GT(res.publish_p99_us, 0.0);
  EXPECT_GE(res.publish_p999_us, res.publish_p90_us);
  EXPECT_NE(res.json_text.find("fdrms_ops_applied_total"), std::string::npos);
  EXPECT_NE(res.debug_text.find("publish_latency_us"), std::string::npos);
  // ResultSnapshot fields are views over the registry: the applied count in
  // the exposition equals the final snapshot's.
  EXPECT_NE(res.prometheus_text.find("fdrms_ops_applied_total " +
                                     std::to_string(res.ops_applied)),
            std::string::npos);
}

TEST(ObsShardedIntegration, MigrationLifecycleIsObservable) {
  PointSet ps = GenerateIndep(500, 3, 23);
  Workload wl(&ps, 5);
  ShardedLoadOptions opts;
  opts.num_readers = 2;
  opts.num_submitters = 2;
  opts.service.num_shards = 2;
  opts.service.shard.algo.r = 10;
  opts.service.shard.queue_capacity = 1024;
  opts.migrations.push_back(
      {ShardedLoadOptions::MigrationEvent::Kind::kAddShard, 0.5});
  ShardedLoadResult res = RunShardedLoad(wl, opts);
  ASSERT_TRUE(res.consistent);
  ASSERT_EQ(res.migrations_failed, 0u);
  ASSERT_EQ(res.migrations_attempted, 1u);

  // Per-shard series are labelled; the sharded layer's series are global.
  for (const char* series :
       {"fdrms_ops_applied_total{shard=\"0\"}",
        "fdrms_ops_applied_total{shard=\"1\"}",
        "fdrms_ops_applied_total{shard=\"2\"}", "fdrms_reads_total",
        "fdrms_merge_cache_hits_total", "fdrms_merge_cache_misses_total",
        "fdrms_epoch", "fdrms_shards", "fdrms_migrations_total 1",
        "fdrms_migration_ops_replayed_total",
        "fdrms_migration_freeze_us_count 1",
        "fdrms_migration_drain_us_count 1",
        "fdrms_migration_replay_us_count 1",
        "fdrms_migration_cutover_us_count 1"}) {
    EXPECT_NE(res.prometheus_text.find(series), std::string::npos)
        << "missing " << series << " in scrape:\n"
        << res.prometheus_text.substr(0, 2000);
  }
  // The migration trace carries the full lifecycle, in phase order.
  ASSERT_EQ(res.migration_trace.size(), 4u);
  EXPECT_EQ(res.migration_trace[0].name, "migration.freeze");
  EXPECT_EQ(res.migration_trace[1].name, "migration.drain");
  EXPECT_EQ(res.migration_trace[2].name, "migration.replay");
  EXPECT_EQ(res.migration_trace[3].name, "migration.cutover");
  const uint64_t cutover_epoch = res.migration_trace[3].arg0;
  EXPECT_EQ(cutover_epoch, res.final_epoch);
  // Phases nest inside the wall-clock order they ran in.
  EXPECT_LE(res.migration_trace[0].start_us, res.migration_trace[1].start_us);
  EXPECT_LE(res.migration_trace[1].start_us, res.migration_trace[2].start_us);
  EXPECT_LE(res.migration_trace[2].start_us, res.migration_trace[3].start_us);
  // Read-path cache telemetry adds up: every merged read either hit or
  // rebuilt (null pre-warm-up reads are counted as reads but neither).
  EXPECT_GT(res.merge_cache_hits + res.merge_cache_misses, 0u);
  EXPECT_NE(res.debug_text.find("=== ShardedFdRmsService ==="),
            std::string::npos);
  EXPECT_NE(res.debug_text.find("--- shard 2 ---"), std::string::npos);
}

TEST(ObsShardedIntegration, RebornShardIndexGetsFreshSeries) {
  // RemoveShard then AddShard re-creates index 2. The registry hands back
  // the same series for the same (name, labels), so the reborn instance
  // must carry a distinguishing gen label — otherwise its counters would
  // resume at the dead instance's totals, inflating its stats and (before
  // the Flush rendezvous went instance-local) letting Flush() report an
  // un-drained queue as flushed.
  PointSet ps = GenerateIndep(240, 3, 41);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 240; ++i) initial.emplace_back(i, ps.Get(i));
  ASSERT_TRUE(service.Start(initial).ok());

  ASSERT_TRUE(service.RemoveShard().ok());
  RegistrySnapshot mid = service.registry()->Snapshot();
  const MetricSnapshot* retired =
      mid.Find("fdrms_ops_applied_total", {{"shard", "2"}});
  ASSERT_NE(retired, nullptr);
  // The victim applied the migration deletes that drained it.
  EXPECT_GT(retired->counter_value, 0u);
  const uint64_t retired_applied = retired->counter_value;

  ASSERT_TRUE(service.AddShard().ok());
  RegistrySnapshot snap = service.registry()->Snapshot();
  const MetricSnapshot* old_series =
      snap.Find("fdrms_ops_applied_total", {{"shard", "2"}});
  const MetricSnapshot* new_series =
      snap.Find("fdrms_ops_applied_total", {{"shard", "2"}, {"gen", "1"}});
  ASSERT_NE(old_series, nullptr);
  ASSERT_NE(new_series, nullptr);
  // The dead instance's series is frozen; the reborn instance's series
  // covers only its own work (the slots migrated onto it).
  EXPECT_EQ(old_series->counter_value, retired_applied);
  auto reborn = service.shard(2).Query();
  ASSERT_NE(reborn, nullptr);
  EXPECT_EQ(new_series->counter_value, reborn->ops_applied);

  // Flush on the reborn constellation still means fully drained.
  ASSERT_TRUE(service.SubmitDelete(11).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->live_tuples, 239);
  ASSERT_TRUE(service.Stop().ok());
}

// ---------------------------------------------------------------------------
// SnapshotDelta: windowed views over a (before, after) snapshot pair
// ---------------------------------------------------------------------------

TEST(ObsSnapshotDelta, LabelSubsetMatching) {
  EXPECT_TRUE(LabelsMatchSubset({{"shard", "2"}, {"gen", "1"}},
                                {{"shard", "2"}}));
  EXPECT_TRUE(LabelsMatchSubset({{"shard", "2"}}, {}));
  EXPECT_FALSE(LabelsMatchSubset({{"shard", "2"}}, {{"shard", "3"}}));
  EXPECT_FALSE(LabelsMatchSubset({}, {{"shard", "2"}}));
  EXPECT_FALSE(LabelsMatchSubset({{"shard", "2"}},
                                 {{"shard", "2"}, {"gen", "1"}}));
}

TEST(ObsSnapshotDelta, CounterDeltaAndRateAcrossIncarnations) {
  MetricRegistry reg;
  Counter* s0 = reg.GetCounter("fdrms_ops_total", "ops", {{"shard", "0"}});
  Counter* s1 = reg.GetCounter("fdrms_ops_total", "ops", {{"shard", "1"}});
  s0->Increment(10);
  s1->Increment(5);
  RegistrySnapshot before = reg.Snapshot();
  s0->Increment(7);
  // Shard 1 is reborn inside the window: the gen series springs into
  // existence and must contribute its full value.
  Counter* s1g = reg.GetCounter("fdrms_ops_total", "ops",
                                {{"shard", "1"}, {"gen", "1"}});
  s1g->Increment(3);
  RegistrySnapshot after = reg.Snapshot();
  // Pin the window length so the rate assertion is exact.
  before.uptime_seconds = 1.0;
  after.uptime_seconds = 3.0;

  SnapshotDelta delta(before, after);
  EXPECT_EQ(delta.WindowSeconds(), 2.0);
  EXPECT_EQ(delta.CounterDelta("fdrms_ops_total"), 10u);  // 7 + 0 + 3
  EXPECT_EQ(delta.CounterDelta("fdrms_ops_total", {{"shard", "0"}}), 7u);
  EXPECT_EQ(delta.CounterDelta("fdrms_ops_total", {{"shard", "1"}}), 3u);
  EXPECT_EQ(delta.Rate("fdrms_ops_total", {{"shard", "0"}}), 3.5);
  EXPECT_EQ(delta.CounterDelta("absent"), 0u);
}

TEST(ObsSnapshotDelta, GaugeDeltaIgnoresFrozenIncarnations) {
  MetricRegistry reg;
  Gauge* retired = reg.GetGauge("fdrms_writer_busy_seconds", "busy",
                                {{"shard", "2"}});
  Gauge* live = reg.GetGauge("fdrms_writer_busy_seconds", "busy",
                             {{"shard", "2"}, {"gen", "1"}});
  retired->Set(40.0);  // frozen at the old incarnation's lifetime total
  live->Set(1.0);
  RegistrySnapshot before = reg.Snapshot();
  live->Add(0.5);  // only the live incarnation moves
  RegistrySnapshot after = reg.Snapshot();
  SnapshotDelta delta(before, after);
  EXPECT_DOUBLE_EQ(delta.GaugeDelta("fdrms_writer_busy_seconds",
                                    {{"shard", "2"}}),
                   0.5);
}

TEST(ObsSnapshotDelta, GaugeLatestPicksTheHighestGen) {
  MetricRegistry reg;
  reg.GetGauge("fdrms_queue_depth", "depth", {{"shard", "2"}})->Set(900.0);
  reg.GetGauge("fdrms_queue_depth", "depth", {{"shard", "2"}, {"gen", "1"}})
      ->Set(3.0);
  RegistrySnapshot before = reg.Snapshot();
  RegistrySnapshot after = reg.Snapshot();
  SnapshotDelta delta(before, after);
  // The retired incarnation's frozen depth (900) must not shadow the live
  // gen's level reading.
  EXPECT_DOUBLE_EQ(delta.GaugeLatest("fdrms_queue_depth", {{"shard", "2"}}),
                   3.0);
  EXPECT_DOUBLE_EQ(delta.GaugeLatest("absent"), 0.0);
}

TEST(ObsSnapshotDelta, HistQuantileSeesOnlyTheWindow) {
  MetricRegistry reg;
  LatencyHistogram* h =
      reg.GetLatencyHistogram("fdrms_publish_latency_us", "publish",
                              {{"shard", "0"}});
  // History: a thousand fast publications before the window.
  for (int i = 0; i < 1000; ++i) h->Record(2.0);
  RegistrySnapshot before = reg.Snapshot();
  // The window itself: 10 slow ones. A cumulative read would report a
  // fast p99; the windowed diff must see only the slow tail.
  for (int i = 0; i < 10; ++i) h->Record(5e5);
  RegistrySnapshot after = reg.Snapshot();
  SnapshotDelta delta(before, after);
  EXPECT_EQ(delta.HistCountDelta("fdrms_publish_latency_us"), 10u);
  EXPECT_GT(delta.HistQuantile("fdrms_publish_latency_us", 0.99), 1e5);
  // Empty window: quantile reports 0 (distinct from "fast").
  SnapshotDelta still(after, after);
  EXPECT_EQ(still.HistCountDelta("fdrms_publish_latency_us"), 0u);
  EXPECT_EQ(still.HistQuantile("fdrms_publish_latency_us", 0.99), 0.0);
}

TEST(ObsSnapshotDelta, Pow2HistQuantileUsesBucketFloors) {
  MetricRegistry reg;
  Pow2Histogram* h = reg.GetPow2Histogram("fdrms_queue_depth_hist", "depth");
  h->Record(1);
  RegistrySnapshot before = reg.Snapshot();
  for (int i = 0; i < 100; ++i) h->Record(70);  // bucket [64, 128)
  RegistrySnapshot after = reg.Snapshot();
  SnapshotDelta delta(before, after);
  EXPECT_EQ(delta.HistQuantile("fdrms_queue_depth_hist", 0.5), 64.0);
}

TEST(ObsRegistry, LifecycleEventsOutliveAFloodOfBatchEvents) {
  MetricRegistry reg;
  reg.lifecycle().Record("control.scale_up", 0, 0, 2, 0);
  { PhaseSpan span(&reg, nullptr, "migration.cutover", /*lifecycle=*/true); }
  for (size_t i = 0; i < 4 * reg.trace().capacity(); ++i) {
    reg.trace().Record("writer.batch", 10 + i, 1);
  }
  RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.trace.size(), reg.trace().capacity() + 2);
  EXPECT_EQ(snap.trace[0].name, "control.scale_up");  // oldest start first
  int cutovers = 0;
  for (size_t i = 0; i < snap.trace.size(); ++i) {
    if (snap.trace[i].name == "migration.cutover") ++cutovers;
    if (i > 0) {
      EXPECT_LE(snap.trace[i - 1].start_us, snap.trace[i].start_us);
    }
  }
  EXPECT_EQ(cutovers, 1);
}

TEST(ObsRegistry, SnapshotSynthesizesProcessSeries) {
  MetricRegistry reg;
  reg.GetCounter("fdrms_ops_total", "ops");
  RegistrySnapshot snap = reg.Snapshot();
  const MetricSnapshot* uptime = snap.Find("process_uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  EXPECT_EQ(uptime->type, MetricType::kGauge);
  EXPECT_EQ(uptime->gauge_value, snap.uptime_seconds);
  const MetricSnapshot* series = snap.Find("obs_registry_series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->gauge_value, 1.0);  // the synthesized pair not counted
  // And they render in the Prometheus exposition with HELP+TYPE.
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_registry_series gauge"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace fdrms
