/// Google-benchmark microbenchmarks of the substrates: kd-tree queries,
/// the utility index's reached scan, LP solves, skyline maintenance,
/// dynamic set-cover operations, the serving layer's lock-free update
/// queue, and the SoA scoring kernel vs the scalar Dot loop.
/// These are the per-operation costs the complexity analysis of Section
/// III-B — and the serving layer's throughput model — reason about.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/generators.h"
#include "geometry/sampling.h"
#include "geometry/score_kernel.h"
#include "geometry/simd_dispatch.h"
#include "index/conetree.h"
#include "index/kdtree.h"
#include "lp/simplex.h"
#include "serve/fdrms_service.h"
#include "serve/mpsc_ring_queue.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "setcover/dynamic_set_cover.h"
#include "shard/sharded_service.h"
#include "skyline/skyline.h"
#include "topk/topk_maintainer.h"

namespace fdrms {
namespace {

void BM_KdTreeTopK(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  PointSet data = GenerateIndep(n, d, 1);
  KdTree tree(d);
  for (int i = 0; i < n; ++i) (void)tree.Insert(i, data.Get(i));
  Rng rng(2);
  std::vector<Point> queries = SampleDirections(64, d, &rng);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.TopK(queries[qi++ % queries.size()], 5));
  }
}
BENCHMARK(BM_KdTreeTopK)->Args({1000, 4})->Args({10000, 4})->Args({10000, 8});

void BM_KdTreeInsertDelete(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int spare = 100000;
  PointSet data = GenerateIndep(n + spare, 6, 3);
  KdTree tree(6);
  for (int i = 0; i < n; ++i) (void)tree.Insert(i, data.Get(i));
  int next = n;
  for (auto _ : state) {
    // Fast trees run more iterations than there are spare points; reuse
    // them under fresh ids.
    (void)tree.Insert(next, data.Get(n + (next - n) % spare));
    (void)tree.Delete(next - n);
    ++next;
  }
}
BENCHMARK(BM_KdTreeInsertDelete)->Arg(1000)->Arg(10000)->Arg(50000);

/// The kd-tree after the paper's protocol over n Indep tuples: n/2 loaded,
/// the other n/2 inserted one by one, then a random n/2 deleted — the
/// state a delete repair queries. `rebuilt` rebuilds it from scratch first.
/// Times one ScoreRange at tau = 0.975 * omega_1 (the repair's bar) per
/// iteration, cycling over 256 utilities. The Churned/Rebuilt ratio gates
/// how far incremental maintenance lets the tree drift from a fresh build.
void KdTreeScoreRangeAfterProtocol(benchmark::State& state, bool rebuilt) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  PointSet data = GenerateIndep(n, d, 11);
  Rng rng(12);
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(&order);
  KdTree tree(d);
  for (int id : order) (void)tree.Insert(id, data.Get(id));
  rng.Shuffle(&order);
  for (int i = 0; i < n / 2; ++i) {
    (void)tree.Delete(order[static_cast<size_t>(i)]);
  }
  if (rebuilt) tree.Rebuild();
  std::vector<Point> utils = SampleUtilityVectors(256, d, &rng);
  std::vector<double> tau;
  for (const Point& u : utils) tau.push_back(0.975 * tree.TopK(u, 1)[0].score);
  std::vector<ScoredId> out;
  size_t qi = 0;
  for (auto _ : state) {
    const size_t q = qi++ % utils.size();
    tree.ScoreRange(utils[q], tau[q], &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KdTreeScoreRangeChurned(benchmark::State& state) {
  KdTreeScoreRangeAfterProtocol(state, /*rebuilt=*/false);
}
BENCHMARK(BM_KdTreeScoreRangeChurned)->Args({30000, 6});

void BM_KdTreeScoreRangeRebuilt(benchmark::State& state) {
  KdTreeScoreRangeAfterProtocol(state, /*rebuilt=*/true);
}
BENCHMARK(BM_KdTreeScoreRangeRebuilt)->Args({30000, 6});

void BM_ConeTreeFindReached(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(4);
  auto utils = SampleUtilityVectors(m, 6, &rng);
  ConeTree cone(utils);
  // Thresholds in [0.9, 1.0): a random Indep point at d=6 reaches ~60% of
  // the utilities, so this times the emit path as much as the scoring.
  for (int i = 0; i < m; ++i) cone.SetThreshold(i, 0.9 + 0.1 * rng.Uniform());
  PointSet data = GenerateIndep(256, 6, 5);
  int pi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cone.FindReached(data.Get(pi++ % 256)));
  }
}
BENCHMARK(BM_ConeTreeFindReached)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ConeTreeBruteForce(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(4);
  auto utils = SampleUtilityVectors(m, 6, &rng);
  ConeTree cone(utils);
  for (int i = 0; i < m; ++i) cone.SetThreshold(i, 0.9 + 0.1 * rng.Uniform());
  PointSet data = GenerateIndep(256, 6, 5);
  int pi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cone.FindReachedBruteForce(data.Get(pi++ % 256)));
  }
}
BENCHMARK(BM_ConeTreeBruteForce)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RegretWitnessLp(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int q_size = static_cast<int>(state.range(1));
  Rng rng(6);
  std::vector<double> p(d);
  for (double& v : p) v = rng.Uniform();
  std::vector<std::vector<double>> q(q_size, std::vector<double>(d));
  for (auto& row : q) {
    for (double& v : row) v = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxRegretForWitness(p, q));
  }
}
BENCHMARK(BM_RegretWitnessLp)->Args({4, 10})->Args({6, 50})->Args({9, 100});

void BM_DynamicSkylineInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PointSet data = GenerateAntiCor(n + 1000000, 6, 7);
  DynamicSkyline sky(6);
  for (int i = 0; i < n; ++i) (void)sky.Insert(i, data.Get(i), nullptr);
  int next = n;
  for (auto _ : state) {
    (void)sky.Insert(next, data.Get(next), nullptr);
    ++next;
  }
}
BENCHMARK(BM_DynamicSkylineInsert)->Arg(1000)->Arg(10000);

void BM_TopKMaintainerUpdate(benchmark::State& state) {
  const int M = static_cast<int>(state.range(0));
  Rng rng(8);
  auto utils = SampleUtilityVectors(M, 6, &rng);
  TopKMaintainer maintainer(6, 3, 0.02, utils);
  PointSet data = GenerateIndep(1000000, 6, 9);
  const int n0 = 5000;
  for (int i = 0; i < n0; ++i) (void)maintainer.Insert(i, data.Get(i), nullptr);
  int next = n0;
  for (auto _ : state) {
    (void)maintainer.Insert(next, data.Get(next), nullptr);
    (void)maintainer.Delete(next - n0, nullptr);
    ++next;
  }
}
BENCHMARK(BM_TopKMaintainerUpdate)->Arg(256)->Arg(1024);

/// One producers→consumer churn through the update queue: `producers`
/// threads each blocking-Push their share of `total_ops` ints while the
/// consumer drains PopBatch(64) until close. Returns the wall seconds of
/// the whole churn (thread spawn included, amortized by the op count). This
/// is the serving layer's exact access pattern, so it bounds the ingestion
/// rate the queue allows.
double QueueChurnSeconds(int producers, int total_ops) {
  MpscRingQueue<int> queue(4096);
  std::atomic<uint64_t> consumed{0};
  Stopwatch wall;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (queue.PopBatch(64, &batch)) {
      consumed.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> workers;
  const int per_producer = total_ops / producers;
  for (int t = 0; t < producers; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < per_producer; ++i) {
        (void)queue.Push(t * per_producer + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  queue.Close();
  consumer.join();
  const double seconds = wall.ElapsedSeconds();
  benchmark::DoNotOptimize(consumed.load());
  return seconds;
}

constexpr int kQueueChurnOps = 1 << 17;

void BM_QueueLockFreeRing(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.SetIterationTime(
        QueueChurnSeconds(producers, kQueueChurnOps));
  }
  state.SetItemsProcessed(state.iterations() * kQueueChurnOps);
}
BENCHMARK(BM_QueueLockFreeRing)->Arg(1)->Arg(2)->Arg(4)->UseManualTime();

/// Scalar reference of the scoring hot path: one point dotted against all
/// M utilities held as separately allocated Points.
void BM_ScoreScalarDotLoop(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(12);
  auto utils = SampleUtilityVectors(m, d, &rng);
  PointSet data = GenerateIndep(256, d, 13);
  std::vector<double> scores(static_cast<size_t>(m));
  int pi = 0;
  for (auto _ : state) {
    const Point& p = data.Get(pi++ % 256);
    for (int i = 0; i < m; ++i) scores[static_cast<size_t>(i)] = Dot(utils[static_cast<size_t>(i)], p);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ScoreScalarDotLoop)
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Args({2048, 16});

/// The same scoring through the contiguous ScoreMatrix and the blocked
/// kernel (geometry/score_kernel.h) at a forced SIMD tier. The scalar tier
/// is the PR 5 blocked-scalar kernel; the dispatched variant below runs
/// whatever cpuid resolves, so dispatched/forced-scalar items_per_second is
/// the SIMD speedup — and the ratio the perf-smoke gate watches (a
/// dispatch regression to scalar drags it to ~1.0 and fails the build).
void ScoreMatrixKernelAtTier(benchmark::State& state, SimdTier tier) {
  if (!SetSimdTier(tier)) {
    state.SkipWithError("tier unsupported on this build/CPU");
    return;
  }
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(12);
  ScoreMatrix mat(SampleUtilityVectors(m, d, &rng));
  PointSet data = GenerateIndep(256, d, 13);
  std::vector<double> scores;
  int pi = 0;
  for (auto _ : state) {
    mat.ScoreAll(data.Get(pi++ % 256), &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
  SetSimdTier(BestSupportedSimdTier());
}

void BM_ScoreMatrixKernelForcedScalar(benchmark::State& state) {
  ScoreMatrixKernelAtTier(state, SimdTier::kScalar);
}
BENCHMARK(BM_ScoreMatrixKernelForcedScalar)
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({256, 16})
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Args({2048, 16});

void BM_ScoreMatrixKernel(benchmark::State& state) {
  ScoreMatrixKernelAtTier(state, BestSupportedSimdTier());
}
BENCHMARK(BM_ScoreMatrixKernel)
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({256, 16})
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Args({2048, 16});

/// The gather kernel (ScoreSubset over a shuffled half of the rows) at the
/// forced-scalar tier vs the dispatched tier — the kd-tree ScoreIds /
/// TopKMaintainer eviction access pattern.
void ScoreSubsetGatherAtTier(benchmark::State& state, SimdTier tier) {
  if (!SetSimdTier(tier)) {
    state.SkipWithError("tier unsupported on this build/CPU");
    return;
  }
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(12);
  ScoreMatrix mat(SampleUtilityVectors(m, d, &rng));
  std::vector<int> idx(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) idx[static_cast<size_t>(i)] = i;
  rng.Shuffle(&idx);
  idx.resize(static_cast<size_t>(m / 2));
  PointSet data = GenerateIndep(256, d, 13);
  std::vector<double> scores(idx.size());
  int pi = 0;
  for (auto _ : state) {
    mat.ScoreSubset(data.Get(pi++ % 256), idx, scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(idx.size()));
  SetSimdTier(BestSupportedSimdTier());
}

/// The two-stage reached query behind ConeTree::FindReached (the insert
/// path's utility query) at the forced-scalar tier vs the dispatched tier,
/// with BM_ConeTreeFindReached's thresholds: most rows pass the float
/// prefilter, so the packing and the exact rescoring carry the time. CI
/// gates the ratio per d (bench/baselines/micro_kernel_smoke.json).
void ConeTreeScanAtTier(benchmark::State& state, SimdTier tier) {
  if (!SetSimdTier(tier)) {
    state.SkipWithError("tier unsupported on this build/CPU");
    return;
  }
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(4);
  ConeTree cone(SampleUtilityVectors(m, d, &rng));
  for (int i = 0; i < m; ++i) cone.SetThreshold(i, 0.9 + 0.1 * rng.Uniform());
  PointSet data = GenerateIndep(256, d, 5);
  std::vector<Point> probes;
  for (int i = 0; i < 256; ++i) probes.push_back(data.Get(i));
  std::vector<int> reached;
  std::vector<double> scores;
  size_t pi = 0;
  for (auto _ : state) {
    cone.FindReached(probes[pi++ % probes.size()], &reached, &scores);
    benchmark::DoNotOptimize(reached.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
  SetSimdTier(BestSupportedSimdTier());
}

void BM_ConeTreeScanForcedScalar(benchmark::State& state) {
  ConeTreeScanAtTier(state, SimdTier::kScalar);
}
BENCHMARK(BM_ConeTreeScanForcedScalar)
    ->Args({2048, 4})
    ->Args({2048, 6})
    ->Args({2048, 8});

void BM_ConeTreeScan(benchmark::State& state) {
  ConeTreeScanAtTier(state, BestSupportedSimdTier());
}
BENCHMARK(BM_ConeTreeScan)->Args({2048, 4})->Args({2048, 6})->Args({2048, 8});

/// The reached query at FD-RMS's own thresholds: tau(u) = (1 - eps) *
/// omega_1(u) over 15k Indep tuples, with the repository benchmark's eps
/// (0.05 at d=4, 0.025 at d=6), probed by 15k fresh Indep tuples. A probe
/// then reaches ~3.7 (d=4) or ~0.8 (d=6) of M=2048 utilities (the
/// reached_per_probe counter), so nearly all of the scan confirms a "no" —
/// the insert path's common case, where BM_ConeTreeScan's 40-75% reach
/// times the rescoring instead.
void BM_ConeTreeScanPaperThresholds(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const double eps = d <= 4 ? 0.05 : 0.025;
  Rng rng(21);
  std::vector<Point> utils = SampleUtilityVectors(m, d, &rng);
  ConeTree cone(utils);
  const PointSet data = GenerateIndep(15000, d, 22);
  std::vector<Point> rows;
  for (int i = 0; i < data.size(); ++i) rows.push_back(data.Get(i));
  const ScoreMatrix slab(rows);
  std::vector<double> scores;
  for (int i = 0; i < m; ++i) {
    slab.ScoreAll(utils[static_cast<size_t>(i)], &scores);
    cone.SetThreshold(
        i, (1.0 - eps) * *std::max_element(scores.begin(), scores.end()));
  }
  const PointSet probe_set = GenerateIndep(15000, d, 23);
  std::vector<Point> probes;
  for (int i = 0; i < probe_set.size(); ++i) probes.push_back(probe_set.Get(i));
  std::vector<int> reached;
  std::vector<double> reached_scores;
  size_t pi = 0;
  int64_t total_reached = 0;
  for (auto _ : state) {
    cone.FindReached(probes[pi++ % probes.size()], &reached, &reached_scores);
    total_reached += static_cast<int64_t>(reached.size());
    benchmark::DoNotOptimize(reached.data());
    benchmark::DoNotOptimize(reached_scores.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
  state.counters["reached_per_probe"] =
      static_cast<double>(total_reached) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_ConeTreeScanPaperThresholds)->Args({2048, 4})->Args({2048, 6});

void BM_ScoreSubsetGatherForcedScalar(benchmark::State& state) {
  ScoreSubsetGatherAtTier(state, SimdTier::kScalar);
}
BENCHMARK(BM_ScoreSubsetGatherForcedScalar)->Args({2048, 8});

void BM_ScoreSubsetGather(benchmark::State& state) {
  ScoreSubsetGatherAtTier(state, BestSupportedSimdTier());
}
BENCHMARK(BM_ScoreSubsetGather)->Args({2048, 8});

void BM_SetCoverMembershipChurn(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(10);
  DynamicSetCover cover(m);
  const int num_sets = m * 2;
  for (int e = 0; e < m; ++e) {
    for (int j = 0; j < 8; ++j) cover.AddMembership(e, rng.UniformInt(num_sets));
  }
  std::vector<int> universe(m);
  for (int i = 0; i < m; ++i) universe[i] = i;
  cover.InitializeGreedy(universe);
  for (auto _ : state) {
    int e = rng.UniformInt(m);
    int s = rng.UniformInt(num_sets);
    if (rng.Uniform() < 0.5) {
      cover.AddMembership(e, s);
    } else {
      cover.RemoveMembership(e, s);
    }
  }
}
BENCHMARK(BM_SetCoverMembershipChurn)->Arg(256)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// Read path: a cache-hit merged Query() on a started S-shard constellation
// with no writes in flight, against one FdRmsService::Query() (a single
// atomic shared_ptr load, the path S=1 deployments take). CI gates the
// ratio (see bench/baselines/micro_kernel_smoke.json): a hit must stay a
// handful of atomic loads, not a per-shard snapshot load plus allocations.
// ---------------------------------------------------------------------------

ShardedServiceOptions QueryBenchOptions(int shards) {
  ShardedServiceOptions opt;
  opt.num_shards = shards;
  opt.shard.algo.r = 10;
  opt.shard.algo.max_utilities = 256;
  opt.health_poll_every_ms = 0;
  opt.manifest_commit_every_ms = 0;
  return opt;
}

std::vector<std::pair<int, Point>> QueryBenchTuples() {
  PointSet ps = GenerateIndep(2000, 4, 5);
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < ps.size(); ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

void BM_ServiceQueryReference(benchmark::State& state) {
  FdRmsService service(4, QueryBenchOptions(1).shard);
  if (!service.Start(QueryBenchTuples()).ok()) {
    state.SkipWithError("Start failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Query());
  }
  state.SetItemsProcessed(state.iterations());
  (void)service.Stop();
}
BENCHMARK(BM_ServiceQueryReference);

void BM_ShardedQueryHit(benchmark::State& state) {
  ShardedFdRmsService service(
      4, QueryBenchOptions(static_cast<int>(state.range(0))));
  if (!service.Start(QueryBenchTuples()).ok() || !service.Flush().ok() ||
      service.Query() == nullptr) {
    state.SkipWithError("Start failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Query());
  }
  state.SetItemsProcessed(state.iterations());
  (void)service.Stop();
}
BENCHMARK(BM_ShardedQueryHit)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Observability substrate: hot-path instrumentation cost. The serving layer
// sprinkles counter increments and histogram records through the writer
// loop, so these must stay within a few nanoseconds of the bare relaxed
// fetch_add they wrap (the stripe lookup is one thread_local read). CI
// gates the ratio against BM_ObsAtomicFetchAddReference (see
// bench/baselines/obs_overhead_smoke.json).
// ---------------------------------------------------------------------------

void BM_ObsAtomicFetchAddReference(benchmark::State& state) {
  // The floor: one uncontended relaxed fetch_add, no striping.
  static std::atomic<uint64_t> plain{0};
  for (auto _ : state) {
    plain.fetch_add(1, std::memory_order_relaxed);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(plain.load());
}
BENCHMARK(BM_ObsAtomicFetchAddReference);

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_total", "bench");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsPow2HistRecord(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Pow2Histogram* hist = registry.GetPow2Histogram("bench_pow2", "bench");
  uint64_t v = 0;
  for (auto _ : state) {
    hist->Record(v++ & 1023);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_ObsPow2HistRecord);

void BM_ObsLatencyHistRecord(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::LatencyHistogram* hist =
      registry.GetLatencyHistogram("bench_lat_us", "bench");
  double us = 0.0;
  for (auto _ : state) {
    hist->Record(us);
    us += 0.5;
    if (us > 1e6) us = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_ObsLatencyHistRecord);

}  // namespace
}  // namespace fdrms

BENCHMARK_MAIN();
