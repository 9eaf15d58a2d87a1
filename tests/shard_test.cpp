#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault_point.h"
#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "geometry/sampling.h"
#include "shard/sharded_service.h"

// All suites here are named Shard* on purpose: the `tsan` CMake test preset
// (and the CI ThreadSanitizer job) selects them with the regex
// ^(Serve|Shard).

namespace fdrms {
namespace {

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps, int count) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

/// Replays `ops` sequentially on a fresh FdRms with the service's per-op
/// semantics (rejected operations are skipped, the rest keep going).
std::unique_ptr<FdRms> SequentialReplay(
    int dim, const FdRmsOptions& opt,
    const std::vector<std::pair<int, Point>>& initial,
    const std::vector<FdRms::BatchOp>& ops) {
  auto algo = std::make_unique<FdRms>(dim, opt);
  EXPECT_TRUE(algo->Initialize(initial).ok());
  for (const FdRms::BatchOp& op : ops) {
    switch (op.kind) {
      case FdRms::BatchOp::Kind::kInsert:
        (void)algo->Insert(op.id, op.point);
        break;
      case FdRms::BatchOp::Kind::kDelete:
        (void)algo->Delete(op.id);
        break;
      case FdRms::BatchOp::Kind::kUpdate:
        (void)algo->Update(op.id, op.point);
        break;
    }
  }
  return algo;
}

TEST(ShardRouterTest, HashRouterIsDeterministicAndInRange) {
  auto a = RoutingTable::Slotted(4);
  auto b = RoutingTable::Slotted(4);
  EXPECT_EQ(a->num_shards(), 4);
  for (int id : {-7, 0, 1, 2, 41, 999, 123456789}) {
    const int slot = HashSlotOf(id);
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, kNumHashSlots);
    EXPECT_EQ(slot, HashSlotOf(id)) << "id " << id;  // stable across calls
    int shard = a->Route(id);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, b->Route(id)) << "id " << id;
    EXPECT_EQ(shard, a->Route(id)) << "id " << id;
  }
}

TEST(ShardRouterTest, HashRouterBalancesSequentialIds) {
  // Sequential ids are the adversarial-but-typical case (auto-increment
  // keys); the finalizer hash must spread them evenly.
  const int kShards = 4;
  const int kIds = 20000;
  auto table = RoutingTable::Slotted(kShards);
  std::vector<int> counts(kShards, 0);
  std::vector<int> slot_counts(kNumHashSlots, 0);
  for (int id = 0; id < kIds; ++id) {
    ++counts[table->Route(id)];
    ++slot_counts[HashSlotOf(id)];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kIds / kShards - kIds / 10) << "shard " << s;
    EXPECT_LT(counts[s], kIds / kShards + kIds / 10) << "shard " << s;
  }
  // Each slot gets its share too (~78 ids here), so moving a slot moves a
  // predictable slice of the id space.
  const int per_slot = kIds / kNumHashSlots;
  for (int slot = 0; slot < kNumHashSlots; ++slot) {
    EXPECT_GT(slot_counts[slot], per_slot / 2) << "slot " << slot;
    EXPECT_LT(slot_counts[slot], per_slot * 2) << "slot " << slot;
  }
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToZero) {
  auto table = RoutingTable::Slotted(1);
  for (int id = 0; id < 100; ++id) EXPECT_EQ(table->Route(id), 0);
}

TEST(ShardedServiceTest, StartPublishesMergedVersionZeroVector) {
  PointSet ps = GenerateIndep(240, 3, 11);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  ShardedFdRmsService service(3, sopt);
  EXPECT_EQ(service.Query(), nullptr);  // nothing published pre-Start
  ASSERT_TRUE(service.Start(AsTuples(ps, 240)).ok());
  EXPECT_TRUE(service.running());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->versions, (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ(merged->ops_applied, 0u);
  EXPECT_EQ(merged->live_tuples, 240);
  EXPECT_EQ(merged->union_size, merged->ids.size());
  EXPECT_FALSE(merged->reduced);
  EXPECT_LE(static_cast<int>(merged->ids.size()), 3 * 6);
  EXPECT_EQ(merged->ids.size(), merged->points.size());
  EXPECT_TRUE(std::is_sorted(merged->ids.begin(), merged->ids.end()));
  EXPECT_EQ(std::adjacent_find(merged->ids.begin(), merged->ids.end()),
            merged->ids.end());
  ASSERT_EQ(merged->shards.size(), 3u);
  int live_sum = 0;
  for (const auto& part : merged->shards) {
    ASSERT_NE(part, nullptr);
    live_sum += part->live_tuples;
  }
  EXPECT_EQ(live_sum, 240);
  EXPECT_GE(service.publications(), 3u);  // one version-0 publication each
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_FALSE(service.running());
}

TEST(ShardedServiceTest, LifecycleFailuresSurfaceAsStatuses) {
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.max_utilities = 32;
  ShardedFdRmsService service(2, sopt);
  EXPECT_EQ(service.SubmitDelete(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stop().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Start({{0, {0.3, 0.4}}, {1, {0.5, 0.2}}}).ok());
  EXPECT_EQ(service.Start({}).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_TRUE(service.Stop().ok());  // idempotent, like the per-shard Stop
  EXPECT_EQ(service.SubmitInsert(9, {0.1, 0.1}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedServiceTest, FailedStartTearsTheConstellationDownAndAllowsRetry) {
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.max_utilities = 32;
  ShardedFdRmsService service(2, sopt);
  // A duplicate id makes the owning shard's bulk load fail.
  Status st = service.Start({{7, {0.3, 0.4}}, {7, {0.5, 0.2}}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(service.Query(), nullptr);  // no merged view over a partial start
  EXPECT_FALSE(service.running());
  // The constellation was rebuilt: a corrected Start succeeds.
  ASSERT_TRUE(service.Start({{7, {0.3, 0.4}}, {8, {0.5, 0.2}}}).ok());
  EXPECT_TRUE(service.running());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->live_tuples, 2);
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ShardedServiceTest, RoutesEveryOperationToItsOwningShard) {
  PointSet ps = GenerateIndep(300, 3, 12);
  ShardedServiceOptions sopt;
  sopt.num_shards = 4;
  sopt.shard.algo.r = 5;
  sopt.shard.algo.max_utilities = 64;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 200)).ok());
  for (int i = 200; i < 300; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(service.SubmitDelete(i).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  size_t journaled = 0;
  for (int s = 0; s < service.num_shards(); ++s) {
    for (const FdRms::BatchOp& op : service.shard(s).journal()) {
      EXPECT_EQ(service.router().Route(op.id), s)
          << "id " << op.id << " journaled on shard " << s;
    }
    journaled += service.shard(s).journal().size();
  }
  EXPECT_EQ(journaled, 160u);
}

// The tentpole correctness scenario: concurrent submitters churn the
// sharded service; afterwards every shard must equal a sequential replay of
// its own journal, and the merged view must equal the union of the shard
// results.
TEST(ShardedServiceTest, MergedMatchesPerShardJournalReplay) {
  PointSet ps = GenerateAntiCor(240, 3, 13);
  Workload wl(&ps, 37);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 8;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.max_batch = 8;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(service.Start(initial).ok());

  const auto& ops = wl.operations();
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < ops.size(); i += 2) {
        Status st = ops[i].is_insert
                        ? service.SubmitInsert(ops[i].id, ps.Get(ops[i].id))
                        : service.SubmitDelete(ops[i].id);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  ASSERT_TRUE(service.Stop().ok());

  // Every submitted op was consumed exactly once, on exactly one shard.
  EXPECT_EQ(merged->ops_applied + merged->ops_rejected, ops.size());

  std::vector<int> union_of_replays;
  for (int s = 0; s < service.num_shards(); ++s) {
    std::vector<std::pair<int, Point>> shard_initial;
    for (const auto& [id, point] : initial) {
      if (service.router().Route(id) == s) shard_initial.emplace_back(id, point);
    }
    auto replay = SequentialReplay(3, sopt.shard.algo, shard_initial,
                                   service.shard(s).journal());
    EXPECT_EQ(merged->shards[s]->ids, replay->Result()) << "shard " << s;
    EXPECT_EQ(merged->shards[s]->sample_size_m, replay->current_m());
    EXPECT_EQ(merged->shards[s]->live_tuples, replay->size());
    EXPECT_EQ(service.shard(s).algorithm().Result(), replay->Result());
    ASSERT_TRUE(service.shard(s).algorithm().Validate().ok());
    for (int id : replay->Result()) union_of_replays.push_back(id);
  }
  std::sort(union_of_replays.begin(), union_of_replays.end());
  union_of_replays.erase(
      std::unique(union_of_replays.begin(), union_of_replays.end()),
      union_of_replays.end());
  EXPECT_EQ(merged->ids, union_of_replays);
}

// The merged result's quality guarantee: with a shared utility-sampling
// seed, every utility in the shared prefix (index < min over shards of m_s)
// is covered by the owning shard's (1-ε) bound, so for k=1 the merged set
// meets the same regret-ratio oracle bound fdrms_test.cpp checks for a
// single instance — omega recomputed brute-force over the *global* live
// set. A single-instance run over the identical stream must not beat the
// merged result by more than noise on sampled directions.
TEST(ShardedServiceTest, MergedRegretMeetsEpsBoundOnSharedUtilityPrefix) {
  const double eps = 0.05;
  PointSet ps = GenerateIndep(360, 3, 14);
  Workload wl(&ps, 41);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.k = 1;
  sopt.shard.algo.r = 8;
  sopt.shard.algo.eps = eps;
  sopt.shard.algo.max_utilities = 256;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(service.Start(initial).ok());
  // One submitter keeps the stream ordered: no rejects, so the final live
  // set is exactly the workload's definition.
  for (const Operation& op : wl.operations()) {
    Status st = op.is_insert ? service.SubmitInsert(op.id, ps.Get(op.id))
                             : service.SubmitDelete(op.id);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(merged->ops_rejected, 0u);

  const std::vector<int> live =
      wl.LiveIdsAfter(static_cast<int>(wl.operations().size()) - 1);
  EXPECT_EQ(static_cast<int>(live.size()), merged->live_tuples);

  // All shards drew the same utility sequence (shared seed).
  const std::vector<Point>& utilities =
      service.shard(0).algorithm().topk().utilities();
  ASSERT_GE(merged->min_sample_size_m, 1);
  for (int s = 1; s < service.num_shards(); ++s) {
    const std::vector<Point>& other =
        service.shard(s).algorithm().topk().utilities();
    for (int i = 0; i < merged->min_sample_size_m; ++i) {
      ASSERT_EQ(utilities[i], other[i]) << "shard " << s << " utility " << i;
    }
  }

  for (int i = 0; i < merged->min_sample_size_m; ++i) {
    const Point& u = utilities[i];
    double omega = 0.0;
    for (int id : live) omega = std::max(omega, Dot(u, ps.Get(id)));
    double best = 0.0;
    for (int id : merged->ids) best = std::max(best, Dot(u, ps.Get(id)));
    EXPECT_GE(best, (1.0 - eps) * omega - 1e-9)
        << "utility " << i << ": merged regret ratio " << 1.0 - best / omega
        << " exceeds eps=" << eps;
  }

  // Quality parity with one instance maintaining the whole tuple space.
  std::vector<FdRms::BatchOp> stream;
  for (const Operation& op : wl.operations()) {
    stream.push_back({op.is_insert ? FdRms::BatchOp::Kind::kInsert
                                   : FdRms::BatchOp::Kind::kDelete,
                      op.id, op.is_insert ? ps.Get(op.id) : Point{}});
  }
  auto single = SequentialReplay(3, sopt.shard.algo, initial, stream);
  auto regret_of = [&](const std::vector<int>& q) {
    Rng eval_rng(321);
    double worst = 0.0;
    for (int s = 0; s < 2000; ++s) {
      Point u = SampleUnitVectorNonneg(3, &eval_rng);
      double omega = 0.0;
      for (int id : live) omega = std::max(omega, Dot(u, ps.Get(id)));
      double best = 0.0;
      for (int id : q) best = std::max(best, Dot(u, ps.Get(id)));
      if (omega > 0.0) worst = std::max(worst, 1.0 - best / omega);
    }
    return worst;
  };
  EXPECT_LE(regret_of(merged->ids), regret_of(single->Result()) + 0.05);
}

TEST(ShardedServiceTest, DrainStopAppliesEverythingQueuedOnEveryShard) {
  PointSet ps = GenerateIndep(200, 2, 15);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 5;
  sopt.shard.algo.max_utilities = 64;
  sopt.shard.max_batch = 4;
  sopt.shard.batch_delay_us_for_test = 300;
  ShardedFdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Stop(ShardedFdRmsService::StopPolicy::kDrain).ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->ops_applied, 100u);
  EXPECT_EQ(merged->live_tuples, 200);
  EXPECT_EQ(service.ops_dropped(), 0u);
}

TEST(ShardedServiceTest, AbortStopDropsBacklogsAcrossShards) {
  PointSet ps = GenerateIndep(300, 2, 16);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 5;
  sopt.shard.algo.max_utilities = 64;
  sopt.shard.max_batch = 1;
  sopt.shard.batch_delay_us_for_test = 3000;
  ShardedFdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 300; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Stop(ShardedFdRmsService::StopPolicy::kAbort).ok());
  // 200 ops at >= 3ms each would take >= 600ms; submission took far less,
  // so both shards must have found backlogs to drop.
  EXPECT_GT(service.ops_dropped(), 0u);
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->ops_applied + merged->ops_rejected + service.ops_dropped(),
            200u);
  EXPECT_EQ(service.Flush().code(), StatusCode::kFailedPrecondition);
  // Each shard still published a consistent prefix of its own stream.
  EXPECT_EQ(merged->live_tuples, 100 + static_cast<int>(merged->ops_applied));
}

TEST(ShardedServiceTest, TopUpReCoverRespectsGlobalBudget) {
  PointSet ps = GenerateAntiCor(400, 3, 18);
  ShardedServiceOptions sopt;
  sopt.num_shards = 4;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.merged_budget_r = 8;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 400)).ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  ASSERT_GT(merged->union_size, 8u)
      << "anti-correlated shards should fill their budgets";
  EXPECT_TRUE(merged->reduced);
  EXPECT_LE(static_cast<int>(merged->ids.size()), 8);
  EXPECT_GE(merged->ids.size(), 1u);
  EXPECT_TRUE(std::is_sorted(merged->ids.begin(), merged->ids.end()));
  // The re-covered result is a subset of the union of shard results.
  std::unordered_set<int> union_ids;
  for (const auto& part : merged->shards) {
    union_ids.insert(part->ids.begin(), part->ids.end());
  }
  for (size_t i = 0; i < merged->ids.size(); ++i) {
    EXPECT_TRUE(union_ids.count(merged->ids[i])) << merged->ids[i];
    EXPECT_EQ(merged->points[i], ps.Get(merged->ids[i]));
  }
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ShardedServiceTest, QueryCachesMergeUntilAShardPublishes) {
  FaultPoints::Reset();
  PointSet ps = GenerateIndep(150, 2, 19);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 4;
  sopt.shard.algo.max_utilities = 64;
  sopt.health_poll_every_ms = 0;
  ShardedFdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  auto a = service.Query();
  auto b = service.Query();
  EXPECT_EQ(a.get(), b.get());  // no publication in between: cache hit
  ASSERT_TRUE(service.SubmitInsert(120, ps.Get(120)).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto c = service.Query();
  EXPECT_NE(a.get(), c.get());
  EXPECT_GE(c->versions[service.router().Route(120)], 1u);

  // A writer death publishes nothing, yet the next read must re-merge to
  // flag the dead component.
  const int victim = service.router().Route(121);
  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  ASSERT_TRUE(service.SubmitInsert(121, ps.Get(121)).ok());
  for (int i = 0; i < 10000 && service.shard(victim).health() !=
                                   FdRmsService::Health::kDead;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FaultPoints::Reset();
  ASSERT_EQ(service.shard(victim).health(), FdRmsService::Health::kDead);
  auto d = service.Query();
  EXPECT_NE(d.get(), c.get());
  EXPECT_EQ(d->versions, c->versions);
  EXPECT_TRUE(d->degraded[static_cast<size_t>(victim)]);
  EXPECT_EQ(service.Query().get(), d.get());  // the degraded merge is cached

  ASSERT_TRUE(service.ReviveShard(victim).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto e = service.Query();
  EXPECT_EQ(e->degraded_shards, 0);

  // So does a topology change: migrating a slot that holds no tuple moves
  // nothing and publishes nothing but the next epoch.
  std::vector<bool> occupied(kNumHashSlots, false);
  for (int id = 0; id < 150; ++id) occupied[HashSlotOf(id)] = true;
  const int empty_slot = static_cast<int>(
      std::find(occupied.begin(), occupied.end(), false) - occupied.begin());
  ASSERT_LT(empty_slot, kNumHashSlots);
  ASSERT_TRUE(
      service.Migrate(MigrationPlan::Slots({empty_slot}, 1 - victim)).ok());
  auto f = service.Query();
  EXPECT_NE(f.get(), e.get());
  EXPECT_EQ(f->versions, e->versions);
  EXPECT_EQ(f->epoch, e->epoch + 1);
  EXPECT_EQ(service.Query().get(), f.get());
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ShardedDriverTest, ShardedLoadRunDrainsWorkloadAndStaysConsistent) {
  PointSet ps = GenerateIndep(240, 3, 21);
  Workload wl(&ps, 19);
  ShardedLoadOptions lopt;
  lopt.num_readers = 2;
  lopt.num_submitters = 2;
  lopt.service.num_shards = 2;
  lopt.service.shard.algo.r = 6;
  lopt.service.shard.algo.max_utilities = 128;
  lopt.service.shard.max_batch = 16;
  ShardedLoadResult res = RunShardedLoad(wl, lopt);
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.ops_submitted, wl.operations().size());
  EXPECT_EQ(res.ops_applied + res.ops_rejected, res.ops_submitted);
  EXPECT_EQ(res.submit_failures, 0u);
  EXPECT_GT(res.queries, 0u);
  EXPECT_GT(res.batches, 0u);
  EXPECT_GT(res.update_throughput, 0.0);
  EXPECT_GT(res.update_capacity, 0.0);
  EXPECT_GT(res.query_throughput, 0.0);
  EXPECT_LE(res.final_result_size, 2 * 6);
  ASSERT_EQ(res.per_shard_applied.size(), 2u);
  EXPECT_EQ(res.per_shard_applied[0] + res.per_shard_applied[1],
            res.ops_applied);
  ASSERT_EQ(res.per_shard_busy_seconds.size(), 2u);
  ASSERT_EQ(res.per_shard_mean_staleness.size(), 2u);
  ASSERT_EQ(res.final_versions.size(), 2u);
  EXPECT_GE(res.max_staleness_ops, res.mean_staleness_ops);
  EXPECT_GE(res.publish_p99_us, res.publish_p50_us);
}

}  // namespace
}  // namespace fdrms
