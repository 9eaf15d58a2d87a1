#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "core/fdrms.h"
#include "data/generators.h"
#include "eval/workload.h"
#include "geometry/sampling.h"

namespace fdrms {
namespace {

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < ps.size(); ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

FdRmsOptions Options(int k, int r, double eps = 0.05, int M = 256,
                     uint64_t seed = 7) {
  FdRmsOptions opt;
  opt.k = k;
  opt.r = r;
  opt.eps = eps;
  opt.max_utilities = M;
  opt.seed = seed;
  return opt;
}

TEST(FdRmsTest, InitializeRespectsBudget) {
  PointSet ps = GenerateIndep(500, 3, 1);
  FdRms algo(3, Options(1, 10));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  std::vector<int> q = algo.Result();
  EXPECT_LE(static_cast<int>(q.size()), 10);
  EXPECT_GE(static_cast<int>(q.size()), 1);
  EXPECT_TRUE(algo.Validate().ok());
}

TEST(FdRmsTest, DoubleInitializeFails) {
  PointSet ps = GenerateIndep(50, 2, 2);
  FdRms algo(2, Options(1, 5));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  EXPECT_EQ(algo.Initialize(AsTuples(ps)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FdRmsTest, MutationBeforeInitializeFails) {
  FdRms algo(2, Options(1, 5));
  EXPECT_EQ(algo.Insert(0, {0.5, 0.5}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(algo.Delete(0).code(), StatusCode::kFailedPrecondition);
}

TEST(FdRmsTest, ApplyBatchRejectsBeginPastTheEnd) {
  PointSet ps = GenerateIndep(60, 2, 3);
  FdRms algo(2, Options(1, 5));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  const std::vector<int> before = algo.Result();
  std::vector<FdRms::BatchOp> ops;
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 100, {0.9, 0.9}});
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 0, {}});
  size_t applied = 12345;
  EXPECT_EQ(algo.ApplyBatch(ops, /*begin=*/3, &applied).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(applied, 0u);
  EXPECT_FALSE(algo.topk().tree().Contains(100));
  EXPECT_EQ(algo.Result(), before);
  // begin == size() is an empty suffix, not an error.
  applied = 12345;
  ASSERT_TRUE(algo.ApplyBatch(ops, /*begin=*/2, &applied).ok());
  EXPECT_EQ(applied, 0u);
  EXPECT_TRUE(algo.Validate().ok());
}

TEST(FdRmsTest, ResultCoversEveryUniverseUtility) {
  // Feasibility certificate: for every universe utility, some result tuple
  // is an ε-approximate top-k tuple.
  PointSet ps = GenerateAntiCor(400, 4, 3);
  FdRms algo(4, Options(1, 15));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  std::vector<int> q = algo.Result();
  std::unordered_set<int> q_set(q.begin(), q.end());
  for (int u = 0; u < algo.current_m(); ++u) {
    const auto& phi = algo.topk().ApproxTopK(u);
    bool covered = false;
    for (int id : phi) {
      if (q_set.count(id) > 0) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "utility " << u << " not covered";
  }
}

TEST(FdRmsTest, InsertionsAndDeletionsKeepInvariants) {
  Rng rng(11);
  PointSet ps = GenerateIndep(600, 3, 4);
  std::vector<std::pair<int, Point>> tuples = AsTuples(ps);
  // Start with the first 300 tuples.
  std::vector<std::pair<int, Point>> initial(tuples.begin(),
                                             tuples.begin() + 300);
  FdRms algo(3, Options(1, 12));
  ASSERT_TRUE(algo.Initialize(initial).ok());
  std::unordered_set<int> live;
  for (int i = 0; i < 300; ++i) live.insert(i);
  for (int i = 300; i < 600; ++i) {
    ASSERT_TRUE(algo.Insert(i, ps.Get(i)).ok());
    live.insert(i);
    if (i % 3 == 0) {
      int victim = *live.begin();
      ASSERT_TRUE(algo.Delete(victim).ok());
      live.erase(victim);
    }
    if (i % 60 == 0) {
      ASSERT_TRUE(algo.Validate().ok()) << "at insert " << i;
      EXPECT_LE(static_cast<int>(algo.Result().size()), 12);
    }
  }
  ASSERT_TRUE(algo.Validate().ok());
}

TEST(FdRmsTest, DeletingResultMembersStillWorks) {
  PointSet ps = GenerateIndep(300, 3, 5);
  FdRms algo(3, Options(1, 8));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  // Repeatedly delete the entire current result; the algorithm must heal.
  std::unordered_set<int> deleted;
  for (int round = 0; round < 10; ++round) {
    std::vector<int> q = algo.Result();
    ASSERT_FALSE(q.empty());
    for (int id : q) {
      ASSERT_TRUE(algo.Delete(id).ok());
      deleted.insert(id);
    }
    ASSERT_TRUE(algo.Validate().ok()) << "round " << round;
  }
  EXPECT_GE(deleted.size(), 40u);
}

TEST(FdRmsTest, DeleteDownToEmptyAndRebuild) {
  PointSet ps = GenerateIndep(60, 2, 6);
  FdRms algo(2, Options(1, 5, 0.05, 64));
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(algo.Delete(i).ok());
  }
  EXPECT_TRUE(algo.Result().empty());
  EXPECT_EQ(algo.size(), 0);
  // Insert fresh tuples into the emptied structure.
  Rng rng(8);
  for (int i = 100; i < 160; ++i) {
    ASSERT_TRUE(algo.Insert(i, {rng.Uniform(), rng.Uniform()}).ok());
  }
  ASSERT_TRUE(algo.Validate().ok());
  EXPECT_FALSE(algo.Result().empty());
}

TEST(FdRmsTest, KGreaterThanOneMaintainsInvariants) {
  PointSet ps = GenerateAntiCor(400, 3, 7);
  for (int k : {2, 3, 5}) {
    FdRms algo(3, Options(k, 10));
    ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
    ASSERT_TRUE(algo.Validate().ok()) << "k=" << k;
    for (int i = 400; i < 450; ++i) {
      ASSERT_TRUE(algo.Insert(i, {0.3, 0.9, 0.5}).ok());
      ASSERT_TRUE(algo.Delete(i - 400).ok());
    }
    ASSERT_TRUE(algo.Validate().ok()) << "k=" << k;
  }
}

TEST(FdRmsTest, DynamicQualityMatchesFromScratchRebuild) {
  // After heavy churn, the maintained result should be roughly as good as
  // re-initializing FD-RMS from scratch on the same snapshot.
  PointSet ps = GenerateIndep(800, 3, 9);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 400; ++i) initial.emplace_back(i, ps.Get(i));
  FdRmsOptions opt = Options(1, 10);
  FdRms dynamic(3, opt);
  ASSERT_TRUE(dynamic.Initialize(initial).ok());
  std::unordered_set<int> live;
  for (int i = 0; i < 400; ++i) live.insert(i);
  Rng rng(10);
  for (int i = 400; i < 800; ++i) {
    ASSERT_TRUE(dynamic.Insert(i, ps.Get(i)).ok());
    live.insert(i);
    int victim = *live.begin();
    ASSERT_TRUE(dynamic.Delete(victim).ok());
    live.erase(victim);
  }
  FdRms fresh(3, opt);
  std::vector<std::pair<int, Point>> snapshot;
  for (int id : live) snapshot.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(fresh.Initialize(snapshot).ok());
  // Compare sampled regrets of both results on the same snapshot.
  auto regret_of = [&](const std::vector<int>& q) {
    Rng eval_rng(123);
    double worst = 0.0;
    for (int s = 0; s < 3000; ++s) {
      Point u = SampleUnitVectorNonneg(3, &eval_rng);
      double omega = 0.0;
      for (int id : live) omega = std::max(omega, Dot(u, ps.Get(id)));
      double best = 0.0;
      for (int id : q) best = std::max(best, Dot(u, ps.Get(id)));
      if (omega > 0.0) worst = std::max(worst, 1.0 - best / omega);
    }
    return worst;
  };
  double dynamic_regret = regret_of(dynamic.Result());
  double fresh_regret = regret_of(fresh.Result());
  EXPECT_LE(dynamic_regret, fresh_regret + 0.05)
      << "dynamic " << dynamic_regret << " vs fresh " << fresh_regret;
}

TEST(FdRmsTest, RegretMeetsEpsBoundOnSampledUtilitiesAfterChurn) {
  // Oracle check of the cover guarantee: after an arbitrary update stream,
  // every universe utility u_i must have some q in Q_t with
  //   <u_i, q> >= (1 - eps) * omega_k(u_i, P_t),
  // i.e. the k-regret ratio of Q_t over the sampled universe is <= eps.
  // omega_k is recomputed brute-force from the live tuples, independently
  // of the maintained dual-tree state.
  const double eps = 0.05;
  const int k = 2;
  PointSet ps = GenerateIndep(500, 3, 17);
  FdRms algo(3, Options(k, 12, eps));
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 250; ++i) initial.emplace_back(i, ps.Get(i));
  ASSERT_TRUE(algo.Initialize(initial).ok());
  std::unordered_set<int> live;
  for (int i = 0; i < 250; ++i) live.insert(i);
  Rng rng(29);
  for (int i = 250; i < 500; ++i) {
    ASSERT_TRUE(algo.Insert(i, ps.Get(i)).ok());
    live.insert(i);
    if (rng.Uniform() < 0.5) {
      int victim = *live.begin();
      ASSERT_TRUE(algo.Delete(victim).ok());
      live.erase(victim);
    }
  }
  const std::vector<int> q = algo.Result();
  ASSERT_FALSE(q.empty());
  const std::vector<Point>& utilities = algo.topk().utilities();
  for (int i = 0; i < algo.current_m(); ++i) {
    const Point& u = utilities[i];
    // Brute-force omega_k(u, P_t): k-th largest score among live tuples.
    std::vector<double> scores;
    scores.reserve(live.size());
    for (int id : live) scores.push_back(Dot(u, ps.Get(id)));
    double omega_k = 0.0;  // fewer than k live tuples => omega_k = 0
    if (static_cast<int>(scores.size()) >= k) {
      std::nth_element(scores.begin(), scores.begin() + (k - 1), scores.end(),
                       std::greater<double>());
      omega_k = scores[k - 1];
    }
    double best = 0.0;
    for (int id : q) best = std::max(best, Dot(u, ps.Get(id)));
    EXPECT_GE(best, (1.0 - eps) * omega_k - 1e-9)
        << "utility " << i << ": regret ratio " << 1.0 - best / omega_k
        << " exceeds eps=" << eps;
  }
}

TEST(FdRmsTest, IdenticalSeedsReproduceIdenticalResults) {
  // Determinism: two instances with the same FdRmsOptions.seed replaying the
  // same mutation stream must agree on m and Q_t at every checkpoint.
  PointSet ps = GenerateAntiCor(400, 3, 23);
  FdRmsOptions opt = Options(1, 10, 0.05, 256, /*seed=*/12345);
  FdRms a(3, opt), b(3, opt);
  std::vector<std::pair<int, Point>> initial;
  for (int i = 0; i < 200; ++i) initial.emplace_back(i, ps.Get(i));
  ASSERT_TRUE(a.Initialize(initial).ok());
  ASSERT_TRUE(b.Initialize(initial).ok());
  EXPECT_EQ(a.current_m(), b.current_m());
  EXPECT_EQ(a.Result(), b.Result());
  for (int i = 200; i < 400; ++i) {
    ASSERT_TRUE(a.Insert(i, ps.Get(i)).ok());
    ASSERT_TRUE(b.Insert(i, ps.Get(i)).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(a.Delete(i - 200).ok());
      ASSERT_TRUE(b.Delete(i - 200).ok());
    }
    if (i % 50 == 0) {
      EXPECT_EQ(a.current_m(), b.current_m()) << "after op " << i;
      EXPECT_EQ(a.Result(), b.Result()) << "after op " << i;
    }
  }
  EXPECT_EQ(a.current_m(), b.current_m());
  EXPECT_EQ(a.Result(), b.Result());
}

class FdRmsOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(FdRmsOrderTest, StateDoesNotDependOnInitialTupleOrder) {
  // Φ sets, the cover and m are functions of the tuples and the utility
  // seed alone: loading P_0 in another order must not change any result
  // along the paper's insert-then-delete protocol.
  const int dim = GetParam();
  PointSet ps = GenerateIndep(4000, dim, 40 + dim);
  Workload workload(&ps, 50 + dim);
  std::vector<std::pair<int, Point>> initial;
  for (int id : workload.initial_ids()) initial.emplace_back(id, ps.Get(id));
  std::vector<std::pair<int, Point>> shuffled = initial;
  Rng rng(60 + dim);
  rng.Shuffle(&shuffled);
  ASSERT_NE(shuffled, initial);
  FdRmsOptions opt = Options(1, dim == 4 ? 10 : 20, dim == 4 ? 0.05 : 0.025,
                             512, /*seed=*/70 + dim);
  FdRms a(dim, opt), b(dim, opt);
  ASSERT_TRUE(a.Initialize(initial).ok());
  ASSERT_TRUE(b.Initialize(shuffled).ok());
  ASSERT_EQ(a.current_m(), b.current_m());
  ASSERT_EQ(a.Result(), b.Result());
  const auto& ops = workload.operations();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (op.is_insert) {
      ASSERT_TRUE(a.Insert(op.id, ps.Get(op.id)).ok());
      ASSERT_TRUE(b.Insert(op.id, ps.Get(op.id)).ok());
    } else {
      ASSERT_TRUE(a.Delete(op.id).ok());
      ASSERT_TRUE(b.Delete(op.id).ok());
    }
    if ((i + 1) % 500 == 0) {
      ASSERT_EQ(a.current_m(), b.current_m()) << "after op " << i;
      ASSERT_EQ(a.Result(), b.Result()) << "after op " << i;
      ASSERT_TRUE(a.Validate().ok()) << "after op " << i;
      ASSERT_TRUE(b.Validate().ok()) << "after op " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, FdRmsOrderTest, ::testing::Values(4, 6),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace fdrms
