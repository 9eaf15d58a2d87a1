#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "index/conetree.h"

namespace fdrms {
namespace {

TEST(ConeTreeTest, AllThresholdsZeroReachesEverything) {
  Rng rng(1);
  auto utils = SampleDirections(64, 4, &rng);
  ConeTree cone(utils);
  Point p{0.3, 0.1, 0.9, 0.4};
  auto reached = cone.FindReached(p);
  EXPECT_EQ(reached.size(), utils.size());
}

TEST(ConeTreeTest, InfiniteThresholdReachesNothing) {
  Rng rng(2);
  auto utils = SampleDirections(32, 3, &rng);
  ConeTree cone(utils);
  for (int i = 0; i < cone.size(); ++i) cone.SetThreshold(i, 1e18);
  EXPECT_TRUE(cone.FindReached({1.0, 1.0, 1.0}).empty());
}

TEST(ConeTreeTest, ZeroPointMatchesOnlyZeroThresholds) {
  Rng rng(3);
  auto utils = SampleDirections(16, 3, &rng);
  ConeTree cone(utils);
  cone.SetThreshold(0, 0.5);
  cone.SetThreshold(5, 0.1);
  auto reached = cone.FindReached({0.0, 0.0, 0.0});
  EXPECT_EQ(reached.size(), utils.size() - 2);
  for (int u : reached) {
    EXPECT_NE(u, 0);
    EXPECT_NE(u, 5);
  }
}

struct ConeParam {
  int num_utils;
  int dim;
  uint64_t seed;
};

class ConeTreeRandomTest : public ::testing::TestWithParam<ConeParam> {};

TEST_P(ConeTreeRandomTest, MatchesBruteForceUnderThresholdChurn) {
  const ConeParam param = GetParam();
  Rng rng(param.seed);
  auto utils = SampleUtilityVectors(param.num_utils, param.dim, &rng);
  ConeTree cone(utils);
  for (int round = 0; round < 60; ++round) {
    // Raise/lower some thresholds, as top-k maintenance does.
    for (int j = 0; j < 5; ++j) {
      int u = rng.UniformInt(param.num_utils);
      cone.SetThreshold(u, rng.Uniform() * 1.2);
    }
    Point p(param.dim);
    for (double& v : p) v = rng.Uniform();
    EXPECT_EQ(cone.FindReached(p), cone.FindReachedBruteForce(p))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConeTreeRandomTest,
    ::testing::Values(ConeParam{16, 2, 11}, ConeParam{100, 4, 12},
                      ConeParam{256, 6, 13}, ConeParam{500, 9, 14},
                      ConeParam{64, 12, 15}),
    [](const auto& info) {
      std::string name = "m";
      name += std::to_string(info.param.num_utils);
      name += 'd';
      name += std::to_string(info.param.dim);
      return name;
    });

// FdRms copies its ConeTree (StartFrom, revive): a copy must deep-copy the
// aligned float slab and the thresholds. After threshold churn, original
// and copy answer identically; churning the original afterwards must not
// reach the copy, and the copy must outlive the original.
TEST(ConeTreeTest, CopyAnswersLikeTheOriginalAndStaysIndependent) {
  Rng rng(21);
  const int m = 300;
  const int d = 5;
  auto utils = SampleUtilityVectors(m, d, &rng);
  auto original = std::make_unique<ConeTree>(utils);
  for (int round = 0; round < 400; ++round) {
    original->SetThreshold(rng.UniformInt(m), 0.3 + 0.7 * rng.Uniform());
  }
  ConeTree copy(*original);
  ConeTree assigned(std::vector<Point>{});
  assigned = *original;
  std::vector<Point> probes;
  for (int t = 0; t < 40; ++t) {
    Point p(static_cast<size_t>(d));
    for (double& v : p) v = 1.2 * rng.Uniform();
    probes.push_back(p);
  }
  std::vector<std::vector<int>> answers;
  for (const Point& p : probes) {
    std::vector<int> idx;
    std::vector<double> scores;
    std::vector<int> copy_idx;
    std::vector<double> copy_scores;
    original->FindReached(p, &idx, &scores);
    copy.FindReached(p, &copy_idx, &copy_scores);
    EXPECT_EQ(copy_idx, idx);
    EXPECT_EQ(copy_scores, scores);
    EXPECT_EQ(assigned.FindReached(p), idx);
    EXPECT_EQ(idx, original->FindReachedBruteForce(p));
    answers.push_back(idx);
  }
  // Raise every threshold of the original: a copy that still read the
  // original's float slab would now filter everything out.
  for (int i = 0; i < m; ++i) {
    original->SetThreshold(i, std::numeric_limits<double>::infinity());
  }
  EXPECT_TRUE(original->FindReached(probes[0]).empty());
  for (size_t t = 0; t < probes.size(); ++t) {
    EXPECT_EQ(copy.FindReached(probes[t]), answers[t]) << "probe " << t;
    EXPECT_EQ(copy.FindReached(probes[t]),
              copy.FindReachedBruteForce(probes[t]));
    EXPECT_EQ(assigned.FindReached(probes[t]), answers[t]) << "probe " << t;
  }
  original.reset();
  for (size_t t = 0; t < probes.size(); ++t) {
    EXPECT_EQ(copy.FindReached(probes[t]), answers[t]) << "probe " << t;
  }
}

TEST(ConeTreeTest, ThresholdGetterRoundTrips) {
  Rng rng(9);
  auto utils = SampleDirections(10, 3, &rng);
  ConeTree cone(utils);
  cone.SetThreshold(4, 0.77);
  EXPECT_DOUBLE_EQ(cone.GetThreshold(4), 0.77);
  EXPECT_DOUBLE_EQ(cone.GetThreshold(3), 0.0);
}

TEST(ConeTreeTest, DuplicateUtilityVectorsSupported) {
  // All identical vectors force the degenerate-split fallback.
  std::vector<Point> utils(20, Point{0.6, 0.8});
  ConeTree cone(utils);
  auto reached = cone.FindReached({1.0, 1.0});
  EXPECT_EQ(reached.size(), 20u);
}

}  // namespace
}  // namespace fdrms
