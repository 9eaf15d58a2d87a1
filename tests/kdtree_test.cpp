#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "index/kdtree.h"

namespace fdrms {
namespace {

/// Brute-force reference over a live id->point map.
std::vector<ScoredId> BruteTopK(const std::unordered_map<int, Point>& live,
                                const Point& u, int k) {
  std::vector<ScoredId> all;
  for (const auto& [id, p] : live) all.push_back({Dot(u, p), id});
  std::sort(all.begin(), all.end(), BetterScore);
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

std::vector<ScoredId> BruteRange(const std::unordered_map<int, Point>& live,
                                 const Point& u, double threshold) {
  std::vector<ScoredId> all;
  for (const auto& [id, p] : live) {
    double s = Dot(u, p);
    if (s >= threshold) all.push_back({s, id});
  }
  std::sort(all.begin(), all.end(), BetterScore);
  return all;
}

TEST(KdTreeTest, InsertDuplicateIdFails) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(1, {0.5, 0.5}).ok());
  EXPECT_EQ(tree.Insert(1, {0.1, 0.1}).code(), StatusCode::kAlreadyExists);
}

TEST(KdTreeTest, DeleteMissingIdFails) {
  KdTree tree(2);
  EXPECT_EQ(tree.Delete(9).code(), StatusCode::kNotFound);
}

TEST(KdTreeTest, DimensionMismatchRejected) {
  KdTree tree(3);
  EXPECT_EQ(tree.Insert(0, {1.0, 2.0}).code(), StatusCode::kInvalidArgument);
}

TEST(KdTreeTest, TopKOnTinySet) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(0, {0.2, 1.0}).ok());
  ASSERT_TRUE(tree.Insert(1, {0.6, 0.8}).ok());
  ASSERT_TRUE(tree.Insert(2, {1.0, 0.1}).ok());
  Point u{1.0, 0.0};
  auto top2 = tree.TopK(u, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, 2);
  EXPECT_EQ(top2[1].id, 1);
  // Fewer live points than k.
  auto top9 = tree.TopK(u, 9);
  EXPECT_EQ(top9.size(), 3u);
}

TEST(KdTreeTest, TieBreaksByAscendingId) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(7, {0.5, 0.5}).ok());
  ASSERT_TRUE(tree.Insert(3, {0.5, 0.5}).ok());
  auto top = tree.TopK({1.0, 1.0}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3);
  EXPECT_EQ(top[1].id, 7);
}

/// Op streams for the differential oracle.
enum class Stream : uint8_t {
  kRandom,          // 60% inserts of uniform points, 40% random deletes
  kSortedDiagonal,  // 80% inserts of t * 1 + 1e-3 * noise, t ascending
  kFillDrain,       // num_ops / 2 uniform inserts, then delete all of them
};

struct RandomOpsParam {
  int dim;
  int k;
  int num_ops;
  // These two sit where the struct had padding, so the byte dump in the
  // names of the first five cases keeps its prefix.
  Stream stream;
  uint8_t leaf_size;
  uint64_t seed;
};

class KdTreeRandomOpsTest : public ::testing::TestWithParam<RandomOpsParam> {};

// After every op: the structure passes CheckInvariants, and TopK and
// ScoreRange under a fresh utility equal brute force (ids and bit-exact
// scores). The long streams cross leaf splits, partial rebuilds and (the
// drain) the mass-deletion rebuild.
TEST_P(KdTreeRandomOpsTest, MatchesBruteForceUnderChurn) {
  const RandomOpsParam param = GetParam();
  Rng rng(param.seed);
  KdTree tree(param.dim, param.leaf_size);
  std::unordered_map<int, Point> live;
  std::vector<int> live_ids;  // for uniform delete picks in the drain
  int next_id = 0;
  for (int op = 0; op < param.num_ops; ++op) {
    bool do_insert = false;
    switch (param.stream) {
      case Stream::kRandom:
        do_insert = live.empty() || rng.Uniform() < 0.6;
        break;
      case Stream::kSortedDiagonal:
        do_insert = live.empty() || rng.Uniform() < 0.8;
        break;
      case Stream::kFillDrain:
        do_insert = op < param.num_ops / 2;
        break;
    }
    if (do_insert) {
      Point p(param.dim);
      const double t = static_cast<double>(op) / param.num_ops;
      for (double& v : p) {
        v = param.stream == Stream::kSortedDiagonal
                ? t + 1e-3 * rng.Uniform()
                : rng.Uniform();
      }
      // Scatter the ids (an odd multiplier is a bijection mod 2^32, and
      // half of them come out negative) so the id -> row map sees
      // collisions and wrap-around, not a dense run.
      const int id = static_cast<int>(static_cast<uint32_t>(next_id++) *
                                      2654435761u);
      ASSERT_TRUE(tree.Insert(id, p).ok());
      live.emplace(id, p);
      live_ids.push_back(id);
    } else if (!live_ids.empty()) {
      const int pick = rng.UniformInt(static_cast<int>(live_ids.size()));
      const int id = live_ids[static_cast<size_t>(pick)];
      live_ids[static_cast<size_t>(pick)] = live_ids.back();
      live_ids.pop_back();
      ASSERT_TRUE(tree.Delete(id).ok());
      live.erase(id);
    }
    ASSERT_EQ(tree.size(), static_cast<int>(live.size()));
    const Status invariants = tree.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << "op " << op << ": "
                                 << invariants.ToString();
    Point u = SampleUnitVectorNonneg(param.dim, &rng);
    auto brute = BruteTopK(live, u, param.k);
    ASSERT_EQ(tree.TopK(u, param.k), brute) << "op " << op;
    const double thr = brute.empty() ? 0.0 : brute.back().score * 0.9;
    ASSERT_EQ(tree.ScoreRange(u, thr), BruteRange(live, u, thr))
        << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeRandomOpsTest,
    ::testing::Values(
        RandomOpsParam{2, 1, 400, Stream::kRandom, 16, 1},
        RandomOpsParam{3, 3, 400, Stream::kRandom, 16, 2},
        RandomOpsParam{5, 5, 600, Stream::kRandom, 16, 3},
        RandomOpsParam{8, 2, 600, Stream::kRandom, 16, 4},
        RandomOpsParam{4, 4, 1500, Stream::kRandom, 16, 5},
        RandomOpsParam{6, 5, 5000, Stream::kRandom, 2, 6},
        RandomOpsParam{3, 2, 5000, Stream::kSortedDiagonal, 16, 7},
        RandomOpsParam{6, 4, 4000, Stream::kSortedDiagonal, 16, 8},
        RandomOpsParam{4, 3, 6000, Stream::kFillDrain, 16, 9}),
    [](const auto& info) {
      std::string name = "d";
      name += std::to_string(info.param.dim);
      name += 'k';
      name += std::to_string(info.param.k);
      name += "ops";
      name += std::to_string(info.param.num_ops);
      if (info.param.stream == Stream::kSortedDiagonal) name += "diagonal";
      if (info.param.stream == Stream::kFillDrain) name += "filldrain";
      if (info.param.leaf_size != 16) {
        name += "leaf";
        name += std::to_string(info.param.leaf_size);
      }
      return name;
    });

TEST(KdTreeTest, ExplicitRebuildPreservesContents) {
  Rng rng(77);
  KdTree tree(3);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 300; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(tree.Delete(i * 2).ok());
    live.erase(i * 2);
  }
  tree.Rebuild();
  EXPECT_EQ(tree.size(), 150);
  Point u = SampleUnitVectorNonneg(3, &rng);
  EXPECT_EQ(tree.TopK(u, 10), BruteTopK(live, u, 10));
}

TEST(KdTreeTest, ScoreRangeWithZeroThresholdReturnsAll) {
  KdTree tree(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(i, {0.05 * i, 1.0 - 0.05 * i}).ok());
  }
  EXPECT_EQ(tree.ScoreRange({1.0, 1.0}, 0.0).size(), 20u);
}

TEST(KdTreeTest, ForEachVisitsExactlyLiveTuples) {
  KdTree tree(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(i, {0.1 * i, 0.1}).ok());
  }
  ASSERT_TRUE(tree.Delete(4).ok());
  std::vector<int> seen;
  tree.ForEach([&](int id, const Point&) { seen.push_back(id); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)

// Debug lane: a split moves half a leaf's rows to a fresh block and a
// delete moves its leaf's last row into the freed one; a PointRef held
// across either must trip the generation guard, not read a moved row.
TEST(KdTreePointRefDeathTest, StaleRefAcrossSplitOrSwapRemoveDies) {
  KdTree tree(2, /*leaf_size=*/2);  // leaves split at 4 rows
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Insert(i, {0.1 * i, 0.5}).ok());
  }
  auto before_split = tree.GetPointRef(3);
  EXPECT_EQ(before_split[0], 0.1 * 3);
  ASSERT_TRUE(tree.Insert(4, {0.45, 0.5}).ok());  // splits the full leaf
  EXPECT_DEATH((void)before_split.data(), "stale");
  auto before_remove = tree.GetPointRef(4);
  ASSERT_TRUE(tree.Delete(3).ok());  // swap-removes within the upper leaf
  EXPECT_DEATH((void)before_remove[0], "stale");
  EXPECT_EQ(tree.GetPoint(4), (Point{0.45, 0.5}));
}

#endif  // GTEST_HAS_DEATH_TEST && !defined(NDEBUG)

}  // namespace
}  // namespace fdrms
