#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "topk/topk_maintainer.h"

namespace fdrms {
namespace {

/// A Φ set or S(p) as an ascending vector, for set equality.
template <typename Range>
std::vector<int> Sorted(const Range& range) {
  std::vector<int> ids(range.begin(), range.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(TopKMaintainerTest, SingleUtilityBasics) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.1, utils);
  ASSERT_TRUE(m.Insert(0, {0.5, 0.2}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.9, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(2, {0.85, 0.9}, nullptr).ok());
  // omega_1 = 0.9; threshold = 0.81: tuples 1 and 2 qualify.
  EXPECT_DOUBLE_EQ(m.OmegaK(0), 0.9);
  EXPECT_EQ(Sorted(m.ApproxTopK(0)), (std::vector<int>{1, 2}));
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
}

TEST(TopKMaintainerTest, FewerTuplesThanKMeansEveryoneQualifies) {
  Rng rng(4);
  auto utils = SampleUtilityVectors(8, 3, &rng);
  TopKMaintainer m(3, /*k=*/5, /*eps=*/0.05, utils);
  for (int i = 0; i < 3; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(m.Insert(i, p, nullptr).ok());
  }
  for (int u = 0; u < m.num_utilities(); ++u) {
    EXPECT_EQ(m.ApproxTopK(u).size(), 3u);
    EXPECT_DOUBLE_EQ(m.OmegaK(u), 0.0);
  }
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
}

TEST(TopKMaintainerTest, DeltasDescribeExactMembershipChanges) {
  std::vector<Point> utils{{1.0, 0.0}, {0.0, 1.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.0, utils);
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Insert(0, {0.5, 0.5}, &deltas).ok());
  // Tuple 0 becomes the top of both utilities.
  EXPECT_EQ(deltas.size(), 2u);
  deltas.clear();
  ASSERT_TRUE(m.Insert(1, {0.8, 0.2}, &deltas).ok());
  // Utility 0: tuple 1 displaces tuple 0 (eps = 0 keeps only the top).
  ASSERT_EQ(deltas.size(), 2u);
  bool saw_add = false, saw_remove = false;
  for (const auto& d : deltas) {
    if (d.added) {
      EXPECT_EQ(d.tuple_id, 1);
      EXPECT_EQ(d.utility, 0);
      saw_add = true;
    } else {
      EXPECT_EQ(d.tuple_id, 0);
      EXPECT_EQ(d.utility, 0);
      saw_remove = true;
    }
  }
  EXPECT_TRUE(saw_add);
  EXPECT_TRUE(saw_remove);
  // MemberOf mirrors the sets.
  EXPECT_EQ(Sorted(m.MemberOf(0)), (std::vector<int>{1}));
  EXPECT_EQ(Sorted(m.MemberOf(1)), (std::vector<int>{0}));
}

TEST(TopKMaintainerTest, InsertEvictsSeveralMembersByLinkPosition) {
  // Φ(u) links are in insertion order, so before tuple 6 arrives both
  // utilities' last link is tuple 4, which 6 evicts together with others.
  // Removing an earlier eviction moves 4's link in front of the kept
  // tuple 5; the sweep must follow it there.
  std::vector<Point> utils{{1.0, 0.0}, {0.0, 1.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.5, utils);
  const std::vector<std::pair<int, Point>> tuples = {
      {1, {0.6, 0.36}}, {2, {0.35, 0.5}},  {3, {0.4, 0.4}},
      {5, {0.5, 0.6}},  {4, {0.38, 0.33}}};
  for (const auto& [id, p] : tuples) {
    ASSERT_TRUE(m.Insert(id, p, nullptr).ok());
  }
  ASSERT_EQ(Sorted(m.ApproxTopK(0)), (std::vector<int>{1, 2, 3, 4, 5}));
  ASSERT_EQ(Sorted(m.ApproxTopK(1)), (std::vector<int>{1, 2, 3, 4, 5}));
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Insert(6, {0.9, 0.9}, &deltas).ok());
  // The additions first, then per utility its evictions in ascending id.
  const std::vector<TopKDelta> expected = {
      {0, 6, true},  {1, 6, true},  {0, 2, false}, {0, 3, false},
      {0, 4, false}, {1, 1, false}, {1, 3, false}, {1, 4, false}};
  EXPECT_EQ(deltas, expected);
  EXPECT_EQ(Sorted(m.ApproxTopK(0)), (std::vector<int>{1, 5, 6}));
  EXPECT_EQ(Sorted(m.ApproxTopK(1)), (std::vector<int>{2, 5, 6}));
  EXPECT_EQ(m.cover().system().num_links(), 6u);
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
  EXPECT_TRUE(m.cover().CheckInvariants().ok());
}

TEST(TopKMaintainerTest, DeleteOfNonMemberTouchesNothing) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.0, utils);
  ASSERT_TRUE(m.Insert(0, {0.9, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.1, 0.9}, nullptr).ok());
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Delete(1, &deltas).ok());
  EXPECT_TRUE(deltas.empty());
  EXPECT_EQ(Sorted(m.ApproxTopK(0)), (std::vector<int>{0}));
}

TEST(TopKMaintainerTest, DeleteRepairBreaksScoreTiesByAscendingId) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/2, /*eps=*/0.5, utils);
  ASSERT_TRUE(m.Insert(100, {0.9, 0.0}, nullptr).ok());
  // Eight tuples tie at score 0.6, inserted in scrambled id order.
  for (int id : {7, 3, 8, 1, 6, 2, 5, 4}) {
    ASSERT_TRUE(m.Insert(id, {0.6, 0.1 * id}, nullptr).ok());
  }
  // Deleting the leader leaves eight Φ members, so the repair re-ranks them.
  ASSERT_TRUE(m.Delete(100, nullptr).ok());
  EXPECT_EQ(m.ExactTopK(0), (std::vector<ScoredId>{{0.6, 1}, {0.6, 2}}));
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
}

TEST(TopKMaintainerTest, DeleteMissingIdFails) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, 1, 0.0, utils);
  EXPECT_EQ(m.Delete(3, nullptr).code(), StatusCode::kNotFound);
}

TEST(TopKMaintainerTest, ScatteredIdsChurnMatchesBruteForceAfterEveryOp) {
  // Tuple ids spread over the whole int range; deleted ids come back with
  // new points, so their slots are reused. After every op the state must
  // equal a brute-force recomputation and S(p) must mirror the Φ sets.
  const std::vector<int> ids = {INT_MIN, INT_MIN + 1, -1000003, -64, -1, 0,
                                1,       3,           4096,     1 << 29,
                                INT_MAX - 1, INT_MAX};
  Rng rng(28);
  auto utils = SampleUtilityVectors(24, 3, &rng);
  TopKMaintainer m(3, /*k=*/2, /*eps=*/0.1, utils);
  std::vector<bool> live(ids.size(), false);
  for (int op = 0; op < 1500; ++op) {
    const size_t i =
        static_cast<size_t>(rng.UniformInt(static_cast<int>(ids.size())));
    std::vector<TopKDelta> deltas;
    if (live[i]) {
      ASSERT_TRUE(m.Delete(ids[i], &deltas).ok());
      EXPECT_TRUE(m.MemberOf(ids[i]).empty());
    } else {
      Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
      ASSERT_TRUE(m.Insert(ids[i], p, &deltas).ok());
    }
    live[i] = !live[i];
    Status st = m.ValidateAgainstBruteForce();
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
    for (size_t j = 0; j < ids.size(); ++j) {
      std::vector<int> expect;
      for (int u = 0; u < m.num_utilities(); ++u) {
        const auto phi = m.ApproxTopK(u);
        if (std::find(phi.begin(), phi.end(), ids[j]) != phi.end()) {
          expect.push_back(u);
        }
      }
      ASSERT_EQ(Sorted(m.MemberOf(ids[j])), expect)
          << "op " << op << " id " << ids[j];
    }
  }
}

struct ChurnParam {
  int dim;
  int k;
  double eps;
  int num_utils;
  int num_ops;
  uint32_t seed;
  int insert_pct;  // chance in percent that an op inserts (when any is live)
};

class TopKChurnTest : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(TopKChurnTest, StateMatchesBruteForceAndDeltasAreConsistent) {
  const ChurnParam param = GetParam();
  Rng rng(param.seed);
  auto utils = SampleUtilityVectors(param.num_utils, param.dim, &rng);
  TopKMaintainer m(param.dim, param.k, param.eps, utils);
  // Shadow Φ sets reconstructed from deltas only.
  std::vector<std::unordered_set<int>> shadow(param.num_utils);
  std::unordered_map<int, Point> live;
  int next_id = 0;
  // Delete repairs by the path they take: re-ranking the surviving Φ
  // members (at least k survive) or the kd-tree TopK fallback.
  int phi_repairs = 0;
  int fallback_repairs = 0;
  for (int op = 0; op < param.num_ops; ++op) {
    std::vector<TopKDelta> deltas;
    bool do_insert =
        live.empty() || rng.Uniform() < param.insert_pct / 100.0;
    if (do_insert) {
      Point p(param.dim);
      for (double& v : p) v = rng.Uniform();
      ASSERT_TRUE(m.Insert(next_id, p, &deltas).ok());
      live.emplace(next_id, p);
      ++next_id;
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(static_cast<int>(live.size())));
      const int id = it->first;
      const std::vector<int> held(m.MemberOf(id).begin(),
                                  m.MemberOf(id).end());
      for (int u : held) {
        const auto& list = m.ExactTopK(u);
        if (std::none_of(list.begin(), list.end(),
                         [&](const ScoredId& s) { return s.id == id; })) {
          continue;
        }
        if (static_cast<int>(m.ApproxTopK(u).size()) - 1 >= param.k) {
          ++phi_repairs;
        } else {
          ++fallback_repairs;
        }
      }
      ASSERT_TRUE(m.Delete(id, &deltas).ok());
      live.erase(it);
      // Differential check of the repair: ids and bit-exact scores must
      // equal a fresh kd-tree search.
      for (int u : held) {
        ASSERT_EQ(m.ExactTopK(u), m.tree().TopK(utils[u], param.k))
            << "op " << op << " utility " << u;
      }
    }
    for (const auto& d : deltas) {
      if (d.added) {
        EXPECT_TRUE(shadow[d.utility].insert(d.tuple_id).second)
            << "duplicate add delta";
      } else {
        EXPECT_EQ(shadow[d.utility].erase(d.tuple_id), 1u)
            << "remove delta for non-member";
      }
    }
    if (op % 20 == 19) {
      ASSERT_TRUE(m.ValidateAgainstBruteForce().ok()) << "op " << op;
      for (int u = 0; u < param.num_utils; ++u) {
        EXPECT_EQ(Sorted(shadow[u]), Sorted(m.ApproxTopK(u)))
            << "delta stream diverged";
      }
    }
  }
  if (param.insert_pct < 50) {
    // Delete-heavy rows drain the set below k, so both paths must run.
    EXPECT_GT(phi_repairs, 0);
    EXPECT_GT(fallback_repairs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKChurnTest,
    ::testing::Values(ChurnParam{2, 1, 0.0, 8, 300, 21, 55},
                      ChurnParam{2, 1, 0.1, 16, 300, 22, 55},
                      ChurnParam{4, 3, 0.05, 32, 400, 23, 55},
                      ChurnParam{6, 5, 0.02, 24, 400, 24, 55},
                      ChurnParam{3, 2, 0.3, 12, 500, 25, 55},
                      ChurnParam{8, 1, 0.01, 40, 300, 26, 55},
                      ChurnParam{4, 3, 0.01, 32, 600, 27, 45}),
    [](const auto& info) {
      std::string name = "d";
      name += std::to_string(info.param.dim);
      name += 'k';
      name += std::to_string(info.param.k);
      name += 'm';
      name += std::to_string(info.param.num_utils);
      name += 's';
      name += std::to_string(info.param.seed);
      return name;
    });

/// The delta stream a delete of `id` must emit, from brute force over the
/// live tuples: for each utility whose Φ held `id`, ascending, the removal
/// of `id`; and when `id` was in that utility's exact top-k, the entrants
/// (τ_new <= score < τ_old) best first.
std::vector<TopKDelta> ExpectedDeleteStream(
    const std::unordered_map<int, Point>& live, const std::vector<Point>& utils,
    int k, double eps, int id) {
  std::vector<TopKDelta> stream;
  for (int u = 0; u < static_cast<int>(utils.size()); ++u) {
    std::vector<ScoredId> all;
    for (const auto& [tid, p] : live) all.push_back({Dot(utils[u], p), tid});
    std::sort(all.begin(), all.end(), BetterScore);
    auto tau_of = [&](const std::vector<ScoredId>& ranked) {
      return static_cast<int>(ranked.size()) < k
                 ? 0.0
                 : (1.0 - eps) * ranked[static_cast<size_t>(k) - 1].score;
    };
    const double old_tau = tau_of(all);
    const auto self = std::find_if(all.begin(), all.end(),
                                   [&](const ScoredId& s) { return s.id == id; });
    if (self->score < old_tau) continue;  // `id` is not in Φ(u)
    stream.push_back({u, id, /*added=*/false});
    const bool in_topk = self - all.begin() < k;
    all.erase(self);
    if (!in_topk) continue;
    const double new_tau = tau_of(all);
    for (const ScoredId& s : all) {
      if (s.score >= new_tau && s.score < old_tau) {
        stream.push_back({u, s.id, /*added=*/true});
      }
    }
  }
  return stream;
}

class TopKGroupRepairTest : public ::testing::TestWithParam<int> {};

// A hub tuple that dominates every other tuple is top-1 for every utility,
// so deleting it repairs all M utilities as one group: the stream must
// still be, utility by utility in ascending order, the removal and then
// the entrants best first.
TEST_P(TopKGroupRepairTest, HubDeleteEmitsPerUtilityStreamInOrder) {
  const int k = GetParam();
  const double eps = 0.1;
  const int d = 3;
  const int num_utils = 96;
  Rng rng(31 + static_cast<uint32_t>(k));
  const std::vector<Point> utils = SampleUtilityVectors(num_utils, d, &rng);
  TopKMaintainer m(d, k, eps, utils);
  std::unordered_map<int, Point> live;
  for (int id = 0; id < 300; ++id) {
    Point p(d);
    for (double& v : p) v = rng.Uniform();
    ASSERT_TRUE(m.Insert(id, p, nullptr).ok());
    live.emplace(id, p);
  }
  const int hub = 1000;
  ASSERT_TRUE(m.Insert(hub, {2.0, 2.0, 2.0}, nullptr).ok());
  live.emplace(hub, Point{2.0, 2.0, 2.0});
  ASSERT_EQ(m.MemberOf(hub).size(), static_cast<size_t>(num_utils));
  for (int u = 0; u < num_utils; ++u) {
    ASSERT_EQ(m.ExactTopK(u).front().id, hub);
  }

  const std::vector<TopKDelta> expected =
      ExpectedDeleteStream(live, utils, k, eps, hub);
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Delete(hub, &deltas).ok());
  live.erase(hub);
  EXPECT_EQ(deltas, expected);
  EXPECT_GT(std::count_if(deltas.begin(), deltas.end(),
                          [](const TopKDelta& d) { return d.added; }),
            0);
  ASSERT_TRUE(m.ValidateAgainstBruteForce().ok());

  // Further deletes of top-ranked and tail members keep the exact stream.
  for (int round = 0; round < 40; ++round) {
    const int u = rng.UniformInt(num_utils);
    const auto phi = m.ApproxTopK(u);
    std::vector<int> members(phi.begin(), phi.end());
    std::sort(members.begin(), members.end());
    const int id = members[static_cast<size_t>(
        rng.UniformInt(static_cast<int>(members.size())))];
    const std::vector<TopKDelta> want =
        ExpectedDeleteStream(live, utils, k, eps, id);
    deltas.clear();
    ASSERT_TRUE(m.Delete(id, &deltas).ok());
    live.erase(id);
    ASSERT_EQ(deltas, want) << "round " << round << " id " << id;
  }
  ASSERT_TRUE(m.ValidateAgainstBruteForce().ok());
}

INSTANTIATE_TEST_SUITE_P(K, TopKGroupRepairTest, ::testing::Values(1, 3));

}  // namespace
}  // namespace fdrms
