#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <optional>
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

/// The scan skip: one maintainer whose cover has a universe, so its C can
/// ε-dominate new tuples, and a standalone one whose inert cover makes it
/// scan every insert. Both take the same ops and must emit the same
/// deltas; the skipping one is also checked against brute force.
class ScanSkipTest : public ::testing::Test {
 protected:
  void Make(int k, double eps, const std::vector<Point>& utils) {
    dim_ = static_cast<int>(utils[0].size());
    eps_ = eps;
    live_.emplace(dim_, k, eps, utils);
    ref_.emplace(dim_, k, eps, utils);
  }

  /// Sets the cover's universe to every utility, so C covers them all.
  void CoverAll() {
    std::vector<int> all(static_cast<size_t>(live_->num_utilities()));
    for (int u = 0; u < live_->num_utilities(); ++u) {
      all[static_cast<size_t>(u)] = u;
    }
    live_->mutable_cover().InitializeGreedy(all);
  }

  void Insert(int id, const Point& p, bool validate = true) {
    const uint64_t before = live_->insert_scan_skips();
    std::vector<TopKDelta> got;
    std::vector<TopKDelta> want;
    ASSERT_TRUE(live_->Insert(id, p, &got).ok());
    ASSERT_TRUE(ref_->Insert(id, p, &want).ok());
    skipped_ = live_->insert_scan_skips() != before;
    EXPECT_EQ(ref_->insert_scan_skips(), 0u);
    ASSERT_EQ(got, want) << "insert " << id;
    if (validate) {
      ASSERT_NO_FATAL_FAILURE(Validate());
    }
  }

  void Delete(int id) {
    std::vector<TopKDelta> got;
    std::vector<TopKDelta> want;
    ASSERT_TRUE(live_->Delete(id, &got).ok());
    ASSERT_TRUE(ref_->Delete(id, &want).ok());
    ASSERT_EQ(got, want) << "delete " << id;
    ASSERT_NO_FATAL_FAILURE(Validate());
  }

  void Validate() {
    const Status st = live_->ValidateAgainstBruteForce();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(live_->cover().CheckInvariants().ok());
  }

  /// Members of C whose scaled point is above `p` in every coordinate, by
  /// the maintainer's rule (C's points must be in the scaled range).
  int Dominators(const Point& p) const {
    int n = 0;
    for (int id : live_->cover().CoverSetIds()) {
      const Point g = live_->tree().GetPoint(id);
      bool all = true;
      for (int j = 0; j < dim_; ++j) all = all && p[j] < Scaled(g[j]);
      n += all ? 1 : 0;
    }
    return n;
  }

  double Scaled(double g) const { return (1.0 - eps_) * (1.0 - 0x1p-40) * g; }

  int dim_ = 0;
  double eps_ = 0.0;
  std::optional<TopKMaintainer> live_;
  std::optional<TopKMaintainer> ref_;
  bool skipped_ = false;
};

/// Two axes and the diagonal.
std::vector<Point> AxesAndDiagonal() {
  return {{1.0, 0.0}, {0.0, 1.0}, {std::sqrt(0.5), std::sqrt(0.5)}};
}

TEST_F(ScanSkipTest, DeletingTheOnlyDominatorMakesTheNextInsertScan) {
  Make(/*k=*/1, /*eps=*/0.01, AxesAndDiagonal());
  ASSERT_NO_FATAL_FAILURE(Insert(0, {0.9, 0.9}));
  ASSERT_NO_FATAL_FAILURE(Insert(1, {0.95, 0.05}));
  ASSERT_NO_FATAL_FAILURE(Insert(2, {0.05, 0.95}));
  CoverAll();
  ASSERT_EQ(live_->cover().CoverSetIds(), (std::vector<int>{0, 1, 2}));
  const Point p{0.6, 0.6};
  ASSERT_EQ(Dominators(p), 1);
  ASSERT_NO_FATAL_FAILURE(Insert(3, {0.5, 0.4}));
  EXPECT_TRUE(skipped_);
  EXPECT_TRUE(live_->MemberOf(3).empty());
  // With its dominator gone, p tops the diagonal utility.
  ASSERT_NO_FATAL_FAILURE(Delete(0));
  ASSERT_EQ(Dominators(p), 0);
  ASSERT_NO_FATAL_FAILURE(Insert(4, p));
  EXPECT_FALSE(skipped_);
  EXPECT_EQ(Sorted(live_->MemberOf(4)), (std::vector<int>{2}));
  EXPECT_EQ(live_->insert_scan_skips(), 1u);
}

TEST_F(ScanSkipTest, FollowsCoverChangesByGreedyAndUniverseGrowth) {
  Make(/*k=*/1, /*eps=*/0.01, AxesAndDiagonal());
  ASSERT_NO_FATAL_FAILURE(Insert(0, {0.9, 0.9}));
  // Empty universe, empty C: every insert scans.
  ASSERT_NO_FATAL_FAILURE(Insert(1, {0.5, 0.5}));
  EXPECT_FALSE(skipped_);
  CoverAll();
  ASSERT_NO_FATAL_FAILURE(Insert(2, {0.5, 0.4}));
  EXPECT_TRUE(skipped_);
  // InitializeGreedy over no elements empties C again.
  live_->mutable_cover().InitializeGreedy({});
  ASSERT_EQ(live_->cover().CoverSize(), 0);
  ASSERT_NO_FATAL_FAILURE(Insert(3, {0.4, 0.5}));
  EXPECT_FALSE(skipped_);
  // One element joining the universe brings its covering set into C.
  live_->mutable_cover().AddToUniverse(2);
  ASSERT_EQ(live_->cover().CoverSetIds(), (std::vector<int>{0}));
  ASSERT_NO_FATAL_FAILURE(Insert(4, {0.4, 0.4}));
  EXPECT_TRUE(skipped_);
  // A new top of an axis joins C when its element enters the universe; a
  // tuple it dominates but (0.9, 0.9) does not is then skipped too.
  ASSERT_NO_FATAL_FAILURE(Insert(5, {0.99, 0.5}));
  EXPECT_FALSE(skipped_);
  live_->mutable_cover().AddToUniverse(0);
  ASSERT_EQ(live_->cover().CoverSetIds(), (std::vector<int>{0, 5}));
  ASSERT_NO_FATAL_FAILURE(Insert(6, {0.95, 0.3}));
  EXPECT_TRUE(skipped_);
  EXPECT_EQ(live_->insert_scan_skips(), 3u);
}

TEST_F(ScanSkipTest, EdgeCoordinatesScanUnlessTheProofCoversThem) {
  // Positive utilities, so an infinite coordinate scores +inf, never NaN.
  Make(/*k=*/1, /*eps=*/0.1,
       {{0.8, 0.6}, {0.6, 0.8}, {std::sqrt(0.5), std::sqrt(0.5)}});
  ASSERT_NO_FATAL_FAILURE(Insert(0, {0.9, 0.9}));
  CoverAll();
  ASSERT_EQ(live_->cover().CoverSetIds(), (std::vector<int>{0}));
  const double s = Scaled(0.9);
  int id = 1;
  // A negative coordinate scans; the tuple is still out of every Φ.
  ASSERT_NO_FATAL_FAILURE(Insert(id++, {-0.1, 0.5}));
  EXPECT_FALSE(skipped_);
  // An exact tie with the scaled member coordinate scans; one ulp below
  // it skips.
  ASSERT_NO_FATAL_FAILURE(Insert(id++, {s, 0.5}));
  EXPECT_FALSE(skipped_);
  ASSERT_NO_FATAL_FAILURE(Insert(id++, {std::nextafter(s, 0.0), 0.5}));
  EXPECT_TRUE(skipped_);
  // Subnormal and zero coordinates are covered by the proof.
  const double tiny = std::numeric_limits<double>::denorm_min();
  ASSERT_NO_FATAL_FAILURE(Insert(id++, {tiny, 0.0}));
  EXPECT_TRUE(skipped_);
  ASSERT_NO_FATAL_FAILURE(Insert(id++, {0.0, 0.0}));
  EXPECT_TRUE(skipped_);
  // +inf scans and tops every utility; its deletion restores the rest.
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_NO_FATAL_FAILURE(Insert(id, {inf, inf}));
  EXPECT_FALSE(skipped_);
  EXPECT_EQ(live_->MemberOf(id).size(), 3u);
  ASSERT_NO_FATAL_FAILURE(Delete(id++));
  // NaN scans and reaches nothing. A NaN score has no place in the brute
  // force ranking, so the state is validated once it is deleted again.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_NO_FATAL_FAILURE(Insert(id, {nan, 0.5}, /*validate=*/false));
  EXPECT_FALSE(skipped_);
  EXPECT_TRUE(live_->MemberOf(id).empty());
  ASSERT_NO_FATAL_FAILURE(Delete(id++));
  EXPECT_EQ(live_->insert_scan_skips(), 3u);
}

TEST_F(ScanSkipTest, MembersOutsideTheScaledRangeDominateNothing) {
  // A member with a subnormal coordinate is left out of the test rows: p
  // below it in every coordinate still scans.
  Make(/*k=*/1, /*eps=*/0.1, {{0.0, 1.0}, {0.1, 0.9}});
  ASSERT_NO_FATAL_FAILURE(Insert(0, {1e-310, 0.9}));
  CoverAll();
  ASSERT_EQ(live_->cover().CoverSetIds(), (std::vector<int>{0}));
  const Point p{0.0, 0.5};
  ASSERT_EQ(Dominators(p), 1);
  ASSERT_NO_FATAL_FAILURE(Insert(1, p));
  EXPECT_FALSE(skipped_);
  EXPECT_EQ(live_->insert_scan_skips(), 0u);
}

TEST_F(ScanSkipTest, KDominatorsAreNeeded) {
  // k = 2: each axis keeps its two best in Φ, and no tuple is in both, so
  // C holds one tuple per axis.
  Make(/*k=*/2, /*eps=*/0.01, {{1.0, 0.0}, {0.0, 1.0}});
  ASSERT_NO_FATAL_FAILURE(Insert(0, {0.9, 0.5}));
  ASSERT_NO_FATAL_FAILURE(Insert(1, {0.89, 0.5}));
  ASSERT_NO_FATAL_FAILURE(Insert(2, {0.5, 0.9}));
  ASSERT_NO_FATAL_FAILURE(Insert(3, {0.5, 0.89}));
  CoverAll();
  ASSERT_EQ(live_->cover().CoverSize(), 2);
  const Point one{0.6, 0.3};
  const Point both{0.3, 0.3};
  ASSERT_EQ(Dominators(one), 1);
  ASSERT_EQ(Dominators(both), 2);
  ASSERT_NO_FATAL_FAILURE(Insert(4, one));
  EXPECT_FALSE(skipped_);
  ASSERT_NO_FATAL_FAILURE(Insert(5, both));
  EXPECT_TRUE(skipped_);
}

class ScanSkipChurnTest : public ScanSkipTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ScanSkipChurnTest, MatchesTheScanningMaintainerUnderChurn) {
  // Random churn with the cover kept over all utilities, deleting C's
  // members often so the test rows go stale often.
  Rng rng(40 + static_cast<uint64_t>(GetParam()));
  Make(/*k=*/GetParam(), /*eps=*/0.05, SampleUtilityVectors(48, 4, &rng));
  CoverAll();
  std::vector<int> live;
  int next_id = 0;
  int skips = 0;
  for (int op = 0; op < 800; ++op) {
    if (live.size() < 40 || rng.UniformInt(3) != 0) {
      Point p(4);
      for (double& x : p) x = rng.Uniform();
      ASSERT_NO_FATAL_FAILURE(Insert(next_id, p, /*validate=*/op % 10 == 0));
      skips += skipped_ ? 1 : 0;
      live.push_back(next_id++);
      continue;
    }
    const std::vector<int> q = live_->cover().CoverSetIds();
    const int id = rng.UniformInt(2) == 0 && !q.empty()
                       ? q[static_cast<size_t>(
                             rng.UniformInt(static_cast<int>(q.size())))]
                       : live[static_cast<size_t>(
                             rng.UniformInt(static_cast<int>(live.size())))];
    ASSERT_NO_FATAL_FAILURE(Delete(id));
    live.erase(std::find(live.begin(), live.end(), id));
  }
  EXPECT_GT(skips, 10);
  EXPECT_EQ(static_cast<uint64_t>(skips), live_->insert_scan_skips());
}

INSTANTIATE_TEST_SUITE_P(K, ScanSkipChurnTest, ::testing::Values(1, 3));

}  // namespace
}  // namespace fdrms
