// Differential test: FdRms against the σ-by-σ composition of its two
// layers. The reference drives a TopKMaintainer and a second
// DynamicSetCover through their public calls only, in the order the paper
// states Algorithms 2-4: every Φ delta becomes one σ = (u, S, ±) through
// the idempotent AddMembership and RemoveMembership, and a delete then
// drops the emptied set with RemoveSet. FdRms keeps one incidence, written
// by its maintainer through the cover (unchecked appends, evictions by
// link position, a non-cover tuple's set dropped in one call); both must
// reach the same state after every operation. The reference's maintainer
// has an inert cover, so it scans the utilities on every insert, while
// FdRms's skips the scan for tuples its result ε-dominates: the test is
// also a skip-versus-scan oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/fdrms.h"
#include "setcover/dynamic_set_cover.h"
#include "topk/topk_maintainer.h"

namespace fdrms {
namespace {

/// FD-RMS rebuilt from its layers' public calls, σ by σ.
class ComposedFdRms {
 public:
  ComposedFdRms(int dim, const FdRmsOptions& options,
                std::vector<Point> utilities)
      : r_(options.r),
        topk_(dim, options.k, options.eps, std::move(utilities)),
        cover_(topk_.num_utilities()) {}

  void Initialize(const std::vector<std::pair<int, Point>>& tuples) {
    for (const auto& [id, p] : tuples) {
      ASSERT_TRUE(topk_.Insert(id, p, /*deltas=*/nullptr).ok());
    }
    const int M = topk_.num_utilities();
    for (int i = 0; i < M; ++i) {
      for (int id : topk_.ApproxTopK(i)) cover_.AddMembership(i, id);
    }
    // Algorithm 2's binary search of m ∈ [r, M] for greedy cover size r.
    int lo = std::min(r_, M);
    int hi = M;
    int best_m = lo;
    auto greedy_at = [&](int m) {
      std::vector<int> universe(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) universe[static_cast<size_t>(i)] = i;
      cover_.InitializeGreedy(universe);
      return cover_.CoverSize();
    };
    if (greedy_at(lo) <= r_) {
      int lo_search = lo + 1;
      while (lo_search <= hi) {
        const int mid = lo_search + (hi - lo_search) / 2;
        const int size = greedy_at(mid);
        if (size <= r_) {
          best_m = mid;
          if (size == r_) break;
          lo_search = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
    }
    greedy_at(best_m);
    m_ = best_m;
    if (cover_.CoverSize() != r_) UpdateM();
  }

  void Insert(int id, const Point& p) {
    deltas_.clear();
    ASSERT_TRUE(topk_.Insert(id, p, &deltas_).ok());
    ApplyDeltas();
    if (cover_.CoverSize() != r_) UpdateM();
  }

  void Delete(int id) {
    deltas_.clear();
    ASSERT_TRUE(topk_.Delete(id, &deltas_).ok());
    ApplyDeltas();
    cover_.RemoveSet(id);
    if (cover_.CoverSize() != r_) UpdateM();
  }

  int m() const { return m_; }
  const DynamicSetCover& cover() const { return cover_; }

 private:
  // Additions before removals, so reassignments see the new targets.
  void ApplyDeltas() {
    for (const TopKDelta& d : deltas_) {
      if (d.added) cover_.AddMembership(d.utility, d.tuple_id);
    }
    for (const TopKDelta& d : deltas_) {
      if (!d.added) cover_.RemoveMembership(d.utility, d.tuple_id);
    }
  }

  // Algorithm 4.
  void UpdateM() {
    const int M = topk_.num_utilities();
    const int m_floor = std::max(1, std::min(r_, M));
    if (cover_.CoverSize() < r_) {
      while (m_ < M && cover_.CoverSize() < r_) cover_.AddToUniverse(m_++);
    } else if (cover_.CoverSize() > r_) {
      while (cover_.CoverSize() > r_ && m_ > m_floor) {
        cover_.RemoveFromUniverse(--m_);
      }
    }
  }

  int r_;
  int m_ = 0;
  TopKMaintainer topk_;
  DynamicSetCover cover_;
  std::vector<TopKDelta> deltas_;
};

struct DiffParam {
  int dim;
  int k;
  double eps;
};

std::string ParamName(const ::testing::TestParamInfo<DiffParam>& info) {
  std::string name = "d";
  name += std::to_string(info.param.dim);
  name += "_k";
  name += std::to_string(info.param.k);
  name += "_eps";
  name += std::to_string(static_cast<int>(info.param.eps * 100));
  return name;
}

class FdRmsDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

Point RandomPoint(int dim, Rng* rng) {
  Point p(static_cast<size_t>(dim));
  for (double& x : p) x = rng->Uniform();
  return p;
}

/// Compares everything a caller can observe of the two solutions.
void ExpectSameState(const FdRms& algo, const ComposedFdRms& ref, int op) {
  ASSERT_EQ(algo.Result(), ref.cover().CoverSetIds()) << "op " << op;
  ASSERT_EQ(algo.current_m(), ref.m()) << "op " << op;
  const int M = algo.topk().num_utilities();
  for (int u = 0; u < M; ++u) {
    ASSERT_EQ(algo.cover().AssignmentOf(u), ref.cover().AssignmentOf(u))
        << "op " << op << " utility " << u;
  }
  for (int id : ref.cover().CoverSetIds()) {
    ASSERT_EQ(algo.cover().LevelOf(id), ref.cover().LevelOf(id))
        << "op " << op << " set " << id;
  }
  ASSERT_EQ(algo.cover().system().num_links(),
            ref.cover().system().num_links())
      << "op " << op;
}

TEST_P(FdRmsDifferentialTest, MatchesTheSigmaBySigmaComposition) {
  const DiffParam param = GetParam();
  FdRmsOptions opt;
  opt.k = param.k;
  opt.r = 8;
  opt.eps = param.eps;
  opt.max_utilities = 256;
  opt.seed = 1000 + static_cast<uint64_t>(param.dim * 10 + param.k);
  FdRms algo(param.dim, opt);
  ComposedFdRms ref(param.dim, opt, algo.topk().utilities());

  Rng rng(opt.seed + 1);
  std::vector<std::pair<int, Point>> initial;
  std::vector<int> live;
  int next_id = 0;
  for (int i = 0; i < 300; ++i) {
    initial.emplace_back(next_id, RandomPoint(param.dim, &rng));
    live.push_back(next_id++);
  }
  ASSERT_TRUE(algo.Initialize(initial).ok());
  ASSERT_NO_FATAL_FAILURE(ref.Initialize(initial));
  ASSERT_NO_FATAL_FAILURE(ExpectSameState(algo, ref, -1));

  auto remove_live = [&](int id) {
    auto it = std::find(live.begin(), live.end(), id);
    ASSERT_NE(it, live.end());
    *it = live.back();
    live.pop_back();
  };
  int cover_deletes = 0;
  int wide_deletes = 0;
  int dominating_inserts = 0;
  int scan_skips = 0;
  int m_moves = 0;
  const int kOps = 1500;
  for (int op = 0; op < kOps; ++op) {
    const int m_before = algo.current_m();
    const int kind = rng.UniformInt(20);
    if (live.size() < 100 || kind < 9) {
      Point p = RandomPoint(param.dim, &rng);
      if (kind == 0) {
        // Near the all-ones corner: enters many Φ sets and evicts.
        for (double& x : p) x = 0.97 + 0.03 * x;
        ++dominating_inserts;
      }
      const int id = next_id++;
      const uint64_t skips_before = algo.topk().insert_scan_skips();
      ASSERT_TRUE(algo.Insert(id, p).ok());
      if (algo.topk().insert_scan_skips() != skips_before) ++scan_skips;
      ASSERT_NO_FATAL_FAILURE(ref.Insert(id, p));
      live.push_back(id);
    } else {
      int id = live[static_cast<size_t>(
          rng.UniformInt(static_cast<int>(live.size())))];
      if (kind < 13) {
        // A member of the cover: its set carries cover duties.
        const std::vector<int> q = algo.Result();
        if (!q.empty()) {
          id = q[static_cast<size_t>(
              rng.UniformInt(static_cast<int>(q.size())))];
        }
      } else if (kind < 16) {
        // The live tuple in the most Φ sets.
        size_t widest = 0;
        for (int cand : live) {
          const size_t w = algo.topk().MemberOf(cand).size();
          if (w > widest) {
            widest = w;
            id = cand;
          }
        }
      }
      if (algo.cover().LevelOf(id) >= 0) ++cover_deletes;
      if (algo.topk().MemberOf(id).size() >= 64) ++wide_deletes;
      ASSERT_TRUE(algo.Delete(id).ok());
      ASSERT_NO_FATAL_FAILURE(ref.Delete(id));
      ASSERT_NO_FATAL_FAILURE(remove_live(id));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(algo, ref, op));
    if (algo.current_m() != m_before) ++m_moves;
    if (op % 200 == 199) {
      const Status st = algo.Validate();
      ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
    }
  }
  // The stream reached the paths it was built to reach.
  EXPECT_GT(cover_deletes, 50);
  EXPECT_GT(wide_deletes, 10);
  EXPECT_GT(dominating_inserts, 20);
  EXPECT_GT(scan_skips, 0);
  // UPDATEM (Algorithm 4) changed the universe over the shared incidence.
  EXPECT_GT(m_moves, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, FdRmsDifferentialTest,
    ::testing::Values(DiffParam{3, 1, 0.05}, DiffParam{3, 1, 0.1},
                      DiffParam{3, 3, 0.05}, DiffParam{3, 3, 0.1},
                      DiffParam{4, 1, 0.05}, DiffParam{4, 1, 0.1},
                      DiffParam{4, 3, 0.05}, DiffParam{4, 3, 0.1}),
    ParamName);

}  // namespace
}  // namespace fdrms
