/// Cross-module property tests: randomized instances validated against
/// independent oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <utility>
#include <vector>

#include "baselines/exact2d.h"
#include "baselines/greedy.h"
#include "common/rng.h"
#include "data/generators.h"
#include "eval/workload.h"
#include "lp/simplex.h"
#include "setcover/dynamic_set_cover.h"

namespace fdrms {
namespace {

TEST(LpPropertyTest, OptimumDominatesAllFeasibleVertexCandidates) {
  // For random small LPs, the simplex optimum must upper-bound the
  // objective at any feasible point we can construct by rounding random
  // candidates into the feasible region.
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 2 + rng.UniformInt(3);
    int m = 2 + rng.UniformInt(4);
    LpProblem lp;
    lp.c.resize(n);
    for (double& v : lp.c) v = rng.Uniform(-1.0, 1.0);
    lp.A.assign(m, std::vector<double>(n));
    lp.b.resize(m);
    for (int i = 0; i < m; ++i) {
      for (double& v : lp.A[i]) v = rng.Uniform(0.1, 1.0);  // all-positive A
      lp.b[i] = rng.Uniform(0.5, 2.0);  // => bounded, feasible at 0
    }
    LpSolution sol = SolveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "trial " << trial;
    // The solution itself must be feasible.
    for (int i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) lhs += lp.A[i][j] * sol.x[j];
      EXPECT_LE(lhs, lp.b[i] + 1e-7);
    }
    for (double v : sol.x) EXPECT_GE(v, -1e-9);
    // Random feasible points never beat it.
    for (int probe = 0; probe < 200; ++probe) {
      std::vector<double> x(n);
      for (double& v : x) v = rng.Uniform();
      // Scale into the feasible region.
      double worst_ratio = 1.0;
      for (int i = 0; i < m; ++i) {
        double lhs = 0.0;
        for (int j = 0; j < n; ++j) lhs += lp.A[i][j] * x[j];
        if (lhs > lp.b[i]) worst_ratio = std::min(worst_ratio, lp.b[i] / lhs);
      }
      double value = 0.0;
      for (int j = 0; j < n; ++j) value += lp.c[j] * x[j] * worst_ratio;
      EXPECT_LE(value, sol.objective + 1e-7)
          << "feasible point beats 'optimal' (trial " << trial << ")";
    }
  }
}

TEST(SetCoverPropertyTest, StableSolutionWithinLogBoundOfGreedy) {
  // Random instances: after churn, the stable solution's size must stay
  // within the Theorem-1 factor of a fresh greedy solution (our stand-in
  // for OPT's order of magnitude).
  Rng rng(72);
  for (int trial = 0; trial < 10; ++trial) {
    int m = 50 + rng.UniformInt(150);
    int num_sets = 20 + rng.UniformInt(60);
    DynamicSetCover dynamic(m);
    for (int e = 0; e < m; ++e) {
      int degree = 1 + rng.UniformInt(5);
      for (int j = 0; j < degree; ++j) {
        dynamic.AddMembership(e, rng.UniformInt(num_sets));
      }
    }
    std::vector<int> universe(m);
    for (int i = 0; i < m; ++i) universe[i] = i;
    dynamic.InitializeGreedy(universe);
    for (int op = 0; op < 400; ++op) {
      int e = rng.UniformInt(m);
      int s = rng.UniformInt(num_sets);
      if (rng.Uniform() < 0.5) {
        dynamic.AddMembership(e, s);
      } else if (dynamic.system().SetsContaining(e).size() > 1) {
        dynamic.RemoveMembership(e, s);
      }
    }
    ASSERT_TRUE(dynamic.CheckInvariants().ok());
    int dynamic_size = dynamic.CoverSize();
    // Fresh greedy on the same (mutated) incidence.
    dynamic.InitializeGreedy(universe);
    int greedy_size = dynamic.CoverSize();
    double bound = (2.0 + 2.0 * std::log2(m)) * std::max(1, greedy_size);
    EXPECT_LE(dynamic_size, bound)
        << "trial " << trial << ": dynamic " << dynamic_size << " greedy "
        << greedy_size;
  }
}

TEST(SetCoverPropertyTest, SolutionIndependentOfIncidenceOrder) {
  // Two covers receive the same memberships in different orders, then the
  // same σ stream over scattered set ids (extremes included, ids re-added
  // after RemoveSet). The solution depends only on the incidence, so both
  // must agree on every assignment and level after every op, and both
  // must satisfy CheckInvariants throughout.
  const std::vector<int> ids = {INT_MIN, -65537, -3, 0, 5, 1 << 20, INT_MAX};
  Rng rng(76);
  for (int trial = 0; trial < 6; ++trial) {
    const int m = 20 + rng.UniformInt(40);
    std::vector<std::pair<int, int>> memberships;
    for (int e = 0; e < m; ++e) {
      const int degree = 1 + rng.UniformInt(4);
      for (int j = 0; j < degree; ++j) {
        memberships.emplace_back(
            e, ids[static_cast<size_t>(
                   rng.UniformInt(static_cast<int>(ids.size())))]);
      }
    }
    DynamicSetCover a(m), b(m);
    for (const auto& [e, id] : memberships) a.AddMembership(e, id);
    rng.Shuffle(&memberships);
    for (const auto& [e, id] : memberships) b.AddMembership(e, id);
    std::vector<int> universe;
    for (int e = 0; e < m; ++e) {
      if (rng.Uniform() < 0.8) universe.push_back(e);
    }
    a.InitializeGreedy(universe);
    b.InitializeGreedy(universe);
    for (int op = 0; op < 400; ++op) {
      const int e = rng.UniformInt(m);
      const int id = ids[static_cast<size_t>(
          rng.UniformInt(static_cast<int>(ids.size())))];
      const int kind = rng.UniformInt(12);
      for (DynamicSetCover* cover : {&a, &b}) {
        if (kind < 5) {
          cover->AddMembership(e, id);
        } else if (kind < 9) {
          cover->RemoveMembership(e, id);
        } else if (kind == 9) {
          cover->AddToUniverse(e);
        } else if (kind == 10) {
          cover->RemoveFromUniverse(e);
        } else {
          cover->RemoveSet(id);
        }
        Status st = cover->CheckInvariants();
        ASSERT_TRUE(st.ok()) << "trial " << trial << " op " << op << ": "
                             << st.ToString();
      }
      ASSERT_EQ(a.CoverSetIds(), b.CoverSetIds())
          << "trial " << trial << " op " << op;
      for (int x = 0; x < m; ++x) {
        ASSERT_EQ(a.AssignmentOf(x), b.AssignmentOf(x))
            << "trial " << trial << " op " << op << " element " << x;
      }
      for (int set_id : a.CoverSetIds()) {
        ASSERT_EQ(a.LevelOf(set_id), b.LevelOf(set_id));
      }
    }
  }
}

TEST(GreedyPropertyTest, RegretNeverIncreasesAlongGreedyPrefix) {
  // The witness greedy adds the max-regret witness; the exact optimal LP
  // regret of the prefix must be non-increasing.
  PointSet ps = GenerateIndep(200, 3, 73);
  Database db;
  db.dim = 3;
  for (int i = 0; i < ps.size(); ++i) {
    db.ids.push_back(i);
    db.points.push_back(ps.Get(i));
  }
  Rng rng(74);
  GreedyRms greedy;
  std::vector<int> q = greedy.Compute(db, 1, 12, &rng);
  std::vector<int> skyline = SkylineIndices(db);
  auto exact_regret = [&](const std::vector<int>& prefix) {
    std::vector<std::vector<double>> q_rows;
    for (int id : prefix) q_rows.push_back(db.points[id]);
    double worst = 0.0;
    for (int idx : skyline) {
      worst = std::max(worst, MaxRegretForWitness(db.points[idx], q_rows));
    }
    return worst;
  };
  double prev = 1.0;
  for (size_t len = 1; len <= q.size(); ++len) {
    std::vector<int> prefix(q.begin(), q.begin() + len);
    double regret = exact_regret(prefix);
    EXPECT_LE(regret, prev + 1e-9) << "prefix length " << len;
    prev = regret;
  }
}

TEST(Exact2dPropertyTest, LowerBoundsEveryHeuristic) {
  // The exact optimum must lower-bound the regret achieved by greedy on
  // random 2-d instances.
  Rng rng(75);
  for (int trial = 0; trial < 6; ++trial) {
    PointSet ps = GenerateAntiCor(120, 2, 300 + trial);
    Database db;
    db.dim = 2;
    for (int i = 0; i < ps.size(); ++i) {
      db.ids.push_back(i);
      db.points.push_back(ps.Get(i));
    }
    Exact2dRms exact;
    const int r = 4;
    double optimum = exact.OptimalRegret(db, r);
    GreedyRms greedy;
    std::vector<int> gq = greedy.Compute(db, 1, r, &rng);
    // Exact regret of the greedy answer via dense sweep.
    double greedy_regret = 0.0;
    for (int s = 0; s <= 4000; ++s) {
      double t = s / 4000.0;
      double omega = 0.0, best = 0.0;
      for (int i = 0; i < db.size(); ++i) {
        double sc = t * db.points[i][0] + (1 - t) * db.points[i][1];
        omega = std::max(omega, sc);
        if (std::find(gq.begin(), gq.end(), db.ids[i]) != gq.end()) {
          best = std::max(best, sc);
        }
      }
      if (omega > 0) greedy_regret = std::max(greedy_regret, 1.0 - best / omega);
    }
    // 5e-4 covers the 4000-step sweep's discretization error in
    // greedy_regret (the sweep can only underestimate the true maximum).
    EXPECT_LE(optimum, greedy_regret + 5e-4) << "trial " << trial;
  }
}

TEST(WorkloadPropertyTest, DeterministicAcrossConstructions) {
  PointSet ps = GenerateIndep(120, 3, 76);
  Workload a(&ps, 42);
  Workload b(&ps, 42);
  EXPECT_EQ(a.initial_ids(), b.initial_ids());
  ASSERT_EQ(a.operations().size(), b.operations().size());
  for (size_t i = 0; i < a.operations().size(); ++i) {
    EXPECT_EQ(a.operations()[i].id, b.operations()[i].id);
    EXPECT_EQ(a.operations()[i].is_insert, b.operations()[i].is_insert);
  }
  Workload c(&ps, 43);
  EXPECT_NE(a.initial_ids(), c.initial_ids());
}

}  // namespace
}  // namespace fdrms
