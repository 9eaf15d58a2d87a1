/// Dispatch-matrix equivalence suite: every scoring path must produce
/// *bit-identical* results on every SIMD tier the host supports (scalar is
/// always available; AVX2/AVX-512/NEON when compiled in and the CPU
/// executes them). Also pins the ScoreMatrix alignment contract and the
/// debug-build guard rails (ScoreSubset bounds, stale PointRef access).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/sampling.h"
#include "geometry/score_kernel.h"
#include "geometry/simd_dispatch.h"
#include "index/conetree.h"
#include "index/kdtree.h"

namespace fdrms {
namespace {

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kNeon, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// RAII tier override restoring the previously active tier.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier) : prev_(ActiveSimdTier()) {
    EXPECT_TRUE(SetSimdTier(tier)) << SimdTierName(tier);
  }
  ~ScopedSimdTier() { SetSimdTier(prev_); }

 private:
  SimdTier prev_;
};

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndNamed) {
  EXPECT_TRUE(SimdTierSupported(SimdTier::kScalar));
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx512), "avx512");
  EXPECT_STREQ(SimdTierName(SimdTier::kNeon), "neon");
  // The resolved tier must itself be supported.
  EXPECT_TRUE(SimdTierSupported(ActiveSimdTier()));
  EXPECT_TRUE(SimdTierSupported(BestSupportedSimdTier()));
}

TEST(SimdDispatchTest, SetSimdTierRoundTripsAndRejectsUnsupported) {
  const SimdTier before = ActiveSimdTier();
  for (SimdTier tier : AvailableTiers()) {
    ASSERT_TRUE(SetSimdTier(tier));
    EXPECT_EQ(ActiveSimdTier(), tier);
  }
  for (SimdTier tier : {SimdTier::kNeon, SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (!SimdTierSupported(tier)) {
      SimdTier current = ActiveSimdTier();
      EXPECT_FALSE(SetSimdTier(tier));
      EXPECT_EQ(ActiveSimdTier(), current) << "failed set must not switch";
    }
  }
  ASSERT_TRUE(SetSimdTier(before));
}

// The alignment contract the SIMD tiers lean on: 64-byte-aligned slab
// base, 32-byte-aligned row starts, for every dimensionality — including
// after append-driven regrowth. (The PR 5 slab was a plain std::vector
// whose base is only guaranteed alignof(double); any aligned load on the
// documented promise would have been UB.)
TEST(ScoreMatrixAlignmentTest, RowsAre32ByteAlignedForDims1Through17) {
  Rng rng(11);
  for (int d = 1; d <= 17; ++d) {
    for (int rows : {1, 2, 5, 9}) {
      std::vector<Point> data;
      for (int i = 0; i < rows; ++i) {
        Point p(static_cast<size_t>(d));
        for (double& x : p) x = rng.Uniform();
        data.push_back(std::move(p));
      }
      ScoreMatrix mat(data);
      EXPECT_EQ(mat.stride() % 4, 0u) << "stride not a 32-byte multiple";
      EXPECT_GE(mat.stride(), static_cast<size_t>(d));
      EXPECT_EQ(reinterpret_cast<uintptr_t>(mat.row(0)) %
                    kScoreSlabAlignmentBytes,
                0u)
          << "slab base not 64-byte aligned, d=" << d;
      for (int i = 0; i < rows; ++i) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(mat.row(i)) % 32, 0u)
            << "row " << i << " misaligned, d=" << d;
      }
    }
  }
}

TEST(ScoreMatrixAlignmentTest, AppendGrowthKeepsAlignmentAndContents) {
  Rng rng(13);
  for (int d : {1, 3, 4, 7, 16, 17}) {
    ScoreMatrix mat(d);
    std::vector<Point> reference;
    for (int i = 0; i < 100; ++i) {  // forces several regrowths
      Point p(static_cast<size_t>(d));
      for (double& x : p) x = rng.Uniform();
      ASSERT_EQ(mat.AppendRow(p), i);
      reference.push_back(std::move(p));
      EXPECT_EQ(reinterpret_cast<uintptr_t>(mat.row(i)) % 32, 0u);
    }
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mat.row(0)) %
                  kScoreSlabAlignmentBytes,
              0u);
    for (int i = 0; i < 100; ++i) {
      for (int k = 0; k < d; ++k) {
        EXPECT_EQ(mat.row(i)[k], reference[static_cast<size_t>(i)]
                                          [static_cast<size_t>(k)]);
      }
    }
  }
}

TEST(ScoreMatrixAlignmentTest, CopyAndMovePreserveAlignmentAndValues) {
  Rng rng(29);
  std::vector<Point> data;
  for (int i = 0; i < 7; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    data.push_back(std::move(p));
  }
  ScoreMatrix original(data);
  ScoreMatrix copy(original);
  ASSERT_EQ(copy.rows(), 7);
  EXPECT_NE(copy.row(0), original.row(0)) << "copy must own a fresh slab";
  EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.row(0)) %
                kScoreSlabAlignmentBytes,
            0u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.row(i)) % 32, 0u);
    for (int k = 0; k < 3; ++k) EXPECT_EQ(copy.row(i)[k], original.row(i)[k]);
  }
  const double* slab = original.row(0);
  ScoreMatrix moved(std::move(original));
  EXPECT_EQ(moved.row(0), slab) << "move must transfer the slab";
  EXPECT_EQ(moved.rows(), 7);
}

// Every kernel path on every available tier, bit-identical (EXPECT_EQ on
// doubles, not EXPECT_NEAR) to the scalar Dot reference, over every
// dimensionality 1..17 and row counts around the 2/4/8-row block edges.
TEST(SimdDispatchTest, KernelsBitIdenticalToScalarDotOnEveryTier) {
  Rng rng(41);
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    for (int d = 1; d <= 17; ++d) {
      for (int rows : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33}) {
        std::vector<Point> mat_rows;
        for (int i = 0; i < rows; ++i) {
          Point u(static_cast<size_t>(d));
          for (double& x : u) x = rng.Uniform() * 2.0 - 0.5;
          mat_rows.push_back(std::move(u));
        }
        Point q(static_cast<size_t>(d));
        for (double& x : q) x = rng.Uniform() * 3.0 - 1.0;
        ScoreMatrix mat(mat_rows);

        std::vector<double> all;
        mat.ScoreAll(q, &all);
        ASSERT_EQ(all.size(), static_cast<size_t>(rows));
        for (int i = 0; i < rows; ++i) {
          EXPECT_EQ(all[static_cast<size_t>(i)],
                    Dot(mat_rows[static_cast<size_t>(i)], q))
              << SimdTierName(tier) << " ScoreAll d=" << d << " rows=" << rows
              << " i=" << i;
        }

        std::vector<int> subset;
        for (int i = rows - 1; i >= 0; i -= 2) subset.push_back(i);
        std::vector<double> gathered(subset.size());
        mat.ScoreSubset(q, subset, gathered.data());
        for (size_t j = 0; j < subset.size(); ++j) {
          EXPECT_EQ(gathered[j],
                    Dot(mat_rows[static_cast<size_t>(subset[j])], q))
              << SimdTierName(tier) << " ScoreSubset d=" << d
              << " rows=" << rows << " j=" << j;
        }
      }
    }
  }
}

// The raw ScoreBlock API carries no alignment promise and must not read
// the inter-row padding: poison it and run every tier over an unaligned,
// oddly-strided block.
TEST(SimdDispatchTest, RawScoreBlockRespectsStrideAndTailOnEveryTier) {
  const int d = 5;
  const size_t stride = 7;  // deliberately not a 32-byte multiple
  const size_t count = 11;
  std::vector<double> rows(count * stride + 1, -777.0);  // poisoned padding
  for (size_t j = 0; j < count; ++j) {
    for (int k = 0; k < d; ++k) {
      rows[1 + j * stride + static_cast<size_t>(k)] =
          0.25 * static_cast<double>(j + 1) * static_cast<double>(k + 2);
    }
  }
  const double* base = rows.data() + 1;  // knock the base off alignment
  const double q[d] = {1.0, -0.5, 0.25, 2.0, -1.0};
  double expect[count];
  ScoreBlockScalar(base, stride, d, count, q, expect);
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    double out[count];
    ScoreBlock(base, stride, d, count, q, out);
    for (size_t j = 0; j < count; ++j) {
      EXPECT_EQ(out[j], expect[j])
          << SimdTierName(tier) << " row " << j;
    }
  }
}

/// Brute-force helpers for the index-level equivalence runs.
std::vector<ScoredId> BruteTopK(const std::unordered_map<int, Point>& live,
                                const Point& u, int k) {
  std::vector<ScoredId> all;
  for (const auto& [id, p] : live) all.push_back({Dot(u, p), id});
  std::sort(all.begin(), all.end(), BetterScore);
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

// Full kd-tree insert/delete/rebuild churn with TopK + ScoreRange checked
// against brute force on every tier: the SoA leaf scans must agree with
// the heap-scattered reference no matter which kernel runs them.
TEST(SimdDispatchTest, KdTreeQueriesMatchBruteForceOnEveryTier) {
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    Rng rng(1234);
    const int d = 6;
    KdTree tree(d, /*leaf_size=*/4);  // small leaves => deep tree, many scans
    std::unordered_map<int, Point> live;
    int next_id = 0;
    for (int op = 0; op < 900; ++op) {
      const bool do_insert = live.empty() || rng.Uniform() < 0.6;
      if (do_insert) {
        Point p(static_cast<size_t>(d));
        for (double& v : p) v = rng.Uniform();
        ASSERT_TRUE(tree.Insert(next_id, p).ok());
        live.emplace(next_id, p);
        ++next_id;
      } else {
        auto it = live.begin();
        std::advance(it, rng.UniformInt(static_cast<int>(live.size())));
        ASSERT_TRUE(tree.Delete(it->first).ok());
        live.erase(it);
      }
      if (op % 20 == 0 && !live.empty()) {
        Point u = SampleUnitVectorNonneg(d, &rng);
        auto brute = BruteTopK(live, u, 4);
        EXPECT_EQ(tree.TopK(u, 4), brute) << SimdTierName(tier) << " op " << op;
        const double thr = brute.back().score * 0.9;
        std::vector<ScoredId> expect_range;
        for (const auto& [id, p] : live) {
          const double s = Dot(u, p);
          if (s >= thr) expect_range.push_back({s, id});
        }
        std::sort(expect_range.begin(), expect_range.end(), BetterScore);
        EXPECT_EQ(tree.ScoreRange(u, thr), expect_range)
            << SimdTierName(tier) << " op " << op;
      }
    }
    tree.Rebuild();
    if (!live.empty()) {
      Point u = SampleUnitVectorNonneg(d, &rng);
      EXPECT_EQ(tree.TopK(u, 8), BruteTopK(live, u, 8)) << SimdTierName(tier);
    }
  }
}

// The group walk (KdTree::ScoreRanges) against per-utility brute force on
// every tier, under churn. Group sizes straddle the walk's 64-utility
// gather chunk: one utility, chunk - 1, chunk, chunk + 1, and every
// utility of the slab. Rows are drawn in random order with repeats,
// thresholds range from "every tuple" (0) to "no tuple" (above the best),
// and every third utility has a finite ceiling.
TEST(SimdDispatchTest, KdTreeGroupRangeWalkMatchesBruteForceOnEveryTier) {
  constexpr int kSlabRows = 150;
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    Rng rng(4321);
    const int d = 5;
    KdTree tree(d, /*leaf_size=*/4);
    const std::vector<Point> utils = SampleUtilityVectors(kSlabRows, d, &rng);
    const ScoreMatrix slab(utils);
    std::unordered_map<int, Point> live;
    int next_id = 0;
    std::vector<std::vector<ScoredId>> ranges;
    for (int op = 0; op < 700; ++op) {
      const bool do_insert = live.empty() || rng.Uniform() < 0.6;
      if (do_insert) {
        Point p(static_cast<size_t>(d));
        for (double& v : p) v = rng.Uniform();
        ASSERT_TRUE(tree.Insert(next_id, p).ok());
        live.emplace(next_id, p);
        ++next_id;
      } else {
        auto it = live.begin();
        std::advance(it, rng.UniformInt(static_cast<int>(live.size())));
        ASSERT_TRUE(tree.Delete(it->first).ok());
        live.erase(it);
      }
      if (op % 50 != 49 || live.empty()) continue;
      for (int group : {1, 63, 64, 65, kSlabRows}) {
        std::vector<int> rows(static_cast<size_t>(group));
        std::vector<double> thresholds(static_cast<size_t>(group));
        std::vector<double> ceilings(static_cast<size_t>(group));
        for (int g = 0; g < group; ++g) {
          const int row = group == kSlabRows ? g : rng.UniformInt(kSlabRows);
          rows[static_cast<size_t>(g)] = row;
          const Point& u = utils[static_cast<size_t>(row)];
          const double best = BruteTopK(live, u, 1)[0].score;
          const double scale[] = {0.0, 0.8, 0.95, 1.0, 1.5};
          thresholds[static_cast<size_t>(g)] =
              best * scale[(g + op / 50) % 5];
          ceilings[static_cast<size_t>(g)] =
              g % 3 == 0 ? best * 0.97
                         : std::numeric_limits<double>::infinity();
        }
        tree.ScoreRanges(slab.row(0), slab.stride(), rows.data(),
                         thresholds.data(), ceilings.data(), rows.size(),
                         &ranges);
        ASSERT_EQ(ranges.size(), rows.size());
        for (int g = 0; g < group; ++g) {
          const Point& u = utils[static_cast<size_t>(rows[g])];
          const double thr = thresholds[static_cast<size_t>(g)];
          const double ceiling = ceilings[static_cast<size_t>(g)];
          std::vector<ScoredId> expect, expect_band;
          for (const auto& [id, p] : live) {
            const double s = Dot(u, p);
            if (s >= thr) expect.push_back({s, id});
            if (s >= thr && s < ceiling) expect_band.push_back({s, id});
          }
          std::sort(expect.begin(), expect.end(), BetterScore);
          std::sort(expect_band.begin(), expect_band.end(), BetterScore);
          ASSERT_EQ(ranges[static_cast<size_t>(g)], expect_band)
              << SimdTierName(tier) << " op " << op << " group " << group
              << " member " << g;
          if (group == 1) {
            ASSERT_EQ(tree.ScoreRange(u, thr), expect);
          }
        }
      }
    }
  }
}

// Cone-tree FindReached against its scalar brute-force oracle per tier.
TEST(SimdDispatchTest, ConeTreeFindReachedMatchesBruteForceOnEveryTier) {
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    Rng rng(77);
    const int d = 5;
    auto utils = SampleUtilityVectors(300, d, &rng);
    ConeTree cone(utils);
    for (int i = 0; i < cone.size(); ++i) {
      cone.SetThreshold(i, 0.4 + 0.6 * rng.Uniform());
    }
    for (int trial = 0; trial < 50; ++trial) {
      Point p(static_cast<size_t>(d));
      for (double& v : p) v = rng.Uniform() * 1.5;
      EXPECT_EQ(cone.FindReached(p), cone.FindReachedBruteForce(p))
          << SimdTierName(tier) << " trial " << trial;
    }
  }
}

/// Random sign times 10^U(lo_exp, hi_exp).
double SignedLogUniform(Rng* rng, double lo_exp, double hi_exp) {
  const double mag = std::pow(10.0, rng->Uniform(lo_exp, hi_exp));
  return rng->Uniform() < 0.5 ? -mag : mag;
}

// The two-stage reached query behind ConeTree per tier, over every lane
// tail (M below, at and just past multiples of 8 and 16) and d = 1..17:
// the indices must equal the scalar brute-force oracle and the scores must
// be bit-equal to Dot. Utilities are unit nonnegative, mixed-sign with
// magnitudes down to float-subnormal, or float-subnormal throughout.
// Probes include float-unsafe ones (1e35, +-1e300, +-inf, NaN), which
// must take the rescore-everything fallback, and float-subnormal ones.
// Thresholds cycle through 0, +inf, -inf, a random bar, the probe's exact
// Dot score (which >= must reach), the next double above it (which must
// not) and +-1e39, beyond FLT_MAX.
TEST(SimdDispatchTest, ConeTreeScanMatchesOracleBitForBitOnEveryTier) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    for (int d = 1; d <= 17; ++d) {
      for (int m : {1, 7, 8, 9, 15, 16, 17, 31, 33, 2048}) {
        for (int family = 0; family < 3; ++family) {
          Rng rng(static_cast<uint64_t>(1000 + 64 * d + m + 7919 * family));
          std::vector<Point> utils;
          for (int i = 0; i < m; ++i) {
            if (family == 0) {
              utils.push_back(SampleUnitVectorNonneg(d, &rng));
              continue;
            }
            // Family 2 is float-subnormal throughout (A < 2^-126).
            Point u(static_cast<size_t>(d));
            for (double& v : u) {
              v = family == 1 ? SignedLogUniform(&rng, -45.0, 0.0)
                              : SignedLogUniform(&rng, -44.0, -39.0);
            }
            utils.push_back(u);
          }
          ConeTree cone(utils);
          std::vector<Point> probes;
          auto add_probe = [&](auto coordinate) {
            Point p(static_cast<size_t>(d));
            for (int k = 0; k < d; ++k) {
              p[static_cast<size_t>(k)] = coordinate(k);
            }
            probes.push_back(p);
          };
          add_probe([&](int) { return 1.5 * rng.Uniform(); });
          add_probe([&](int) { return 2.0 * rng.Uniform() - 1.0; });
          add_probe([&](int) { return 0.0; });
          add_probe([&](int) { return SignedLogUniform(&rng, -42.0, -38.0); });
          add_probe([&](int) { return SignedLogUniform(&rng, -40.0, 28.0); });
          add_probe([&](int k) { return k == 0 ? 1e35 : rng.Uniform(); });
          // Opposite huge coordinates: a finite Dot whose float score is
          // inf - inf.
          add_probe([&](int k) {
            return k == 0 ? 1e300 : k == d - 1 ? -1e300 : rng.Uniform();
          });
          add_probe([&](int k) { return k == 0 ? inf : rng.Uniform(); });
          add_probe([&](int k) { return k == d - 1 ? -inf : rng.Uniform(); });
          add_probe([&](int k) { return k == d / 2 ? nan : rng.Uniform(); });
          for (size_t probe = 0; probe < probes.size(); ++probe) {
            const Point& p = probes[probe];
            for (int i = 0; i < m; ++i) {
              const double dot = Dot(utils[static_cast<size_t>(i)], p);
              switch ((i + probe) % 8) {
                case 0: cone.SetThreshold(i, 0.0); break;
                case 1: cone.SetThreshold(i, inf); break;
                case 2: cone.SetThreshold(i, -inf); break;
                case 3: cone.SetThreshold(i, 1.2 * rng.Uniform()); break;
                case 4: cone.SetThreshold(i, dot); break;
                case 5: cone.SetThreshold(i, std::nextafter(dot, inf)); break;
                case 6: cone.SetThreshold(i, 1e39); break;
                default: cone.SetThreshold(i, -1e39); break;
              }
            }
            std::vector<int> idx;
            std::vector<double> scores;
            cone.FindReached(p, &idx, &scores);
            const std::string where = std::string(SimdTierName(tier)) +
                                      " d=" + std::to_string(d) +
                                      " m=" + std::to_string(m) +
                                      " family=" + std::to_string(family) +
                                      " probe=" + std::to_string(probe);
            ASSERT_EQ(idx, cone.FindReachedBruteForce(p)) << where;
            ASSERT_EQ(idx, cone.FindReached(p)) << where;
            ASSERT_EQ(scores.size(), idx.size()) << where;
            for (size_t j = 0; j < idx.size(); ++j) {
              const double dot =
                  Dot(utils[static_cast<size_t>(idx[j])], p);
              EXPECT_EQ(std::bit_cast<uint64_t>(scores[j]),
                        std::bit_cast<uint64_t>(dot))
                  << where << " utility " << idx[j];
            }
            for (int i = 0; i < m; ++i) {
              // Non-finite scores make "exactly at" and "just above"
              // meaningless (inf >= inf, NaN >= nothing).
              if (!std::isfinite(Dot(utils[static_cast<size_t>(i)], p))) {
                continue;
              }
              const bool reached =
                  std::binary_search(idx.begin(), idx.end(), i);
              if ((i + probe) % 8 == 4) {
                EXPECT_TRUE(reached) << where << " utility " << i;
              }
              if ((i + probe) % 8 == 5) {
                EXPECT_FALSE(reached) << where << " utility " << i;
              }
            }
          }
        }
      }
    }
  }
}

// The reached prefilter kernel itself, per tier: over random and
// adversarial rows every row whose exact Dot reaches its threshold must
// pass, thresholds equal to Dot included. Rows are mixed-sign with
// magnitudes down to 1e-40 (float-subnormal), near-cancelling against the
// probe (the exact score is tiny next to the float rounding error), or
// tiny, with products in the float-subnormal range; probe coordinates
// span 1e-40 .. 1e30 with both signs. Padding and +inf-threshold rows
// must never pass, and passes come out ascending.
TEST(SimdDispatchTest, ReachedFilterIsConservativeOnEveryTier) {
  const double inf = std::numeric_limits<double>::infinity();
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    for (int d = 1; d <= 17; ++d) {
      for (int m : {1, 15, 16, 17, 2048}) {
        Rng rng(static_cast<uint64_t>(31 * d + m));
        const size_t lanes = static_cast<size_t>(
            (m + kFilterLanes - 1) / kFilterLanes * kFilterLanes);
        for (int probe = 0; probe < 4; ++probe) {
          Point p(static_cast<size_t>(d));
          for (int k = 0; k < d; ++k) {
            p[static_cast<size_t>(k)] =
                probe == 0   ? SignedLogUniform(&rng, -40.0, 28.0)
                : probe == 1 ? (k == 0 ? 1e30
                                      : SignedLogUniform(&rng, -40.0, 0.0))
                : probe == 2 ? SignedLogUniform(&rng, -22.5, -21.0)
                             : rng.Uniform();
          }
          size_t big = 0;  // the probe's largest coordinate
          for (size_t k = 1; k < p.size(); ++k) {
            if (std::fabs(p[k]) > std::fabs(p[big])) big = k;
          }
          std::vector<Point> utils;
          for (int i = 0; i < m; ++i) {
            Point u(static_cast<size_t>(d));
            // Probe 2 meets only tiny rows: every product is below
            // FLT_MIN, so the slack's underflow term is what keeps them.
            for (double& v : u) {
              v = probe == 2 || i % 4 == 2
                      ? SignedLogUniform(&rng, -22.5, -21.0)
                      : SignedLogUniform(&rng, -40.0, 0.0);
            }
            if (i % 4 == 1 && d > 1) {
              // Near-cancelling row: solve <u, p> ~ 0 on the largest
              // coordinate, then scale by a power of two (exact) into
              // [-1, 1].
              double rest = 0.0;
              for (size_t k = 0; k < u.size(); ++k) {
                if (k != big) rest += u[k] * p[k];
              }
              u[big] = -rest / p[big];
              double top = 0.0;
              for (double v : u) top = std::max(top, std::fabs(v));
              if (top > 1.0) {
                const double scale = std::exp2(-std::ceil(std::log2(top)));
                for (double& v : u) v *= scale;
              }
            }
            utils.push_back(u);
          }
          double a = 0x1p-126;
          for (const Point& u : utils) {
            for (double v : u) a = std::max(a, std::fabs(v));
          }
          std::vector<double> dots;
          std::vector<double> tau;
          for (int i = 0; i < m; ++i) {
            const double dot = Dot(utils[static_cast<size_t>(i)], p);
            dots.push_back(dot);
            switch (i % 5) {
              case 0: tau.push_back(dot); break;
              case 1: tau.push_back(std::nextafter(dot, -inf)); break;
              case 2: tau.push_back(dot - std::fabs(dot) * 1e-3); break;
              case 3: tau.push_back(inf); break;
              default:
                tau.push_back(dot + rng.Uniform(-1.0, 1.0) * std::fabs(dot));
                break;
            }
          }
          std::vector<float, SlabAllocator<float>> cols(
              (static_cast<size_t>(d) + 1) * lanes, 0.0f);
          for (int k = 0; k < d; ++k) {
            for (int i = 0; i < m; ++i) {
              cols[static_cast<size_t>(k) * lanes + static_cast<size_t>(i)] =
                  static_cast<float>(
                      utils[static_cast<size_t>(i)][static_cast<size_t>(k)]);
            }
          }
          float* tau_row = cols.data() + static_cast<size_t>(d) * lanes;
          for (size_t i = 0; i < lanes; ++i) {
            tau_row[i] = i < tau.size()
                             ? FloatAtMost(tau[i])
                             : std::numeric_limits<float>::infinity();
          }
          float q[kFilterMaxDim];
          float slack = 0.0f;
          ASSERT_TRUE(PrepareReachedFilter(p.data(), d, a, q, &slack));
          std::vector<int> passed(lanes);
          const size_t n = FilterReached(cols.data(), lanes, d, lanes, q,
                                         slack, tau_row, passed.data());
          passed.resize(n);
          const std::string where = std::string(SimdTierName(tier)) +
                                    " d=" + std::to_string(d) +
                                    " m=" + std::to_string(m) +
                                    " probe=" + std::to_string(probe);
          ASSERT_TRUE(std::is_sorted(passed.begin(), passed.end())) << where;
          for (int i : passed) {
            ASSERT_LT(i, m) << where << " padding row passed";
            EXPECT_NE(i % 5, 3) << where << " +inf threshold passed, row " << i;
          }
          for (int i = 0; i < m; ++i) {
            if (dots[static_cast<size_t>(i)] >= tau[static_cast<size_t>(i)]) {
              EXPECT_TRUE(std::binary_search(passed.begin(), passed.end(), i))
                  << where << " row " << i << " dot "
                  << dots[static_cast<size_t>(i)] << " tau "
                  << tau[static_cast<size_t>(i)];
            }
          }
        }
      }
    }
  }
}

// FloatAtMost is the largest float <= x, with the edges the prefilter's
// thresholds rely on.
TEST(SimdDispatchTest, FloatAtMostRoundsDown) {
  const double inf = std::numeric_limits<double>::infinity();
  const float finf = std::numeric_limits<float>::infinity();
  const float fmax = std::numeric_limits<float>::max();
  EXPECT_EQ(FloatAtMost(inf), finf);
  EXPECT_EQ(FloatAtMost(1e39), fmax);
  EXPECT_EQ(FloatAtMost(-1e39), -finf);
  EXPECT_EQ(FloatAtMost(-inf), -finf);
  EXPECT_EQ(FloatAtMost(static_cast<double>(fmax)), fmax);
  EXPECT_TRUE(
      std::isnan(FloatAtMost(std::numeric_limits<double>::quiet_NaN())));
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = SignedLogUniform(&rng, -46.0, 38.0);
    const float f = FloatAtMost(x);
    EXPECT_LE(static_cast<double>(f), x);
    EXPECT_GT(static_cast<double>(std::nextafter(f, finf)), x);
  }
}

// KdTree::ScoreIds (the gather path TopKMaintainer's eviction loop uses)
// against per-id scalar dots, per tier.
TEST(SimdDispatchTest, KdTreeScoreIdsMatchesScalarOnEveryTier) {
  Rng rng(55);
  const int d = 7;
  KdTree tree(d);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 200; ++i) {
    Point p(static_cast<size_t>(d));
    for (double& v : p) v = rng.Uniform();
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  for (int i = 0; i < 200; i += 3) {
    ASSERT_TRUE(tree.Delete(i).ok());
    live.erase(i);
  }
  std::vector<int> ids;
  for (const auto& [id, p] : live) ids.push_back(id);
  Point u = SampleUnitVectorNonneg(d, &rng);
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    std::vector<double> scores(ids.size());
    tree.ScoreIds(u.data(), ids, scores.data());
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(scores[j], Dot(u, live.at(ids[j])))
          << SimdTierName(tier) << " id " << ids[j];
    }
  }
}

// GetPointRef stays valid until the next mutation and reflects the stored
// coordinates exactly.
TEST(KdTreePointRefTest, RefMatchesStoredPointAcrossRebuild) {
  KdTree tree(3);
  ASSERT_TRUE(tree.Insert(5, {0.1, 0.2, 0.3}).ok());
  ASSERT_TRUE(tree.Insert(9, {0.9, 0.8, 0.7}).ok());
  auto ref = tree.GetPointRef(5);
  EXPECT_EQ(ref.dim(), 3);
  EXPECT_EQ(ref[0], 0.1);
  EXPECT_EQ(ref[2], 0.3);
  tree.Rebuild();
  // Re-acquired after the rebuild: fine.
  auto ref2 = tree.GetPointRef(9);
  EXPECT_EQ(ref2[1], 0.8);
  EXPECT_EQ(tree.GetPoint(5), (Point{0.1, 0.2, 0.3}));
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)

// Debug lane: a bad ScoreSubset index must die on the DCHECK instead of
// silently reading outside the slab.
TEST(ScoreKernelDeathTest, ScoreSubsetOutOfRangeIndexDies) {
  ScoreMatrix mat(std::vector<Point>{{1.0, 2.0}, {3.0, 4.0}});
  Point q{1.0, 1.0};
  double out[1];
  EXPECT_DEATH(mat.ScoreSubset(q, {2}, out), "ScoreSubset index");
  EXPECT_DEATH(mat.ScoreSubset(q, {-1}, out), "ScoreSubset index");
}

// Debug lane: dimensionless rows are a construction error, not a silent
// zero-stride matrix.
TEST(ScoreKernelDeathTest, ZeroDimRowsDieAtConstruction) {
  EXPECT_DEATH(ScoreMatrix{std::vector<Point>{Point{}}},
               "at least one coordinate");
  EXPECT_DEATH(ScoreMatrix{0}, "dim > 0");
}

// Debug lane: holding a PointRef across a mutation is a use-after-
// invalidate; the generation check must catch the access.
TEST(KdTreePointRefDeathTest, StaleRefAccessDies) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(1, {0.5, 0.5}).ok());
  auto ref = tree.GetPointRef(1);
  EXPECT_EQ(ref[0], 0.5);  // fresh: fine
  ASSERT_TRUE(tree.Insert(2, {0.25, 0.75}).ok());
  EXPECT_DEATH((void)ref.data(), "stale");
  auto ref2 = tree.GetPointRef(1);
  ASSERT_TRUE(tree.Delete(2).ok());
  EXPECT_DEATH((void)ref2[0], "stale");
}

#endif  // GTEST_HAS_DEATH_TEST && !defined(NDEBUG)

}  // namespace
}  // namespace fdrms
