#ifndef FDRMS_INDEX_CONETREE_H_
#define FDRMS_INDEX_CONETREE_H_

/// \file conetree.h
/// The utility index "UI" of the paper's dual-tree (Section III-C): it
/// answers the reverse question the top-k maintainer asks on every tuple
/// insertion, "which utility vectors u have <u, p> >= tau(u)?", where
/// tau(u) = (1 - eps) * omega_k(u) is that utility's current
/// approximate-top-k admission threshold.
///
/// The paper answers it with a cone tree (Ram & Gray, KDD 2012). This index
/// is a flat scan in two stages instead:
///  1. a conservative float prefilter: the utilities sit in a 64-byte-aligned
///     column-major float slab (coordinate j of every utility contiguous,
///     padded to kFilterLanes with zero coordinates) with one more row of
///     float thresholds, each the largest float <= tau (+inf on padding),
///     and one pass of the dispatched FilterReached kernel
///     (geometry/simd_dispatch.h) keeps every utility whose float score
///     plus a rounding-error slack sigma(p) reaches its float threshold;
///  2. the exact rescoring: the survivors' double scores come from the
///     dispatched ScoreGather over a row-major double slab, which is
///     bit-identical to `Dot`, and are compared against the double tau.
/// The slack (derived in geometry/score_kernel.h) makes stage 1 keep every
/// utility the exact comparison would reach, so the result is the brute
/// force one on every SIMD tier, with ascending indices and `Dot` scores.
/// When the probe is unsafe for float (a non-finite coordinate, or
/// A * |p|_1 above 2^100 with A the largest utility coordinate magnitude),
/// every utility goes through stage 2.
///
/// An insert reaches under one (d=6) to about four (d=4) of M = 2048
/// utilities under FD-RMS's thresholds. Most of those "no" answers are now
/// given before the scan: TopKMaintainer skips it for a tuple that k
/// members of the result ε-dominate (about three in four Indep inserts at
/// d=4 and d=6; see topk_maintainer.h). For the inserts left, nearly all
/// of the scan still only confirms a "no"; in float with 16 lanes it does
/// that at well under half the cost of a double scan
/// (bench_micro_substrates' BM_ConeTreeScanPaperThresholds). A cone tree pruned better than the
/// double scan at d=2, and at d=4 with M=8192; one code path is kept
/// regardless (the repository benchmark runs d=4 and d=6 at M=2048).
///
/// The class keeps the name ConeTree and its API because the per-layer
/// benchmark (perfbench/) links it by that name.
///
/// Utility vectors are fixed at construction (FD-RMS samples all M up
/// front); only the thresholds change over time. Copies deep-copy both
/// slabs and keep them aligned.

#include <vector>

#include "geometry/point.h"
#include "geometry/score_kernel.h"

namespace fdrms {

/// Utility index with mutable per-utility thresholds.
class ConeTree {
 public:
  /// Indexes `utilities` (all the same dimension). All thresholds start at
  /// 0, i.e. every utility matches every nonnegative point until raised.
  explicit ConeTree(const std::vector<Point>& utilities);

  int size() const { return static_cast<int>(tau_.size()); }

  void SetThreshold(int utility_index, double tau) {
    FDRMS_DCHECK(utility_index >= 0 && utility_index < size());
    tau_[static_cast<size_t>(utility_index)] = tau;
    cols_[static_cast<size_t>(dim_) * lanes_ +
          static_cast<size_t>(utility_index)] = FloatAtMost(tau);
  }

  double GetThreshold(int utility_index) const {
    return tau_[static_cast<size_t>(utility_index)];
  }

  /// The utilities as a row-major double slab, row i = utility i.
  const ScoreMatrix& utility_rows() const { return rows_; }

  /// Indices of all utilities with <u, p> >= tau(u), ascending. `p` need
  /// not be normalized.
  std::vector<int> FindReached(const Point& p) const;

  /// Same query into caller-owned vectors (cleared first, capacity reused):
  /// `indices` gets the reached utilities ascending and, when `scores` is
  /// not null, `scores` gets their <u, p>, bit-identical to `Dot`.
  void FindReached(const Point& p, std::vector<int>* indices,
                   std::vector<double>* scores) const;

  /// Brute-force reference of FindReached (for tests/benchmarks): one
  /// scalar dot per utility, no prefilter and no dispatched kernel — this
  /// is the oracle the two-stage path is checked against.
  std::vector<int> FindReachedBruteForce(const Point& p) const;

 private:
  int dim_ = 0;
  size_t lanes_ = 0;  ///< size() rounded up to a multiple of kFilterLanes
  /// A of the prefilter's slack: max(2^-126, largest |coordinate|).
  double max_abs_ = 0.0;
  ScoreMatrix rows_;          ///< row-major double utilities
  std::vector<double> tau_;   ///< exact thresholds
  /// Float slab, lanes_ per row: row j < dim_ holds coordinate j of every
  /// utility, row dim_ the thresholds rounded down (FloatAtMost).
  std::vector<float, SlabAllocator<float>> cols_;
};

}  // namespace fdrms

#endif  // FDRMS_INDEX_CONETREE_H_
