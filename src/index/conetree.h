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
/// is a flat scan instead: the utilities sit in a 64-byte-aligned
/// column-major slab (coordinate j of every utility contiguous, rows padded
/// to kScanLanes with zero coordinates), the thresholds in one more slab row
/// padded with +inf, and FindReached makes a single pass of the dispatched
/// fused score-and-compare kernel (geometry/simd_dispatch.h) over all M
/// utilities, emitting the reached utilities in ascending order with their
/// scores. At the sizes FD-RMS runs (M = 512..8192, d = 4..10) that pass
/// streams at most a few hundred KB from L2 with no branch per utility,
/// while the tree pays per-node bound evaluations, scattered leaf gathers
/// and a final sort and prunes poorly once d > 4: with k=1, eps=0.01
/// thresholds over 20k Indep tuples, bench_micro_substrates-style probes
/// on an AVX-512 Xeon took 1.3 us (scan) vs 3.8 us (tree) at d=6, M=2048.
/// The tree still wins at d=2 and at d=4 with M=8192, where its cones prune
/// well; one code path is kept regardless (the repository benchmark runs
/// d=4 and d=6 at M=2048).
/// Scores are bit-identical to geometry/point.h `Dot`, and SetThreshold is
/// one store.
///
/// The class keeps the name ConeTree and its API because the per-layer
/// benchmark (perfbench/) links it by that name.
///
/// Utility vectors are fixed at construction (FD-RMS samples all M up
/// front); only the thresholds change over time.

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

  int size() const { return static_cast<int>(utilities_.size()); }

  void SetThreshold(int utility_index, double tau) {
    FDRMS_DCHECK(utility_index >= 0 && utility_index < size());
    slab_.mutable_row(dim_)[utility_index] = tau;
  }

  double GetThreshold(int utility_index) const {
    return slab_.row(dim_)[utility_index];
  }

  /// Indices of all utilities with <u, p> >= tau(u), ascending. `p` need
  /// not be normalized.
  std::vector<int> FindReached(const Point& p) const;

  /// Same query into caller-owned vectors (cleared first, capacity reused):
  /// `indices` gets the reached utilities ascending and, when `scores` is
  /// not null, `scores` gets their <u, p>, bit-identical to `Dot`.
  void FindReached(const Point& p, std::vector<int>* indices,
                   std::vector<double>* scores) const;

  /// Brute-force reference of FindReached (for tests/benchmarks); scalar
  /// Dot on purpose — this is the oracle the kernel path is checked
  /// against.
  std::vector<int> FindReachedBruteForce(const Point& p) const;

 private:
  std::vector<Point> utilities_;  ///< row-major copy for the oracle
  int dim_ = 0;
  /// Row j < dim_ holds coordinate j of every utility, row dim_ the
  /// thresholds; each row is padded to a multiple of kScanLanes.
  ScoreMatrix slab_;
};

}  // namespace fdrms

#endif  // FDRMS_INDEX_CONETREE_H_
