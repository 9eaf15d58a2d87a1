#ifndef FDRMS_TOPK_TOPK_MAINTAINER_H_
#define FDRMS_TOPK_TOPK_MAINTAINER_H_

/// \file topk_maintainer.h
/// Maintains the ε-approximate top-k result Φ_{k,ε}(u_i, P_t) of every
/// sampled utility vector u_i under tuple insertions and deletions
/// (Line 2 of Algorithm 2 and Line 3 of Algorithm 3), using the two
/// indexes of the paper's dual-tree (Section III-C): a dynamic kd-tree over
/// tuples, and over utilities a flat score-and-compare scan in place of the
/// paper's cone tree (index/conetree.h). An insert takes both the reached
/// utilities and their scores from that one scan.
///
/// Φ_{k,ε}(u, P) = { p in P : <u, p> >= (1 - ε) * ω_k(u, P) }. When P has
/// fewer than k tuples we define ω_k = 0 so Φ contains all of P.
///
/// Invariant the delete repair relies on: with τ = (1 - ε) * ω_k, every
/// member of Φ scores >= τ and every live non-member scores strictly below
/// τ, so Φ ⊇ the exact top-k. When a delete removes a top-k tuple and at
/// least k members survive, the k best survivors are therefore the new
/// exact top-k; only when fewer survive does the repair search the kd-tree.
/// Either way a score-range query at the lowered τ then finds the entrants.
///
/// Every mutation reports the exact membership changes of the Φ sets as a
/// list of TopKDelta records; FD-RMS consumes them to update the set
/// system Σ and the dynamic set-cover solution.

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "index/conetree.h"
#include "index/kdtree.h"

namespace fdrms {

/// One membership change of an approximate top-k set.
struct TopKDelta {
  int utility;   ///< index of the affected utility vector
  int tuple_id;  ///< tuple entering/leaving Φ_{k,ε}(u, P)
  bool added;    ///< true = entered, false = left
  bool operator==(const TopKDelta& o) const = default;
};

/// Maintainer of all M approximate top-k sets.
class TopKMaintainer {
 public:
  /// \param dim attribute count d
  /// \param k the rank parameter of RMS(k, r)
  /// \param eps approximation factor of top-k results, in [0, 1)
  /// \param utilities the M sampled utility vectors (fixed for the run)
  TopKMaintainer(int dim, int k, double eps, std::vector<Point> utilities);

  /// Inserts tuple `id`; appends the resulting Φ membership changes to
  /// `deltas` (may be null when the caller does not track them).
  Status Insert(int id, const Point& p, std::vector<TopKDelta>* deltas);

  /// Deletes tuple `id`; appends Φ membership changes to `deltas`.
  Status Delete(int id, std::vector<TopKDelta>* deltas);

  int size() const { return tree_.size(); }
  int k() const { return k_; }
  double eps() const { return eps_; }
  int num_utilities() const { return static_cast<int>(utilities_.size()); }
  const std::vector<Point>& utilities() const { return utilities_; }
  const KdTree& tree() const { return tree_; }

  /// Current Φ_{k,ε}(u_i, P_t).
  const std::unordered_set<int>& ApproxTopK(int utility) const {
    return approx_[utility];
  }

  /// Current exact top-k list (best first) of utility i.
  const std::vector<ScoredId>& ExactTopK(int utility) const {
    return topk_[utility];
  }

  /// k-th best score of utility i (0 when fewer than k tuples are live).
  double OmegaK(int utility) const;

  /// Utilities whose Φ set currently contains tuple `id` — this is the set
  /// S(p) of the paper's set system.
  const std::unordered_set<int>& MemberOf(int id) const;

  /// Recomputes every Φ set and exact top-k list (ids and scores) from
  /// scratch and verifies they match the maintained state; used by
  /// tests/failure injection. Returns the first inconsistency found, or OK.
  Status ValidateAgainstBruteForce() const;

 private:
  double ThresholdFor(int utility) const;
  void RebuildUtility(int utility, std::vector<TopKDelta>* deltas);
  void EmitAdd(int utility, int id, std::vector<TopKDelta>* deltas);
  void EmitRemove(int utility, int id, std::vector<TopKDelta>* deltas);

  int dim_;
  int k_;
  double eps_;
  std::vector<Point> utilities_;
  /// Scratch for the per-insert index scan: the reached utilities and
  /// their scores (capacity reused, so an insert allocates nothing here).
  std::vector<int> reached_scratch_;
  std::vector<double> reached_score_scratch_;
  /// Scratch for the eviction sweep and the delete repair: current members
  /// of one Φ set and their batch-gathered scores.
  std::vector<int> member_scratch_;
  std::vector<double> member_score_scratch_;
  /// Scratch for the delete repair: the utilities holding the deleted
  /// tuple, and the ranked survivors / range-query results of one utility.
  std::vector<int> affected_scratch_;
  std::vector<ScoredId> ranked_scratch_;
  KdTree tree_;
  ConeTree cone_;
  std::vector<std::vector<ScoredId>> topk_;            // per utility
  std::vector<std::unordered_set<int>> approx_;        // per utility
  std::unordered_map<int, std::unordered_set<int>> member_of_;  // S(p)
};

}  // namespace fdrms

#endif  // FDRMS_TOPK_TOPK_MAINTAINER_H_
