#ifndef FDRMS_TOPK_TOPK_MAINTAINER_H_
#define FDRMS_TOPK_TOPK_MAINTAINER_H_

/// \file topk_maintainer.h
/// Maintains the ε-approximate top-k result Φ_{k,ε}(u_i, P_t) of every
/// sampled utility vector u_i under tuple insertions and deletions
/// (Line 2 of Algorithm 2 and Line 3 of Algorithm 3), using the two
/// indexes of the paper's dual-tree (Section III-C): a dynamic kd-tree over
/// tuples, and over utilities a flat score-and-compare scan in place of the
/// paper's cone tree (index/conetree.h). An insert takes both the reached
/// utilities and their scores from that one scan, unless the cover's
/// solution C (FD-RMS's result Q_t) shows that it would find none; see
/// "Skipping the scan" below.
///
/// Φ_{k,ε}(u, P) = { p in P : <u, p> >= (1 - ε) * ω_k(u, P) }. When P has
/// fewer than k tuples we define ω_k = 0 so Φ contains all of P.
///
/// Invariant the delete repair relies on: with τ = (1 - ε) * ω_k, every
/// member of Φ scores >= τ and every live non-member scores strictly below
/// τ, so Φ ⊇ the exact top-k.
///
/// Φ lives in a DynamicSetCover (elements = utilities, sets = tuple ids):
/// the set system Σ of Section III is Φ itself, so FD-RMS runs its cover
/// over this one incidence, and the maintainer writes every Φ change as a
/// σ call, in this order:
///  - Insert of p, in two passes. Pass 1: each reached utility u updates
///    its exact top-k and, if p clears u's new τ, gains p
///    (AddNewMembership: p is in no Φ yet). Pass 2: each u whose τ rose
///    scores Φ(u) in one gather and evicts the members below τ, σ by σ in
///    ascending id order, each by its link position (RemoveMembershipAt).
///  - Delete of p repairs all of S(p) as one group. S(p) is read back in
///    ascending utility order from a bit mark. Each utility whose exact
///    top-k held p is re-ranked: with at least k surviving members the k
///    best survivors are the new exact top-k by the invariant; only when
///    fewer survive is the kd-tree searched. One KdTree::ScoreRanges walk
///    answers the range queries of all re-ranked utilities at their
///    lowered τ; a utility's entrants are its hits scoring below its old τ,
///    which by the invariant are exactly the hits outside Φ, so they are
///    appended unchecked. Last, RemoveSet(p) drops S(p).
/// A standalone maintainer's cover has an empty universe and stays inert;
/// FD-RMS sets the universe through mutable_cover().
///
/// Skipping the scan. If a tuple p lies strictly below (1 - ε) g in every
/// coordinate for k distinct live tuples g, it scores below (1 - ε) ω_k(u)
/// for every nonnegative utility u and reaches none. Insert tests that
/// against C's members before the scan: it keeps a row-major copy of
/// their points, each coordinate stored as s_j = fl(c g_j) with
/// c = fl(fl(1 - ε)(1 - 2^-40)), rebuilt when cover_version() moves. The
/// scan is skipped, and p only indexed in the kd-tree, when every p_j is
/// >= 0 and at least k rows have p_j < s_j in every coordinate. Φ, the
/// top-k lists and the thresholds are then left alone, which is what the
/// scan would have done, so results are bit-identical. While C is empty
/// (a standalone maintainer, or FD-RMS's Initialize) every insert scans.
///
/// Why a skipped p reaches no utility, in the style of the prefilter slack
/// in geometry/score_kernel.h. The test runs only when d <= kFilterMaxDim
/// and every utility coordinate is finite and >= 0 with each utility's
/// largest coordinate A(u) in [2^-64, 2^64]; a row is cached only for a
/// member whose coordinates all lie in [2^-256, 2^256]. Let δ = 2^-53,
/// e = fl(1 - ε) (>= 2^-53 as ε < 1), S(u, x) = Σ u_j x_j exactly and
/// D(u, x) = Dot(u, x), the sequential unfused double sum that every score
/// in this class equals. Fix u and a dominating row g.
///  * Rounding to nearest is monotone and all terms are >= 0, so
///    0 <= p_j < s_j gives D(u, p) <= D(u, s). This needs nothing of p
///    beyond the test: subnormal p_j are covered; NaN, inf, negative and
///    tied (p_j = s_j) coordinates fail it and fall back to the scan.
///  * With nonnegative terms, D errs from S by a relative <= dδ/(1 - dδ)
///    plus at most d * 2^-1075 from products that land subnormal (a sum of
///    nonnegative values that lands subnormal is exact). Both scores are
///    far from overflow: S <= 2^8 * 2^64 * 2^256.
///  * s_j <= c g_j (1 + δ) and c <= e (1 - 2^-40)(1 + δ), all normal, so
///    S(u, s) <= e (1 - 2^-40)(1 + δ)^2 S(u, g); ThresholdFor's product
///    fl(e ω) adds one more δ.
/// Up to the absolute subnormal terms, D(u, p) <= D(u, s) <=
/// e (1 - 2^-40)(1 + δ)^(d+2) S(u, g) and fl(e D(u, g)) >=
/// e (1 - δ)^(d+1) S(u, g). The ratio (1 + δ)^(d+2) / (1 - δ)^(d+1) is
/// below 1 + (2d + 3)δ(1 + 2^-40) <= 1 + 2^-43 for d <= 256, so the gap
/// is at least e 2^-41 S(u, g) >= 2^-53 * 2^-41 * A(u) min_j g_j >=
/// 2^-414, which dwarfs the 2d * 2^-1075 of subnormal products: D(u, p) <
/// fl(e D(u, g)). Taking g the dominating row with the lowest score, the k
/// rows are k distinct live tuples scoring >= D(u, g), so ω_k(u) >=
/// D(u, g) and, by monotonicity again, D(u, p) < fl(e ω_k(u)) =
/// ThresholdFor(u). Debug builds re-check that for every u on each skip.
///
/// Every mutation also reports the exact membership changes as TopKDelta
/// records, whose order depends only on the Φ sets' contents. An insert
/// reports its additions, then per utility its evictions in ascending id
/// order; a delete reports, for each u in S(p) ascending, the removal of p
/// and then u's entrants best first.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "index/conetree.h"
#include "index/kdtree.h"
#include "setcover/dynamic_set_cover.h"

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
  /// Inserts that skipped the utility scan because k members of C
  /// dominated the tuple (see the file comment); a running count.
  uint64_t insert_scan_skips() const { return insert_scan_skips_; }

  /// Current Φ_{k,ε}(u_i, P_t): its tuple ids, in unspecified order. The
  /// range is a view, valid until the next Insert or Delete.
  SetSystem::KeyRange ApproxTopK(int utility) const {
    return cover_.system().SetsContaining(utility);
  }

  /// Current exact top-k list (best first) of utility i.
  const std::vector<ScoredId>& ExactTopK(int utility) const {
    return topk_[utility];
  }

  /// k-th best score of utility i (0 when fewer than k tuples are live).
  double OmegaK(int utility) const;

  /// Utilities whose Φ set currently contains tuple `id` — this is the set
  /// S(p) of the paper's set system — in unspecified order; a view, like
  /// ApproxTopK.
  SetSystem::KeyRange MemberOf(int id) const {
    return cover_.system().ElementsOf(id);
  }

  /// The set cover over Φ. Its memberships are the maintainer's; a caller
  /// of mutable_cover() changes only the universe and the solution
  /// (InitializeGreedy, AddToUniverse, RemoveFromUniverse).
  const DynamicSetCover& cover() const { return cover_; }
  DynamicSetCover& mutable_cover() { return cover_; }

  /// Checks the kd-tree's structure (KdTree::CheckInvariants), then
  /// recomputes every Φ set and exact top-k list (ids and scores) from
  /// scratch and verifies they match the maintained state; used by
  /// tests/failure injection. Returns the first inconsistency found, or OK.
  Status ValidateAgainstBruteForce() const;

 private:
  double ThresholdFor(int utility) const;
  /// True when at least k cached rows dominate `p` (see the file comment),
  /// so `p` reaches no utility; refreshes the rows first if C moved.
  bool CoverDominates(const Point& p);
  /// Adds `id` to Φ(utility), which must not hold it, and reports it.
  void EmitAdd(int utility, int id, std::vector<TopKDelta>* deltas);
  /// Evicts from Φ(u) every member other than `id` scoring below `tau`,
  /// σ by σ in ascending id order, and reports them.
  void EvictBelow(int u, double tau, int id, std::vector<TopKDelta>* deltas);

  int dim_;
  int k_;
  double eps_;
  std::vector<Point> utilities_;
  /// Scratch for the per-insert index scan: the reached utilities and
  /// their scores (capacity reused, so an insert allocates nothing here).
  std::vector<int> reached_scratch_;
  std::vector<double> reached_score_scratch_;
  /// The reached utilities whose τ rose in an insert.
  std::vector<int> raised_;
  /// Scratch for the eviction sweep and the delete repair: current members
  /// of one Φ set and their batch-gathered scores; for the sweep, the
  /// (id, link position) of each pending eviction and position -> pending
  /// eviction index.
  std::vector<int> member_scratch_;
  std::vector<double> member_score_scratch_;
  std::vector<std::pair<int, int>> evicted_scratch_;
  std::vector<int> pending_at_;
  /// Scratch for the delete repair: the utilities holding the deleted
  /// tuple (ascending), the ranked survivors of one utility, and per
  /// re-ranked utility its old and new τ and its range-query hits.
  std::vector<int> affected_scratch_;
  std::vector<ScoredId> ranked_scratch_;
  std::vector<int> rebuilt_;
  std::vector<double> rebuilt_old_tau_;
  std::vector<double> rebuilt_tau_;
  std::vector<std::vector<ScoredId>> ranges_scratch_;
  KdTree tree_;
  ConeTree cone_;
  std::vector<std::vector<ScoredId>> topk_;  // per utility
  /// One bit per utility, all clear between deletes: orders S(p).
  std::vector<uint64_t> affected_mark_;
  DynamicSetCover cover_;  // utility u ∈ S(p) ⟺ p ∈ Φ(u)
  /// Whether the utilities admit the dominance test (file comment).
  bool dominance_ok_ = false;
  /// The rows of the dominance test, dim_ doubles each, and the
  /// cover_version() they were built at.
  std::vector<double> dominators_;
  uint64_t dominators_version_ = 0;
  uint64_t insert_scan_skips_ = 0;
};

}  // namespace fdrms

#endif  // FDRMS_TOPK_TOPK_MAINTAINER_H_
