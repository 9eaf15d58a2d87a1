#ifndef FDRMS_INDEX_KDTREE_H_
#define FDRMS_INDEX_KDTREE_H_

/// \file kdtree.h
/// Dynamic kd-tree over database tuples — the tuple index "TI" of the
/// paper's dual-tree (Section III-C).
///
/// The paper maps top-k linear-scoring queries to kNN queries in R^{d+1};
/// because every utility vector lies in the nonnegative orthant, an
/// axis-aligned bounding box gives the exact branch-and-bound bound
/// max_{p in box} <u, p> = <u, box.max>, so this tree runs the same
/// best-first search directly in the original space and needs no lifting.
///
/// Dynamism: every insert is indexed at once. It descends by the split
/// (dimension, value) stored in each internal node, widens the box-max rows
/// on that path and appends its row to the leaf it reaches. A full leaf is
/// first split at the median of its widest dimension (by position when
/// every row ties there); routing is only a heuristic, correctness rests on
/// every box-max row covering its subtree's rows. A delete swap-removes its
/// row within its leaf and re-tightens the box-max rows it bounded, so
/// every box-max row is the exact coordinate-wise max of its subtree.
///
/// Balance: each node counts the leaves below it. After a split, the
/// highest node on the insert path whose heavier child holds more than
/// 0.7 of its leaves plus one is rebuilt (scapegoat-style), and its
/// ancestors are checked again. A rebuild works on the subtree's leaves,
/// not its rows: it drops empty leaves, merges neighbouring leaves that
/// together hold at most leaf_size rows, and builds a leaf-count-balanced
/// subtree over the rest by median splits of their box-max corners. Rows
/// stay in their blocks, so even a sorted insert stream, which keeps
/// unbalancing the same path, pays amortized O(log n) leaf moves per
/// insert rather than row moves. Every node thus stays weight-balanced and
/// the depth is at most 2 * ceil(log2 leaves). Rebuild() is the same
/// routine at the root; a delete also calls it when the live rows fall
/// below a quarter of leaves * leaf_size, which reclaims leaves after mass
/// deletion.
///
/// Range queries: one walk serves many utilities. ScoreRanges answers the
/// score-band queries of a group of utilities (the utilities one delete
/// re-ranks, see topk/topk_maintainer.h) together. The walk carries the
/// utilities still active down the tree: at each node one gather call
/// scores their rows against the node's box-max row, and a utility whose
/// bound falls below its threshold leaves the walk for that subtree; once
/// one utility is left it descends alone. Leaves are scanned per active
/// utility. Each node on the walk is thus read once for the group instead
/// of once per utility. ScoreRange is the one-utility call of the same
/// walk.
///
/// Hot-path layout: each leaf owns one fixed block of 2 * leaf_size rows in
/// a ScoreMatrix slab (blocks are recycled through a free list), and its
/// live rows are the contiguous prefix of that block. Leaves are scanned
/// with the blocked kernel over consecutive rows, and the best-first
/// frontier scores both children's box-max rows with one gather call. All
/// kernel paths are bit-identical to scalar Dot (see
/// geometry/score_kernel.h) and results are ordered by BetterScore, so
/// queries do not depend on the tree's shape.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_id_map.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/score_kernel.h"

namespace fdrms {

/// (score, tuple id) pair returned by queries; sorted by descending score,
/// ties broken by ascending id (the paper's "any consistent rule").
struct ScoredId {
  double score;
  int id;
  bool operator==(const ScoredId& o) const = default;
};

/// Orders results the way top-k lists are reported.
inline bool BetterScore(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Dynamic kd-tree with exact top-k and score-range queries under
/// nonnegative linear utilities.
class KdTree {
 public:
  /// \param dim attribute count d
  /// \param leaf_size a leaf splits into two halves of leaf_size rows when
  ///   it holds 2 * leaf_size rows
  explicit KdTree(int dim, int leaf_size = 16);

  /// Adds tuple `id`. Fails with AlreadyExists if `id` is live.
  Status Insert(int id, const Point& p);

  /// Removes tuple `id`. Fails with NotFound if `id` is not live.
  Status Delete(int id);

  /// Number of live tuples.
  int size() const { return live_count_; }
  int dim() const { return dim_; }
  bool Contains(int id) const { return row_of_.Find(id) >= 0; }

  /// Copy of a live tuple's attributes.
  Point GetPoint(int id) const;

  /// Borrowed, allocation-free view of a live tuple's attributes — the
  /// hot-path variant of GetPoint. Invalidated by the next Insert/Delete/
  /// Rebuild (the slab may reallocate, a split or rebuild moves rows, and a
  /// delete moves its leaf's last row into the freed one), so callers
  /// must not hold one across mutations; debug builds stamp each ref with
  /// the tree's generation and DCHECK-fail on any stale access instead of
  /// reading through a dangling row pointer.
  class PointRef {
   public:
    const double* data() const {
      CheckFresh();
      return tree_->points_.row(row_);
    }
    double operator[](int k) const { return data()[k]; }
    int dim() const { return tree_->dim_; }

   private:
    friend class KdTree;
    PointRef(const KdTree* tree, int row, uint64_t gen)
        : tree_(tree), row_(row), gen_(gen) {}
    void CheckFresh() const {
#ifndef NDEBUG
      FDRMS_CHECK(gen_ == tree_->generation_)
          << "stale KdTree::PointRef: the tree mutated since this ref was "
             "acquired; re-acquire after Insert/Delete/Rebuild";
#endif
      (void)gen_;
    }

    const KdTree* tree_;
    int row_;
    uint64_t gen_;
  };

  PointRef GetPointRef(int id) const;

  /// Exact top-k under utility `u` (fewer if size() < k), best first.
  std::vector<ScoredId> TopK(const Point& u, int k) const;

  /// All live tuples with <u, p> >= threshold, best first: the
  /// one-utility call of ScoreRanges.
  std::vector<ScoredId> ScoreRange(const Point& u, double threshold) const;
  /// ScoreRange into a caller-owned vector (cleared first), so a caller
  /// that queries repeatedly reuses one allocation.
  void ScoreRange(const Point& u, double threshold,
                  std::vector<ScoredId>* out) const;

  /// Score-band queries of a group of utilities, answered by one walk.
  /// Utility g < count is row rows[g] of the slab at `base` (rows `stride`
  /// doubles apart, dim() nonnegative coordinates each); (*out)[g] gets
  /// every live tuple with thresholds[g] <= <u_g, p> < ceilings[g], best
  /// first. With an infinite ceiling that is exactly ScoreRange's answer.
  /// `out` is resized to `count` and its vectors keep their capacity.
  void ScoreRanges(const double* base, size_t stride, const int* rows,
                   const double* thresholds, const double* ceilings,
                   size_t count,
                   std::vector<std::vector<ScoredId>>* out) const;

  /// Batch scores: out[j] = <u, point(ids[j])> via the dispatched gather
  /// kernel over the point slab (bit-identical to per-id Dot). Every id
  /// must be live. `u` points at dim() contiguous doubles.
  void ScoreIds(const double* u, const std::vector<int>& ids,
                double* out) const;

  /// Applies `fn(id, point)` to every live tuple (no particular order).
  /// The Point reference is a scratch reused across iterations — copy it
  /// if it must outlive the callback.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Point scratch(static_cast<size_t>(dim_));
    for (int block = 0; block < static_cast<int>(block_leaf_.size());
         ++block) {
      const int leaf = block_leaf_[static_cast<size_t>(block)];
      if (leaf < 0) continue;  // free block
      const int first = block * block_rows();
      for (int row = first; row < first + nodes_[leaf].count; ++row) {
        const double* r = points_.row(row);
        for (int k = 0; k < dim_; ++k) scratch[static_cast<size_t>(k)] = r[k];
        fn(row_id_[static_cast<size_t>(row)],
           static_cast<const Point&>(scratch));
      }
    }
  }

  /// Rebuilds the whole tree over its leaves (see the file comment; also
  /// exposed for benchmarks).
  void Rebuild();

  /// Verifies the structure: every box-max row is the exact coordinate-wise
  /// max of its subtree's rows (so it contains them), leaf blocks are
  /// disjoint and within capacity, row_of_ and the leaf rows map one to
  /// one, the live count matches, and every node is weight-balanced with
  /// depth within the bound in the file comment. Returns the first
  /// violation found, or OK. O(size() * dim()).
  Status CheckInvariants() const;

 private:
  struct Node {
    int left = -1;  // -1 for a leaf
    int right = -1;
    int parent = -1;
    // Internal nodes route inserts: p[split_dim] < split_value goes left.
    int split_dim = 0;
    double split_value = 0.0;
    // Leaf payload: the first `count` rows of slab block `block`.
    int block = -1;
    int count = 0;
    int leaves = 1;  // leaves in this subtree (the balance weight)
    bool is_leaf() const { return left < 0; }
  };

  /// Rows scored per kernel call by ScanRows and ScoreIds; their scratch
  /// lives on the stack.
  static constexpr size_t kScanChunk = 64;

  /// Slab rows per leaf block.
  int block_rows() const { return 2 * leaf_size_; }
  int NewNode(int parent);
  void FreeNode(int node);
  int NewBlock(int leaf);
  /// Splits the full leaf `leaf` in place into an internal node with two
  /// leaf children; returns the highest ancestor the split unbalanced, or
  /// -1.
  int SplitLeaf(int leaf);
  /// Rebuilds `scapegoat`, then the highest unbalanced ancestor, while
  /// there is one.
  void Rebalance(int scapegoat);
  bool Unbalanced(int node) const;
  /// Rebuilds the subtree at `node` over its own leaves, dropping empty
  /// ones, and links the new subtree in its place.
  void RebuildSubtree(int node);
  /// Appends the nonempty leaves under `node` to `leaves` and frees the
  /// rest of the subtree's nodes.
  void CollectLeaves(int node, std::vector<int>* leaves);
  /// Reorders leaves[lo, hi) around its median on the dimension where the
  /// leaves' box-max corners spread widest; returns the median position
  /// and sets the split, whose value is the left half's right edge.
  int PartitionLeaves(std::vector<int>* leaves, int lo, int hi,
                      int* split_dim, double* split_value) const;
  /// Splits leaves[lo, hi) like BuildOverLeaves, but merges every range
  /// holding at most leaf_size rows into its first leaf; appends the
  /// surviving leaves to `out`.
  void MergeSparseLeaves(std::vector<int>* leaves, int lo, int hi,
                         std::vector<int>* out);
  /// Builds a leaf-count-balanced subtree over leaves[lo, hi) by
  /// PartitionLeaves and returns its root.
  int BuildOverLeaves(std::vector<int>* leaves, int lo, int hi, int parent);
  /// Copies slab row `from` (coordinates and id) to row `to` and points
  /// row_of_ at it.
  void MoveRow(int from, int to);
  /// Sets box-max row `node` to the max of rows [first, first + count)
  /// (the lowest double when count == 0, so the bound never admits it).
  void SetLeafBox(int node);
  /// Re-tightens the box-max rows from `leaf` up after a delete of
  /// `removed` from it.
  void TightenBoxes(int leaf, const double* removed);
  /// <u, box_max(node)> — exact bound since u >= 0.
  double NodeUpperBound(int node_id, const Point& u) const;
  /// The walks behind ScoreRange and ScoreRanges call `emit(g, score, id)`
  /// for every live row with <u_g, p> >= thresholds[g], in no particular
  /// order. WalkGroup visits `node` for the group utilities
  /// active[0, count), whose bound reached their threshold at every
  /// ancestor; the ones that also reach it at `node` go to `kept` (below
  /// group.kept_limit) as the children's list. A list narrowed to one
  /// utility continues as WalkOne, which carries that utility alone.
  struct RangeGroup {
    const double* base;
    size_t stride;
    const int* rows;
    const double* thresholds;
    const int* kept_limit;
  };
  template <typename Emit>
  void WalkGroup(int node, const RangeGroup& group, const int* active,
                 size_t count, int* kept, Emit& emit) const;
  template <typename Emit>
  void WalkOne(int node, const double* u, double threshold, int g,
               Emit& emit) const;
  /// WalkGroup's filter: one gather call per kScanChunk utilities scores
  /// their rows against the box-max row of `node`. Returns the kept count.
  size_t KeepReaching(int node, const RangeGroup& group, const int* active,
                      size_t count, int* kept) const;

  /// Calls `fn(score, id)` for every row of leaf `leaf`, scoring its
  /// contiguous block prefix with the blocked kernel.
  template <typename Fn>
  void ScanLeaf(int leaf, const double* u, Fn&& fn) const;

  int dim_;
  int leaf_size_;
  ScoreMatrix points_;              // leaf blocks of block_rows() rows
  std::vector<int> row_id_;         // slab row -> tuple id
  std::vector<int> block_leaf_;     // slab block -> leaf node, -1 if free
  std::vector<int> free_blocks_;
  /// Tuple id -> slab row. A leaf split rewrites half a leaf's entries, so
  /// one probe costing one cache line instead of a bucket and a node is
  /// most of a split's cost.
  FlatIdMap row_of_;
  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;
  ScoreMatrix boxmax_;  // node-indexed box-max rows (node n = row n)
  int root_ = -1;
  int live_count_ = 0;
  uint64_t generation_ = 0;     // bumped by every mutation (PointRef guard)
  // dim() doubles: Delete's copy of the removed row, and filler for fresh
  // slab and box-max rows.
  std::vector<double> row_scratch_;
  std::vector<int> split_order_;   // SplitLeaf's scratch
  std::vector<char> split_lower_;
};

}  // namespace fdrms

#endif  // FDRMS_INDEX_KDTREE_H_
