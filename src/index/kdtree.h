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
/// best-first search directly in the original space (see DESIGN.md).
///
/// Dynamism: inserts append to a linearly scanned buffer, deletes tombstone
/// their slot; the tree is rebuilt when either exceeds a fraction of the
/// indexed size (standard amortized-logarithmic strategy).
///
/// Hot-path layout: tuple coordinates live in a slot-indexed ScoreMatrix
/// slab rather than per-slot heap Points, and Rebuild() permutes slots into
/// build order so every leaf owns a contiguous row range [first, first +
/// count). Inserts append rows, so the buffer (rows inserted since the last
/// rebuild, not yet tree-ordered) is the contiguous tail [indexed_count_,
/// slots_.size()). Leaves and the buffer are both scanned with the blocked
/// kernel over consecutive rows, in fixed stack-sized chunks, and the
/// best-first frontier scores both children's box-max rows with one gather
/// call. All kernel paths are bit-identical to scalar Dot (see
/// geometry/score_kernel.h), so queries return exactly what the
/// heap-scattered layout returned.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
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
  /// \param leaf_size max points per leaf before splitting
  explicit KdTree(int dim, int leaf_size = 16);

  /// Adds tuple `id`. Fails with AlreadyExists if `id` is live.
  Status Insert(int id, const Point& p);

  /// Removes tuple `id`. Fails with NotFound if `id` is not live.
  Status Delete(int id);

  /// Number of live tuples.
  int size() const { return live_count_; }
  int dim() const { return dim_; }
  bool Contains(int id) const { return slot_of_.count(id) > 0; }

  /// Copy of a live tuple's attributes.
  Point GetPoint(int id) const;

  /// Borrowed, allocation-free view of a live tuple's attributes — the
  /// hot-path variant of GetPoint. Invalidated by the next Insert/Delete/
  /// Rebuild (the point slab may reallocate or be permuted), so callers
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

  /// All live tuples with <u, p> >= threshold, best first.
  std::vector<ScoredId> ScoreRange(const Point& u, double threshold) const;
  /// ScoreRange into a caller-owned vector (cleared first), so a caller
  /// that queries repeatedly reuses one allocation.
  void ScoreRange(const Point& u, double threshold,
                  std::vector<ScoredId>* out) const;

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
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (!slots_[s].alive) continue;
      const double* r = points_.row(static_cast<int>(s));
      for (int k = 0; k < dim_; ++k) scratch[static_cast<size_t>(k)] = r[k];
      fn(slots_[s].id, static_cast<const Point&>(scratch));
    }
  }

  /// Forces a rebuild now (also exposed for benchmarks).
  void Rebuild();

 private:
  struct Slot {
    int id;
    bool alive;
  };
  struct Node {
    int left = -1;
    int right = -1;
    // Leaf payload: the contiguous slot/row range [first, first + count).
    // Internal nodes keep count == 0.
    int first = 0;
    int count = 0;
    bool is_leaf() const { return left < 0; }
  };

  /// Rows scored per kernel call by ScanRows and ScoreIds; their scratch
  /// lives on the stack.
  static constexpr size_t kScanChunk = 64;

  int BuildNode(std::vector<int>* order, int lo, int hi);
  void MaybeRebuild();
  /// <u, box_max(node)> — exact bound since u >= 0.
  double NodeUpperBound(int node_id, const Point& u) const;
  void CollectRange(int node_id, const Point& u, double threshold,
                    std::vector<ScoredId>* out) const;
  /// Rows in the insert buffer [indexed_count_, slots_.size()).
  int BufferCount() const {
    return static_cast<int>(slots_.size()) - indexed_count_;
  }

  /// Calls `fn(score, id)` for every live slot in the contiguous row range
  /// [first, first + count), scoring it with the blocked kernel.
  template <typename Fn>
  void ScanRows(int first, int count, const double* u, Fn&& fn) const;

  int dim_;
  int leaf_size_;
  std::vector<Slot> slots_;
  ScoreMatrix points_;  // slot-indexed coordinate rows (slot s = row s)
  std::unordered_map<int, int> slot_of_;  // id -> slot index
  std::vector<Node> nodes_;
  ScoreMatrix boxmax_;  // node-indexed box-max rows (node n = row n)
  int root_ = -1;
  int indexed_count_ = 0;       // slots [0, indexed_count_) are in the tree
  int dead_in_tree_ = 0;        // tombstoned slots still referenced by tree
  int live_count_ = 0;
  uint64_t generation_ = 0;     // bumped by every mutation (PointRef guard)
};

}  // namespace fdrms

#endif  // FDRMS_INDEX_KDTREE_H_
