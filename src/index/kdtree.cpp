#include "index/kdtree.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <queue>
#include <string>

#include "common/check.h"
#include "geometry/score_kernel.h"

namespace fdrms {

namespace {

/// Balance weight: a node is unbalanced when its heavier child holds more
/// than kBalanceAlpha of its leaves plus one. BuildOverLeaves splits leaf
/// counts evenly, so any alpha >= 1/2 admits its output; staying below
/// 1/sqrt(2) keeps the depth within 2 * ceil(log2 leaves).
constexpr double kBalanceAlpha = 0.7;

/// Whether a child holding `child` of its parent's `total` leaves makes
/// the parent unbalanced.
bool Outweighs(int child, int total) {
  return child > kBalanceAlpha * total + 1.0;
}

/// Deepest tree whose every node satisfies the balance rule, for `leaves`
/// leaves: the heavier child of an L-leaf node has at most
/// min(L - 1, floor(alpha * L + 1)) leaves.
int MaxBalancedDepth(int leaves) {
  int depth = 0;
  for (int l = leaves; l > 1;
       l = std::min(l - 1, static_cast<int>(kBalanceAlpha * l + 1.0))) {
    ++depth;
  }
  return depth;
}

}  // namespace

KdTree::KdTree(int dim, int leaf_size)
    : dim_(dim),
      leaf_size_(leaf_size),
      points_(dim),
      boxmax_(dim),
      row_scratch_(static_cast<size_t>(dim)) {
  FDRMS_CHECK(dim > 0);
  FDRMS_CHECK(leaf_size >= 2);
}

int KdTree::NewNode(int parent) {
  int node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[static_cast<size_t>(node)] = Node{};
  } else {
    node = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    // The caller sets the box-max row; any dim() doubles fill it meanwhile.
    FDRMS_CHECK(boxmax_.AppendRowUnchecked(row_scratch_.data()) == node);
  }
  nodes_[static_cast<size_t>(node)].parent = parent;
  return node;
}

void KdTree::FreeNode(int node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.block >= 0) {
    block_leaf_[static_cast<size_t>(n.block)] = -1;
    free_blocks_.push_back(n.block);
  }
  n = Node{};
  free_nodes_.push_back(node);
}

int KdTree::NewBlock(int leaf) {
  int block;
  if (!free_blocks_.empty()) {
    block = free_blocks_.back();
    free_blocks_.pop_back();
    block_leaf_[static_cast<size_t>(block)] = leaf;
  } else {
    block = static_cast<int>(block_leaf_.size());
    block_leaf_.push_back(leaf);
    // Rows past a leaf's count are never read, so any filler will do.
    for (int i = 0; i < block_rows(); ++i) {
      points_.AppendRowUnchecked(row_scratch_.data());  // may reallocate
    }
    row_id_.resize(row_id_.size() + static_cast<size_t>(block_rows()), -1);
  }
  nodes_[static_cast<size_t>(leaf)].block = block;
  return block;
}

Status KdTree::Insert(int id, const Point& p) {
  if (static_cast<int>(p.size()) != dim_) {
    return Status::Invalid("point dimension mismatch");
  }
  if (row_of_.Find(id) >= 0) {
    return Status::AlreadyExists("tuple id " + std::to_string(id) +
                                 " already indexed");
  }
  ++generation_;
  if (root_ < 0) {
    root_ = NewNode(-1);
    NewBlock(root_);
    SetLeafBox(root_);
  }
  // Descend by the stored splits, widening every box-max row on the way;
  // a full leaf splits first and the descent continues into its halves.
  int node = root_;
  int scapegoat = -1;
  for (;;) {
    double* box = boxmax_.mutable_row(node);
    for (int j = 0; j < dim_; ++j) box[j] = std::max(box[j], p[j]);
    const Node& n = nodes_[static_cast<size_t>(node)];
    if (n.is_leaf()) {
      if (n.count < block_rows()) break;
      scapegoat = SplitLeaf(node);
    }
    const Node& inner = nodes_[static_cast<size_t>(node)];
    node = p[static_cast<size_t>(inner.split_dim)] < inner.split_value
               ? inner.left
               : inner.right;
  }
  Node& leaf = nodes_[static_cast<size_t>(node)];
  const int row = leaf.block * block_rows() + leaf.count++;
  std::copy_n(p.data(), dim_, points_.mutable_row(row));
  row_id_[static_cast<size_t>(row)] = id;
  row_of_.Set(id, row);
  ++live_count_;
  if (scapegoat >= 0) Rebalance(scapegoat);
  return Status::OK();
}

Status KdTree::Delete(int id) {
  const int row = row_of_.Find(id);
  if (row < 0) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not indexed");
  }
  ++generation_;
  row_of_.Erase(id);
  const int leaf = block_leaf_[static_cast<size_t>(row / block_rows())];
  Node& n = nodes_[static_cast<size_t>(leaf)];
  const int last = n.block * block_rows() + --n.count;
  std::copy_n(points_.row(row), dim_, row_scratch_.begin());
  // Swap-remove: the leaf's last row fills the hole, so the leaf's rows
  // stay a contiguous prefix of its block.
  if (row != last) MoveRow(last, row);
  --live_count_;
  TightenBoxes(leaf, row_scratch_.data());
  // Reclaim leaves once mass deletion leaves them a quarter full on
  // average; the rebuild costs O(n log n) and needs Omega(n) deletes.
  const int leaves = nodes_[static_cast<size_t>(root_)].leaves;
  if (leaves > 1 && static_cast<int64_t>(live_count_) * 4 <
                        static_cast<int64_t>(leaves) * leaf_size_) {
    Rebuild();
  }
  return Status::OK();
}

void KdTree::MoveRow(int from, int to) {
  std::copy_n(points_.row(from), dim_, points_.mutable_row(to));
  const int id = row_id_[static_cast<size_t>(from)];
  row_id_[static_cast<size_t>(to)] = id;
  row_of_.Set(id, to);
}

void KdTree::SetLeafBox(int node) {
  const Node& n = nodes_[static_cast<size_t>(node)];
  double* box = boxmax_.mutable_row(node);
  std::fill(box, box + dim_, std::numeric_limits<double>::lowest());
  const int first = n.block * block_rows();
  for (int row = first; row < first + n.count; ++row) {
    const double* r = points_.row(row);
    for (int j = 0; j < dim_; ++j) box[j] = std::max(box[j], r[j]);
  }
}

void KdTree::TightenBoxes(int leaf, const double* removed) {
  // A box-max row changes only where the removed row attained it.
  auto attained = [&](int node) {
    const double* box = boxmax_.row(node);
    for (int j = 0; j < dim_; ++j) {
      if (removed[j] >= box[j]) return true;
    }
    return false;
  };
  if (!attained(leaf)) return;
  SetLeafBox(leaf);
  for (int node = nodes_[static_cast<size_t>(leaf)].parent; node >= 0;
       node = nodes_[static_cast<size_t>(node)].parent) {
    if (!attained(node)) return;
    const Node& n = nodes_[static_cast<size_t>(node)];
    const double* l = boxmax_.row(n.left);
    const double* r = boxmax_.row(n.right);
    double* box = boxmax_.mutable_row(node);
    for (int j = 0; j < dim_; ++j) box[j] = std::max(l[j], r[j]);
  }
}

int KdTree::SplitLeaf(int leaf) {
  const int cap = block_rows();
  const int first = nodes_[static_cast<size_t>(leaf)].block * cap;
  // Widest dimension of the leaf's rows.
  int split_dim = 0;
  double best_extent = -1.0;
  for (int j = 0; j < dim_; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (int row = first; row < first + cap; ++row) {
      lo = std::min(lo, points_.row(row)[j]);
      hi = std::max(hi, points_.row(row)[j]);
    }
    if (hi - lo > best_extent) {
      best_extent = hi - lo;
      split_dim = j;
    }
  }
  // Median partition of the block positions; when every row ties on
  // split_dim any partition is a median one, so the halves split by
  // position.
  const int mid = cap / 2;
  std::vector<int>& order = split_order_;
  order.resize(static_cast<size_t>(cap));
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + mid, order.end(),
                   [&](int a, int b) {
                     return points_.row(first + a)[split_dim] <
                            points_.row(first + b)[split_dim];
                   });
  const double split_value = points_.row(first + order[mid])[split_dim];

  const int left = NewNode(leaf);
  const int right = NewNode(leaf);
  {
    Node& n = nodes_[static_cast<size_t>(leaf)];
    nodes_[static_cast<size_t>(left)].block = n.block;
    block_leaf_[static_cast<size_t>(n.block)] = left;
    n.block = -1;
    n.count = 0;
    n.left = left;
    n.right = right;
    n.split_dim = split_dim;
    n.split_value = split_value;
  }
  const int right_first = NewBlock(right) * cap;  // may reallocate the slab
  // The upper half moves to the fresh block; then the lower-half rows
  // sitting at positions >= mid fill the positions < mid it vacated.
  std::vector<char>& lower = split_lower_;
  lower.assign(static_cast<size_t>(cap), 0);
  for (int i = 0; i < mid; ++i) lower[static_cast<size_t>(order[i])] = 1;
  for (int i = mid; i < cap; ++i) {
    MoveRow(first + order[i], right_first + i - mid);
  }
  int hole = 0;
  for (int pos = mid; pos < cap; ++pos) {
    if (!lower[static_cast<size_t>(pos)]) continue;
    while (lower[static_cast<size_t>(hole)]) ++hole;
    MoveRow(first + pos, first + hole);
    ++hole;
  }
  nodes_[static_cast<size_t>(left)].count = mid;
  nodes_[static_cast<size_t>(right)].count = cap - mid;
  SetLeafBox(left);
  SetLeafBox(right);
  nodes_[static_cast<size_t>(leaf)].leaves = 2;
  // Every node was balanced before this split, and the split adds a leaf
  // to the child on the path only, so only that child can now outweigh
  // its sibling: no sibling needs reading.
  int scapegoat = -1;
  for (int child = leaf, a = nodes_[static_cast<size_t>(leaf)].parent;
       a >= 0; child = a, a = nodes_[static_cast<size_t>(a)].parent) {
    Node& n = nodes_[static_cast<size_t>(a)];
    ++n.leaves;
    if (Outweighs(nodes_[static_cast<size_t>(child)].leaves, n.leaves)) {
      scapegoat = a;
    }
  }
  return scapegoat;
}

bool KdTree::Unbalanced(int node) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.is_leaf()) return false;
  const int heavier = std::max(nodes_[static_cast<size_t>(n.left)].leaves,
                               nodes_[static_cast<size_t>(n.right)].leaves);
  return Outweighs(heavier, n.leaves);
}

void KdTree::Rebalance(int scapegoat) {
  while (scapegoat >= 0) {
    // The rebuilt subtree is balanced inside, but its new leaf count may
    // unbalance an ancestor, from either side; check the path above it.
    const int parent = nodes_[static_cast<size_t>(scapegoat)].parent;
    RebuildSubtree(scapegoat);
    scapegoat = -1;
    for (int a = parent; a >= 0; a = nodes_[static_cast<size_t>(a)].parent) {
      if (Unbalanced(a)) scapegoat = a;
    }
  }
}

void KdTree::Rebuild() {
  ++generation_;
  if (root_ >= 0) RebuildSubtree(root_);
}

void KdTree::CollectLeaves(int node, std::vector<int>* leaves) {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.is_leaf()) {
    if (n.count > 0) {
      leaves->push_back(node);
    } else {
      FreeNode(node);  // an empty leaf bounds nothing
    }
    return;
  }
  const int left = n.left;
  const int right = n.right;
  CollectLeaves(left, leaves);
  CollectLeaves(right, leaves);
  FreeNode(node);
}

void KdTree::RebuildSubtree(int node) {
  const int parent = nodes_[static_cast<size_t>(node)].parent;
  const int old_leaves = nodes_[static_cast<size_t>(node)].leaves;
  std::vector<int> leaves;
  CollectLeaves(node, &leaves);
  if (leaves.empty()) {
    // Only a root rebuild can find no rows: a partial rebuild's subtree
    // holds the row just inserted. Drop all storage.
    FDRMS_DCHECK(parent < 0);
    points_ = ScoreMatrix(dim_);
    boxmax_ = ScoreMatrix(dim_);
    row_id_.clear();
    block_leaf_.clear();
    free_blocks_.clear();
    nodes_.clear();
    free_nodes_.clear();
    root_ = -1;
    return;
  }
  std::vector<int> merged;
  MergeSparseLeaves(&leaves, 0, static_cast<int>(leaves.size()), &merged);
  const int built =
      BuildOverLeaves(&merged, 0, static_cast<int>(merged.size()), parent);
  if (parent < 0) {
    root_ = built;
    return;
  }
  Node& p = nodes_[static_cast<size_t>(parent)];
  (p.left == node ? p.left : p.right) = built;
  const int delta = nodes_[static_cast<size_t>(built)].leaves - old_leaves;
  for (int a = parent; a >= 0; a = nodes_[static_cast<size_t>(a)].parent) {
    nodes_[static_cast<size_t>(a)].leaves += delta;
  }
}

int KdTree::PartitionLeaves(std::vector<int>* leaves, int lo, int hi,
                            int* split_dim, double* split_value) const {
  const auto key = [&](int leaf, int j) { return boxmax_.row(leaf)[j]; };
  *split_dim = 0;
  double best_extent = -1.0;
  for (int j = 0; j < dim_; ++j) {
    double key_lo = std::numeric_limits<double>::infinity();
    double key_hi = -std::numeric_limits<double>::infinity();
    for (int i = lo; i < hi; ++i) {
      key_lo = std::min(key_lo, key((*leaves)[static_cast<size_t>(i)], j));
      key_hi = std::max(key_hi, key((*leaves)[static_cast<size_t>(i)], j));
    }
    if (key_hi - key_lo > best_extent) {
      best_extent = key_hi - key_lo;
      *split_dim = j;
    }
  }
  const int mid = (lo + hi) / 2;
  const int dim = *split_dim;
  auto begin = leaves->begin();
  std::nth_element(begin + lo, begin + mid, begin + hi,
                   [&](int a, int b) { return key(a, dim) < key(b, dim); });
  // Route by the left half's right edge.
  *split_value = -std::numeric_limits<double>::infinity();
  for (int i = lo; i < mid; ++i) {
    *split_value =
        std::max(*split_value, key((*leaves)[static_cast<size_t>(i)], dim));
  }
  return mid;
}

void KdTree::MergeSparseLeaves(std::vector<int>* leaves, int lo, int hi,
                               std::vector<int>* out) {
  int rows = 0;
  for (int i = lo; i < hi; ++i) {
    const int leaf = (*leaves)[static_cast<size_t>(i)];
    rows += nodes_[static_cast<size_t>(leaf)].count;
  }
  if (hi - lo > 1 && rows > leaf_size_) {
    int split_dim;
    double split_value;
    const int mid = PartitionLeaves(leaves, lo, hi, &split_dim, &split_value);
    MergeSparseLeaves(leaves, lo, mid, out);
    MergeSparseLeaves(leaves, mid, hi, out);
    return;
  }
  const int into = (*leaves)[static_cast<size_t>(lo)];
  for (int i = lo + 1; i < hi; ++i) {
    const int leaf = (*leaves)[static_cast<size_t>(i)];
    const Node& from = nodes_[static_cast<size_t>(leaf)];
    const int first = from.block * block_rows();
    for (int row = first; row < first + from.count; ++row) {
      Node& dst = nodes_[static_cast<size_t>(into)];
      MoveRow(row, dst.block * block_rows() + dst.count++);
    }
    FreeNode(leaf);
  }
  if (hi - lo > 1) SetLeafBox(into);
  out->push_back(into);
}

int KdTree::BuildOverLeaves(std::vector<int>* leaves, int lo, int hi,
                            int parent) {
  if (hi - lo == 1) {
    const int leaf = (*leaves)[static_cast<size_t>(lo)];
    nodes_[static_cast<size_t>(leaf)].parent = parent;
    return leaf;
  }
  int split_dim;
  double split_value;
  const int mid = PartitionLeaves(leaves, lo, hi, &split_dim, &split_value);
  const int node = NewNode(parent);
  const int left = BuildOverLeaves(leaves, lo, mid, node);
  const int right = BuildOverLeaves(leaves, mid, hi, node);
  Node& n = nodes_[static_cast<size_t>(node)];
  n.left = left;
  n.right = right;
  n.split_dim = split_dim;
  n.split_value = split_value;
  n.leaves = nodes_[static_cast<size_t>(left)].leaves +
             nodes_[static_cast<size_t>(right)].leaves;
  const double* l = boxmax_.row(left);
  const double* r = boxmax_.row(right);
  double* box = boxmax_.mutable_row(node);
  for (int j = 0; j < dim_; ++j) box[j] = std::max(l[j], r[j]);
  return node;
}

Point KdTree::GetPoint(int id) const {
  const int row = row_of_.Find(id);
  FDRMS_CHECK(row >= 0) << "GetPoint on missing id " << id;
  const double* r = points_.row(row);
  return Point(r, r + dim_);
}

KdTree::PointRef KdTree::GetPointRef(int id) const {
  const int row = row_of_.Find(id);
  FDRMS_CHECK(row >= 0) << "GetPoint on missing id " << id;
  return PointRef(this, row, generation_);
}

template <typename Fn>
void KdTree::ScanLeaf(int leaf, const double* u, Fn&& fn) const {
  const Node& n = nodes_[static_cast<size_t>(leaf)];
  const int first = n.block * block_rows();
  double scores[kScanChunk];
  for (int base = first; base < first + n.count;
       base += static_cast<int>(kScanChunk)) {
    const size_t count =
        std::min(kScanChunk, static_cast<size_t>(first + n.count - base));
    ScoreBlock(points_.row(base), points_.stride(), dim_, count, u, scores);
    for (size_t i = 0; i < count; ++i) {
      fn(scores[i], row_id_[static_cast<size_t>(base) + i]);
    }
  }
}

void KdTree::ScoreIds(const double* u, const std::vector<int>& ids,
                      double* out) const {
  // Gather in fixed chunks so the id -> row translation needs no heap.
  int rows[kScanChunk];
  for (size_t base = 0; base < ids.size(); base += kScanChunk) {
    const size_t n = std::min(ids.size() - base, kScanChunk);
    for (size_t j = 0; j < n; ++j) {
      rows[j] = row_of_.Find(ids[base + j]);
      FDRMS_CHECK(rows[j] >= 0) << "ScoreIds on missing id " << ids[base + j];
    }
    ScoreGather(points_.row(0), points_.stride(), dim_, rows, n, u,
                out + base);
  }
}

double KdTree::NodeUpperBound(int node_id, const Point& u) const {
  // u >= 0, so the box corner box_max maximizes the inner product.
  return DotContiguous(u.data(), boxmax_.row(node_id), dim_);
}

std::vector<ScoredId> KdTree::TopK(const Point& u, int k) const {
  FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  FDRMS_CHECK(k >= 1);
  // Bounded "worst at top" heap of the best k seen so far.
  auto worse = [](const ScoredId& a, const ScoredId& b) {
    return BetterScore(a, b);
  };
  std::priority_queue<ScoredId, std::vector<ScoredId>, decltype(worse)> best(
      worse);
  auto offer = [&](double score, int id) {
    ScoredId cand{score, id};
    if (static_cast<int>(best.size()) < k) {
      best.push(cand);
    } else if (BetterScore(cand, best.top())) {
      best.pop();
      best.push(cand);
    }
  };
  auto current_bound = [&]() {
    return static_cast<int>(best.size()) < k
               ? -std::numeric_limits<double>::infinity()
               : best.top().score;
  };
  // Best-first traversal. Leaves stream the blocked kernel over their
  // contiguous rows; frontier expansion scores both children's box-max
  // rows with one gather call.
  if (root_ >= 0) {
    using Pq = std::pair<double, int>;  // (upper bound, node)
    std::priority_queue<Pq> frontier;
    frontier.push({NodeUpperBound(root_, u), root_});
    while (!frontier.empty()) {
      auto [bound, node_id] = frontier.top();
      frontier.pop();
      if (bound < current_bound()) break;  // nothing better remains
      const Node& node = nodes_[static_cast<size_t>(node_id)];
      if (node.is_leaf()) {
        ScanLeaf(node_id, u.data(), offer);
      } else {
        const int child_idx[2] = {node.left, node.right};
        double child_bound[2];
        ScoreGather(boxmax_.row(0), boxmax_.stride(), dim_, child_idx, 2,
                    u.data(), child_bound);
        frontier.push({child_bound[0], node.left});
        frontier.push({child_bound[1], node.right});
      }
    }
  }
  std::vector<ScoredId> out(best.size());
  for (int i = static_cast<int>(best.size()) - 1; i >= 0; --i) {
    out[static_cast<size_t>(i)] = best.top();
    best.pop();
  }
  return out;
}

template <typename Emit>
void KdTree::WalkOne(int node, const double* u, double threshold, int g,
                     Emit& emit) const {
  // <u, box_max> is exact since u >= 0.
  if (DotContiguous(u, boxmax_.row(node), dim_) < threshold) return;
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.is_leaf()) {
    ScanLeaf(node, u, [&](double score, int id) {
      if (score >= threshold) emit(g, score, id);
    });
    return;
  }
  WalkOne(n.left, u, threshold, g, emit);
  WalkOne(n.right, u, threshold, g, emit);
}

size_t KdTree::KeepReaching(int node, const RangeGroup& group,
                            const int* active, size_t count,
                            int* kept) const {
  FDRMS_CHECK(kept + count <= group.kept_limit);
  const double* box = boxmax_.row(node);
  size_t n_kept = 0;
  for (size_t first = 0; first < count; first += kScanChunk) {
    const size_t n = std::min(kScanChunk, count - first);
    int idx[kScanChunk];
    double bound[kScanChunk];
    for (size_t j = 0; j < n; ++j) idx[j] = group.rows[active[first + j]];
    ScoreGather(group.base, group.stride, dim_, idx, n, box, bound);
    for (size_t j = 0; j < n; ++j) {
      const int g = active[first + j];
      kept[n_kept] = g;
      n_kept += bound[j] >= group.thresholds[g] ? 1 : 0;
    }
  }
  return n_kept;
}

template <typename Emit>
void KdTree::WalkGroup(int node, const RangeGroup& group, const int* active,
                       size_t count, int* kept, Emit& emit) const {
  if (count == 1) {
    const int g = active[0];
    const double* u =
        group.base + static_cast<size_t>(group.rows[g]) * group.stride;
    WalkOne(node, u, group.thresholds[g], g, emit);
    return;
  }
  const size_t n_kept = KeepReaching(node, group, active, count, kept);
  if (n_kept == 0) return;
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.is_leaf()) {
    for (size_t i = 0; i < n_kept; ++i) {
      const int g = kept[i];
      const double threshold = group.thresholds[g];
      ScanLeaf(node,
               group.base + static_cast<size_t>(group.rows[g]) * group.stride,
               [&](double score, int id) {
                 if (score >= threshold) emit(g, score, id);
               });
    }
    return;
  }
  // Both children read this node's list and write theirs after it.
  WalkGroup(n.left, group, kept, n_kept, kept + n_kept, emit);
  WalkGroup(n.right, group, kept, n_kept, kept + n_kept, emit);
}

std::vector<ScoredId> KdTree::ScoreRange(const Point& u,
                                         double threshold) const {
  std::vector<ScoredId> out;
  ScoreRange(u, threshold, &out);
  return out;
}

void KdTree::ScoreRange(const Point& u, double threshold,
                        std::vector<ScoredId>* out) const {
  FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  out->clear();
  auto emit = [&](int, double score, int id) { out->push_back({score, id}); };
  if (root_ >= 0) WalkOne(root_, u.data(), threshold, 0, emit);
  std::sort(out->begin(), out->end(), BetterScore);
}

void KdTree::ScoreRanges(const double* base, size_t stride, const int* rows,
                         const double* thresholds, const double* ceilings,
                         size_t count,
                         std::vector<std::vector<ScoredId>>* out) const {
  out->resize(count);
  for (std::vector<ScoredId>& hits : *out) hits.clear();
  if (root_ >= 0 && count > 0) {
    // The lists on one root-to-leaf path: the group, then one kept list
    // per node, each at most `count` long, over at most depth + 1 nodes;
    // the depth is at most 2 * ceil(log2 leaves) (see the file comment).
    const unsigned leaves =
        static_cast<unsigned>(nodes_[static_cast<size_t>(root_)].leaves);
    const size_t depth = 2 * static_cast<size_t>(std::bit_width(leaves));
    std::vector<int> lists(count * (depth + 2));
    std::iota(lists.begin(), lists.begin() + static_cast<ptrdiff_t>(count),
              0);
    const RangeGroup group{base, stride, rows, thresholds,
                           lists.data() + lists.size()};
    auto emit = [&](int g, double score, int id) {
      if (score < ceilings[g]) {
        (*out)[static_cast<size_t>(g)].push_back({score, id});
      }
    };
    WalkGroup(root_, group, lists.data(), count, lists.data() + count, emit);
  }
  for (std::vector<ScoredId>& hits : *out) {
    std::sort(hits.begin(), hits.end(), BetterScore);
  }
}

Status KdTree::CheckInvariants() const {
  auto fail = [](const std::string& what) {
    return Status::Internal("kd-tree invariant: " + what);
  };
  if (root_ < 0) {
    if (live_count_ != 0 || row_of_.size() != 0) {
      return fail("empty tree holds tuples");
    }
    return Status::OK();
  }
  if (nodes_[static_cast<size_t>(root_)].parent != -1) {
    return fail("root has a parent");
  }
  const int cap = block_rows();
  std::vector<char> block_used(block_leaf_.size(), 0);
  std::vector<double> box(static_cast<size_t>(dim_));
  int rows_seen = 0;
  int max_depth = 0;
  // Iterative DFS over (node, depth).
  std::vector<std::pair<int, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
      return fail("node index out of range");
    }
    const Node& n = nodes_[static_cast<size_t>(node)];
    const std::string where = "node " + std::to_string(node);
    max_depth = std::max(max_depth, depth);
    std::fill(box.begin(), box.end(), std::numeric_limits<double>::lowest());
    if (n.is_leaf()) {
      if (n.leaves != 1) return fail(where + " is a leaf with leaves != 1");
      if (n.block < 0 || n.block >= static_cast<int>(block_leaf_.size())) {
        return fail(where + " has no valid block");
      }
      if (block_used[static_cast<size_t>(n.block)]++ ||
          block_leaf_[static_cast<size_t>(n.block)] != node) {
        return fail(where + " shares or does not own its block");
      }
      if (n.count < 0 || n.count > cap) return fail(where + " over capacity");
      const int first = n.block * cap;
      for (int row = first; row < first + n.count; ++row) {
        const int id = row_id_[static_cast<size_t>(row)];
        if (row_of_.Find(id) != row) {
          return fail("row " + std::to_string(row) + " and row_of_ disagree");
        }
        const double* r = points_.row(row);
        for (int j = 0; j < dim_; ++j) {
          const size_t sj = static_cast<size_t>(j);
          box[sj] = std::max(box[sj], r[j]);
        }
      }
      rows_seen += n.count;
    } else {
      for (int child : {n.left, n.right}) {
        if (child < 0 || child >= static_cast<int>(nodes_.size()) ||
            nodes_[static_cast<size_t>(child)].parent != node) {
          return fail(where + " has a bad child link");
        }
        const double* c = boxmax_.row(child);
        for (int j = 0; j < dim_; ++j) {
          const size_t sj = static_cast<size_t>(j);
          box[sj] = std::max(box[sj], c[j]);
        }
        stack.push_back({child, depth + 1});
      }
      if (n.leaves != nodes_[static_cast<size_t>(n.left)].leaves +
                          nodes_[static_cast<size_t>(n.right)].leaves) {
        return fail(where + " miscounts its leaves");
      }
      if (Unbalanced(node)) return fail(where + " is unbalanced");
    }
    // Children's rows are checked against their own box when popped, so
    // an exact max at every node bounds every row below it.
    const double* b = boxmax_.row(node);
    for (int j = 0; j < dim_; ++j) {
      if (b[j] != box[static_cast<size_t>(j)]) {
        return fail(where + " box-max is not the max of its subtree");
      }
    }
  }
  if (rows_seen != live_count_ ||
      row_of_.size() != live_count_) {
    return fail("live count " + std::to_string(live_count_) + " but " +
                std::to_string(rows_seen) + " leaf rows and " +
                std::to_string(row_of_.size()) + " ids");
  }
  for (size_t b = 0; b < block_leaf_.size(); ++b) {
    if (!block_used[b] && block_leaf_[b] != -1) {
      return fail("block " + std::to_string(b) + " is owned by no leaf");
    }
  }
  const int leaves = nodes_[static_cast<size_t>(root_)].leaves;
  if (max_depth > MaxBalancedDepth(leaves)) {
    return fail("depth " + std::to_string(max_depth) + " exceeds the bound " +
                std::to_string(MaxBalancedDepth(leaves)) + " for " +
                std::to_string(leaves) + " leaves");
  }
  return Status::OK();
}

}  // namespace fdrms
