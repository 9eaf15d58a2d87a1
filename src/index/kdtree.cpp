#include "index/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "geometry/score_kernel.h"

namespace fdrms {

KdTree::KdTree(int dim, int leaf_size)
    : dim_(dim), leaf_size_(leaf_size), points_(dim), boxmax_(dim) {
  FDRMS_CHECK(dim > 0);
  FDRMS_CHECK(leaf_size >= 2);
}

Status KdTree::Insert(int id, const Point& p) {
  if (static_cast<int>(p.size()) != dim_) {
    return Status::Invalid("point dimension mismatch");
  }
  if (slot_of_.count(id) > 0) {
    return Status::AlreadyExists("tuple id " + std::to_string(id) +
                                 " already indexed");
  }
  ++generation_;
  const int slot = points_.AppendRow(p);  // may reallocate the slab
  // The insert buffer is the row range [indexed_count_, slots_.size()):
  // appends extend it in place, so it stays one contiguous block.
  FDRMS_DCHECK(slot == static_cast<int>(slots_.size()) &&
               slot >= indexed_count_);
  slots_.push_back(Slot{id, true});
  slot_of_[id] = slot;
  ++live_count_;
  MaybeRebuild();
  return Status::OK();
}

Status KdTree::Delete(int id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not indexed");
  }
  ++generation_;
  int slot = it->second;
  slots_[slot].alive = false;
  slot_of_.erase(it);
  --live_count_;
  // Buffer rows are scanned with a liveness check, so only tree-referenced
  // tombstones count toward rebuild pressure. We cannot cheaply tell which
  // kind `slot` is; counting all deletions as tree pressure only makes
  // rebuilds slightly more eager.
  ++dead_in_tree_;
  MaybeRebuild();
  return Status::OK();
}

Point KdTree::GetPoint(int id) const {
  auto it = slot_of_.find(id);
  FDRMS_CHECK(it != slot_of_.end()) << "GetPoint on missing id " << id;
  const double* r = points_.row(it->second);
  return Point(r, r + dim_);
}

KdTree::PointRef KdTree::GetPointRef(int id) const {
  auto it = slot_of_.find(id);
  FDRMS_CHECK(it != slot_of_.end()) << "GetPoint on missing id " << id;
  return PointRef(this, it->second, generation_);
}

template <typename Fn>
void KdTree::ScanRows(int first, int count, const double* u, Fn&& fn) const {
  double scores[kScanChunk];
  for (int base = first; base < first + count;
       base += static_cast<int>(kScanChunk)) {
    const size_t n =
        std::min(kScanChunk, static_cast<size_t>(first + count - base));
    ScoreBlock(points_.row(base), points_.stride(), dim_, n, u, scores);
    for (size_t i = 0; i < n; ++i) {
      const Slot& slot = slots_[static_cast<size_t>(base) + i];
      if (slot.alive) fn(scores[i], slot.id);
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
      auto it = slot_of_.find(ids[base + j]);
      FDRMS_CHECK(it != slot_of_.end())
          << "ScoreIds on missing id " << ids[base + j];
      rows[j] = it->second;
    }
    ScoreGather(points_.row(0), points_.stride(), dim_, rows, n, u,
                out + base);
  }
}

void KdTree::MaybeRebuild() {
  int total = static_cast<int>(slots_.size());
  bool buffer_heavy = total - indexed_count_ > std::max(64, total / 4);
  bool tombstone_heavy = dead_in_tree_ > std::max(64, total / 2);
  if (buffer_heavy || tombstone_heavy) Rebuild();
}

void KdTree::Rebuild() {
  ++generation_;
  nodes_.clear();
  dead_in_tree_ = 0;
  boxmax_ = ScoreMatrix(dim_);
  // Compact tombstoned slots away; `order` holds the surviving old slot
  // indices and is permuted in place by the build so that when it returns,
  // position pos belongs to exactly one leaf's [first, first + count).
  std::vector<int> order;
  order.reserve(static_cast<size_t>(live_count_));
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].alive) order.push_back(static_cast<int>(s));
  }
  if (order.empty()) {
    slots_.clear();
    slot_of_.clear();
    points_ = ScoreMatrix(dim_);
    indexed_count_ = 0;
    root_ = -1;
    return;
  }
  root_ = BuildNode(&order, 0, static_cast<int>(order.size()));
  // Apply the build permutation to the slot array and the point slab so
  // each leaf's rows are physically contiguous.
  ScoreMatrix new_points(dim_);
  new_points.Reserve(static_cast<int>(order.size()));
  std::vector<Slot> new_slots;
  new_slots.reserve(order.size());
  slot_of_.clear();
  for (size_t pos = 0; pos < order.size(); ++pos) {
    new_points.AppendRowUnchecked(points_.row(order[pos]));
    new_slots.push_back(Slot{slots_[static_cast<size_t>(order[pos])].id, true});
    slot_of_[new_slots.back().id] = static_cast<int>(pos);
  }
  points_ = std::move(new_points);
  slots_ = std::move(new_slots);
  indexed_count_ = static_cast<int>(slots_.size());
}

int KdTree::BuildNode(std::vector<int>* order, int lo, int hi) {
  // Bounding box over rows order[lo..hi) of the (pre-permutation) slab.
  std::vector<double> box_min(static_cast<size_t>(dim_),
                              std::numeric_limits<double>::infinity());
  std::vector<double> box_max(static_cast<size_t>(dim_),
                              -std::numeric_limits<double>::infinity());
  for (int i = lo; i < hi; ++i) {
    const double* p = points_.row((*order)[i]);
    for (int j = 0; j < dim_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      box_min[sj] = std::min(box_min[sj], p[j]);
      box_max[sj] = std::max(box_max[sj], p[j]);
    }
  }
  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  FDRMS_CHECK(boxmax_.AppendRowUnchecked(box_max.data()) == node_id);
  if (hi - lo <= leaf_size_) {
    nodes_[node_id].first = lo;
    nodes_[node_id].count = hi - lo;
    return node_id;
  }
  // Split on the widest dimension at the median.
  int split_dim = 0;
  double best_extent = -1.0;
  for (int j = 0; j < dim_; ++j) {
    const size_t sj = static_cast<size_t>(j);
    double extent = box_max[sj] - box_min[sj];
    if (extent > best_extent) {
      best_extent = extent;
      split_dim = j;
    }
  }
  int mid = (lo + hi) / 2;
  std::nth_element(order->begin() + lo, order->begin() + mid,
                   order->begin() + hi, [&](int a, int b) {
                     return points_.row(a)[split_dim] <
                            points_.row(b)[split_dim];
                   });
  int left = BuildNode(order, lo, mid);
  int right = BuildNode(order, mid, hi);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
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
  // Best-first traversal of the tree. Leaves stream the blocked kernel
  // over their contiguous row range; frontier expansion scores both
  // children's box-max rows with one gather call.
  if (root_ >= 0) {
    using Pq = std::pair<double, int>;  // (upper bound, node)
    std::priority_queue<Pq> frontier;
    frontier.push({NodeUpperBound(root_, u), root_});
    while (!frontier.empty()) {
      auto [bound, node_id] = frontier.top();
      frontier.pop();
      if (bound < current_bound()) break;  // nothing better remains
      const Node& node = nodes_[node_id];
      if (node.is_leaf()) {
        ScanRows(node.first, node.count, u.data(), offer);
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
  // The buffer has no box bounds, so every live row of it is a candidate.
  ScanRows(indexed_count_, BufferCount(), u.data(), offer);
  std::vector<ScoredId> out(best.size());
  for (int i = static_cast<int>(best.size()) - 1; i >= 0; --i) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

void KdTree::CollectRange(int node_id, const Point& u, double threshold,
                          std::vector<ScoredId>* out) const {
  const Node& node = nodes_[node_id];
  if (NodeUpperBound(node_id, u) < threshold) return;
  if (node.is_leaf()) {
    ScanRows(node.first, node.count, u.data(), [&](double score, int id) {
      if (score >= threshold) out->push_back({score, id});
    });
    return;
  }
  CollectRange(node.left, u, threshold, out);
  CollectRange(node.right, u, threshold, out);
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
  if (root_ >= 0) CollectRange(root_, u, threshold, out);
  ScanRows(indexed_count_, BufferCount(), u.data(), [&](double score, int id) {
    if (score >= threshold) out->push_back({score, id});
  });
  std::sort(out->begin(), out->end(), BetterScore);
}

}  // namespace fdrms
