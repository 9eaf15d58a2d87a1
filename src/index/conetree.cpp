#include "index/conetree.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace fdrms {

namespace {

/// Rows per kernel call. The kernel writes into fixed stack buffers of this
/// size, so a query allocates nothing beyond its output vectors.
constexpr size_t kScanChunk = 512;
static_assert(kScanChunk % kScanLanes == 0);

}  // namespace

ConeTree::ConeTree(const std::vector<Point>& utilities)
    : utilities_(utilities) {
  if (utilities_.empty()) return;
  dim_ = static_cast<int>(utilities_[0].size());
  for (const Point& u : utilities_) {
    FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  }
  const size_t m = utilities_.size();
  const size_t lanes = (m + kScanLanes - 1) / kScanLanes * kScanLanes;
  slab_ = ScoreMatrix(static_cast<int>(lanes));
  slab_.Reserve(dim_ + 1);
  Point row(lanes, 0.0);
  for (int j = 0; j < dim_; ++j) {
    for (size_t i = 0; i < m; ++i) row[i] = utilities_[i][j];
    slab_.AppendRow(row);
  }
  // Padding rows never pass: they score 0 against a +inf threshold.
  std::fill(row.begin(), row.begin() + m, 0.0);
  std::fill(row.begin() + m, row.end(),
            std::numeric_limits<double>::infinity());
  slab_.AppendRow(row);
}

std::vector<int> ConeTree::FindReached(const Point& p) const {
  std::vector<int> out;
  FindReached(p, &out, nullptr);
  return out;
}

void ConeTree::FindReached(const Point& p, std::vector<int>* indices,
                           std::vector<double>* scores) const {
  indices->clear();
  if (scores != nullptr) scores->clear();
  if (utilities_.empty()) return;
  FDRMS_DCHECK(static_cast<int>(p.size()) == dim_);
  const size_t lanes = static_cast<size_t>(slab_.dim());
  const double* tau = slab_.row(dim_);
  int chunk_idx[kScanChunk];
  double chunk_scores[kScanChunk];
  for (size_t first = 0; first < lanes; first += kScanChunk) {
    const size_t count = std::min(kScanChunk, lanes - first);
    const size_t n =
        ScanReached(slab_.row(0) + first, slab_.stride(), dim_, count,
                    p.data(), tau + first, chunk_idx, chunk_scores);
    for (size_t r = 0; r < n; ++r) {
      indices->push_back(static_cast<int>(first) + chunk_idx[r]);
    }
    if (scores != nullptr) {
      scores->insert(scores->end(), chunk_scores, chunk_scores + n);
    }
  }
}

std::vector<int> ConeTree::FindReachedBruteForce(const Point& p) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (Dot(utilities_[i], p) >= GetThreshold(i)) out.push_back(i);
  }
  return out;
}

}  // namespace fdrms
