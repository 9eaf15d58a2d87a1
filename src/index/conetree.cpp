#include "index/conetree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace fdrms {

namespace {

/// Rows per filter call: M = 2048 (the repository benchmark's) is one
/// call. Survivors land in fixed stack buffers of this size, so a query
/// allocates nothing beyond its output vectors.
constexpr size_t kScanChunk = 2048;
static_assert(kScanChunk % kFilterLanes == 0);

}  // namespace

ConeTree::ConeTree(const std::vector<Point>& utilities)
    : rows_(utilities), tau_(utilities.size(), 0.0) {
  if (utilities.empty()) return;
  dim_ = rows_.dim();
  const size_t m = utilities.size();
  lanes_ = (m + kFilterLanes - 1) / kFilterLanes * kFilterLanes;
  // rows_ checked every utility's dimension. A non-finite or oversized
  // coordinate disables the prefilter for good: max_abs_ = inf.
  max_abs_ = 0x1p-126;
  for (const Point& u : utilities) {
    for (double v : u) {
      const double a = std::fabs(v);
      max_abs_ = a <= kFilterMaxMagnitude
                     ? std::max(max_abs_, a)
                     : std::numeric_limits<double>::infinity();
    }
  }
  // Padding rows never pass: they score 0 against a +inf threshold. With
  // the prefilter disabled (max_abs_ = inf) the float coordinates are
  // never read, and zeros avoid converting out-of-range doubles.
  cols_.assign((static_cast<size_t>(dim_) + 1) * lanes_, 0.0f);
  if (max_abs_ <= kFilterMaxMagnitude) {
    for (int j = 0; j < dim_; ++j) {
      for (size_t i = 0; i < m; ++i) {
        cols_[static_cast<size_t>(j) * lanes_ + i] =
            static_cast<float>(utilities[i][static_cast<size_t>(j)]);
      }
    }
  }
  float* tau_row = cols_.data() + static_cast<size_t>(dim_) * lanes_;
  std::fill(tau_row + m, tau_row + lanes_,
            std::numeric_limits<float>::infinity());
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
  if (tau_.empty()) return;
  FDRMS_DCHECK(static_cast<int>(p.size()) == dim_);
  float q[kFilterMaxDim];
  float slack = 0.0f;
  const bool filtered =
      PrepareReachedFilter(p.data(), dim_, max_abs_, q, &slack);
  const float* tau_row = cols_.data() + static_cast<size_t>(dim_) * lanes_;
  int cand[kScanChunk];
  double cand_scores[kScanChunk];
  for (size_t first = 0; first < lanes_; first += kScanChunk) {
    const size_t count = std::min(kScanChunk, lanes_ - first);
    size_t n;
    if (filtered) {
      n = FilterReached(cols_.data() + first, lanes_, dim_, count, q, slack,
                        tau_row + first, cand);
      for (size_t r = 0; r < n; ++r) cand[r] += static_cast<int>(first);
    } else {
      // Unsafe probe: every utility of the chunk is a candidate.
      n = std::min(count, tau_.size() - first);
      for (size_t r = 0; r < n; ++r) cand[r] = static_cast<int>(first + r);
    }
    if (n == 0) continue;
    ScoreGather(rows_.row(0), rows_.stride(), dim_, cand, n, p.data(),
                cand_scores);
    // Branch-free pack of the reached candidates, then one append each.
    size_t reached = 0;
    for (size_t r = 0; r < n; ++r) {
      cand[reached] = cand[r];
      cand_scores[reached] = cand_scores[r];
      reached += cand_scores[r] >= tau_[static_cast<size_t>(cand[r])] ? 1 : 0;
    }
    indices->insert(indices->end(), cand, cand + reached);
    if (scores != nullptr) {
      scores->insert(scores->end(), cand_scores, cand_scores + reached);
    }
  }
}

std::vector<int> ConeTree::FindReachedBruteForce(const Point& p) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (rows_.RowDot(i, p) >= GetThreshold(i)) out.push_back(i);
  }
  return out;
}

}  // namespace fdrms
