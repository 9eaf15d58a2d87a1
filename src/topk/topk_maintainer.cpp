#include "topk/topk_maintainer.h"

#include <algorithm>

#include "common/check.h"

namespace fdrms {

TopKMaintainer::TopKMaintainer(int dim, int k, double eps,
                               std::vector<Point> utilities)
    : dim_(dim),
      k_(k),
      eps_(eps),
      utilities_(std::move(utilities)),
      tree_(dim),
      cone_(utilities_),
      topk_(utilities_.size()),
      approx_(utilities_.size()) {
  FDRMS_CHECK(k_ >= 1);
  FDRMS_CHECK(eps_ >= 0.0 && eps_ < 1.0);
  for (const Point& u : utilities_) {
    FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  }
}

double TopKMaintainer::OmegaK(int utility) const {
  const auto& list = topk_[utility];
  if (static_cast<int>(list.size()) < k_) return 0.0;
  return list.back().score;
}

double TopKMaintainer::ThresholdFor(int utility) const {
  return (1.0 - eps_) * OmegaK(utility);
}

const std::unordered_set<int>& TopKMaintainer::MemberOf(int id) const {
  static const std::unordered_set<int> empty;
  auto it = member_of_.find(id);
  return it == member_of_.end() ? empty : it->second;
}

void TopKMaintainer::EmitAdd(int utility, int id,
                             std::vector<TopKDelta>* deltas) {
  approx_[utility].insert(id);
  member_of_[id].insert(utility);
  if (deltas != nullptr) deltas->push_back({utility, id, /*added=*/true});
}

void TopKMaintainer::EmitRemove(int utility, int id,
                                std::vector<TopKDelta>* deltas) {
  approx_[utility].erase(id);
  auto it = member_of_.find(id);
  if (it != member_of_.end()) {
    it->second.erase(utility);
    if (it->second.empty()) member_of_.erase(it);
  }
  if (deltas != nullptr) deltas->push_back({utility, id, /*added=*/false});
}

Status TopKMaintainer::Insert(int id, const Point& p,
                              std::vector<TopKDelta>* deltas) {
  // Validate before the index scan: FindReached dots `p` against dim_-sized
  // utilities, so a short point would read out of bounds.
  if (static_cast<int>(p.size()) != dim_) {
    return Status::Invalid("point dimension mismatch");
  }
  // One scan of the utility index finds the utilities whose admission
  // threshold `p` reaches, with their scores; all Φ and top-k changes are
  // confined to those.
  cone_.FindReached(p, &reached_scratch_, &reached_score_scratch_);
  FDRMS_RETURN_NOT_OK(tree_.Insert(id, p));
  for (size_t ai = 0; ai < reached_scratch_.size(); ++ai) {
    const int u = reached_scratch_[ai];
    const double score = reached_score_scratch_[ai];
    double old_tau = ThresholdFor(u);
    // The index compared against the last τ pushed to it; the current bar
    // decides.
    if (score < old_tau) continue;
    // Update the exact top-k list.
    auto& list = topk_[u];
    auto pos = std::lower_bound(list.begin(), list.end(), ScoredId{score, id},
                                BetterScore);
    if (static_cast<int>(list.size()) < k_) {
      list.insert(pos, {score, id});
    } else if (pos != list.end()) {
      list.insert(pos, {score, id});
      list.pop_back();
    }
    double new_tau = ThresholdFor(u);
    if (score >= new_tau) EmitAdd(u, id, deltas);
    if (new_tau > old_tau) {
      // The admission bar rose; evict members that fell below it. One
      // gather-kernel call scores the whole membership against the tree's
      // point slab — no Point copy or per-member pointer chase.
      member_scratch_.clear();
      for (int member : approx_[u]) {
        if (member != id) member_scratch_.push_back(member);
      }
      member_score_scratch_.resize(member_scratch_.size());
      tree_.ScoreIds(utilities_[u].data(), member_scratch_,
                     member_score_scratch_.data());
      for (size_t mi = 0; mi < member_scratch_.size(); ++mi) {
        if (member_score_scratch_[mi] < new_tau) {
          EmitRemove(u, member_scratch_[mi], deltas);
        }
      }
      cone_.SetThreshold(u, new_tau);
    }
  }
  return Status::OK();
}

Status TopKMaintainer::Delete(int id, std::vector<TopKDelta>* deltas) {
  if (!tree_.Contains(id)) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not present");
  }
  // Only utilities whose Φ set contains `id` can change (S(p) in the paper).
  const auto& member_of = MemberOf(id);
  affected_scratch_.assign(member_of.begin(), member_of.end());
  std::sort(affected_scratch_.begin(), affected_scratch_.end());
  FDRMS_RETURN_NOT_OK(tree_.Delete(id));
  for (int u : affected_scratch_) {
    EmitRemove(u, id, deltas);
    auto& list = topk_[u];
    auto in_topk = std::find_if(list.begin(), list.end(),
                                [&](const ScoredId& s) { return s.id == id; });
    if (in_topk == list.end()) continue;  // only the approx tail changes
    RebuildUtility(u, deltas);
  }
  return Status::OK();
}

void TopKMaintainer::RebuildUtility(int utility, std::vector<TopKDelta>* deltas) {
  const Point& u = utilities_[utility];
  const std::unordered_set<int>& members = approx_[utility];
  auto& list = topk_[utility];
  if (static_cast<int>(members.size()) >= k_) {
    // The surviving members all score >= the old τ and every non-member
    // scores below it (see the header), so the k best survivors are the new
    // exact top-k: one gather over Φ replaces the kd-tree search.
    member_scratch_.assign(members.begin(), members.end());
    member_score_scratch_.resize(member_scratch_.size());
    tree_.ScoreIds(u.data(), member_scratch_,
                   member_score_scratch_.data());
    ranked_scratch_.resize(member_scratch_.size());
    for (size_t i = 0; i < member_scratch_.size(); ++i) {
      ranked_scratch_[i] = {member_score_scratch_[i], member_scratch_[i]};
    }
    std::partial_sort(ranked_scratch_.begin(), ranked_scratch_.begin() + k_,
                      ranked_scratch_.end(), BetterScore);
    list.assign(ranked_scratch_.begin(), ranked_scratch_.begin() + k_);
  } else {
    list = tree_.TopK(u, k_);
  }
  double tau = ThresholdFor(utility);
  // ω_k only decreases on deletion, so existing members stay eligible; the
  // range query finds the (possibly new) entrants at the lowered bar.
  tree_.ScoreRange(u, tau, &ranked_scratch_);
  for (const ScoredId& s : ranked_scratch_) {
    if (members.count(s.id) == 0) EmitAdd(utility, s.id, deltas);
  }
  cone_.SetThreshold(utility, tau);
}

Status TopKMaintainer::ValidateAgainstBruteForce() const {
  for (size_t u = 0; u < utilities_.size(); ++u) {
    // Recompute scores of all live tuples.
    std::vector<ScoredId> all;
    tree_.ForEach([&](int id, const Point& p) {
      all.push_back({Dot(utilities_[u], p), id});
    });
    std::sort(all.begin(), all.end(), BetterScore);
    double omega_k =
        static_cast<int>(all.size()) < k_ ? 0.0 : all[k_ - 1].score;
    double tau = (1.0 - eps_) * omega_k;
    std::unordered_set<int> expected;
    for (const ScoredId& s : all) {
      if (s.score >= tau) expected.insert(s.id);
    }
    if (expected != approx_[u]) {
      return Status::Internal("approx top-k mismatch for utility " +
                              std::to_string(u));
    }
    // Exact top-k list must equal the brute-force prefix.
    const auto& list = topk_[u];
    size_t expect_len = std::min<size_t>(k_, all.size());
    if (list.size() != expect_len) {
      return Status::Internal("top-k length mismatch for utility " +
                              std::to_string(u));
    }
    for (size_t i = 0; i < expect_len; ++i) {
      if (list[i] != all[i]) {
        return Status::Internal("top-k order mismatch for utility " +
                                std::to_string(u));
      }
    }
  }
  return Status::OK();
}

}  // namespace fdrms
