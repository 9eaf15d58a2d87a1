#include "topk/topk_maintainer.h"

#include <algorithm>
#include <bit>
#include <cstdint>

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
      affected_mark_((utilities_.size() + 63) / 64, 0),
      cover_(static_cast<int>(utilities_.size())) {
  FDRMS_CHECK(k_ >= 1);
  FDRMS_CHECK(eps_ >= 0.0 && eps_ < 1.0);
  // The dominance test's proof (see the header) needs finite, nonnegative
  // utilities, each with its largest coordinate in [2^-64, 2^64].
  dominance_ok_ = dim_ <= kFilterMaxDim;
  for (const Point& u : utilities_) {
    FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
    double largest = 0.0;
    for (double x : u) {
      if (!(x >= 0.0 && x <= 0x1p64)) dominance_ok_ = false;
      largest = std::max(largest, x);
    }
    if (largest < 0x1p-64) dominance_ok_ = false;
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

void TopKMaintainer::EmitAdd(int utility, int id,
                             std::vector<TopKDelta>* deltas) {
  // Every caller adds a known non-member (a new tuple, or a delete's
  // entrant), so the membership is appended without a lookup.
  cover_.AddNewMembership(utility, id);
  if (deltas != nullptr) deltas->push_back({utility, id, /*added=*/true});
}

bool TopKMaintainer::CoverDominates(const Point& p) {
  if (!dominance_ok_) return false;
  const size_t d = static_cast<size_t>(dim_);
  if (dominators_version_ != cover_.cover_version()) {
    dominators_version_ = cover_.cover_version();
    dominators_.clear();
    const double c = (1.0 - eps_) * (1.0 - 0x1p-40);
    for (int member : cover_.CoverSetIds()) {
      const double* g = tree_.GetPointRef(member).data();
      if (std::all_of(g, g + d, [](double x) {
            return x >= 0x1p-256 && x <= 0x1p256;
          })) {
        for (size_t j = 0; j < d; ++j) dominators_.push_back(c * g[j]);
      }
    }
  }
  if (dominators_.size() < static_cast<size_t>(k_) * d) return false;
  // Fails on negative and NaN coordinates.
  for (double x : p) {
    if (!(x >= 0.0)) return false;
  }
  int found = 0;
  for (size_t row = 0; row < dominators_.size(); row += d) {
    const double* s = dominators_.data() + row;
    size_t j = 0;
    while (j < d && p[j] < s[j]) ++j;
    if (j == d && ++found == k_) return true;
  }
  return false;
}

Status TopKMaintainer::Insert(int id, const Point& p,
                              std::vector<TopKDelta>* deltas) {
  // Validate before the index scan: FindReached dots `p` against dim_-sized
  // utilities, so a short point would read out of bounds.
  if (static_cast<int>(p.size()) != dim_) {
    return Status::Invalid("point dimension mismatch");
  }
  // k members of C dominate `p`, so it reaches no utility and the scan
  // would change nothing: only the kd-tree learns of it.
  if (CoverDominates(p)) {
#ifndef NDEBUG
    for (int u = 0; u < num_utilities(); ++u) {
      FDRMS_CHECK(Dot(utilities_[static_cast<size_t>(u)], p) <
                  ThresholdFor(u))
          << "dominated tuple " << id << " reaches utility " << u;
    }
#endif
    FDRMS_RETURN_NOT_OK(tree_.Insert(id, p));
    ++insert_scan_skips_;
    return Status::OK();
  }
  // One scan of the utility index finds the utilities whose admission
  // threshold `p` reaches, with their scores; all Φ and top-k changes are
  // confined to those.
  cone_.FindReached(p, &reached_scratch_, &reached_score_scratch_);
  FDRMS_RETURN_NOT_OK(tree_.Insert(id, p));
  // Pass 1: update each reached utility's exact top-k and admit `id`.
  raised_.clear();
  for (size_t ai = 0; ai < reached_scratch_.size(); ++ai) {
    const int u = reached_scratch_[ai];
    const double score = reached_score_scratch_[ai];
    double old_tau = ThresholdFor(u);
    // The index compared against the last τ pushed to it; the current bar
    // decides.
    if (score < old_tau) continue;
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
    if (new_tau > old_tau) raised_.push_back(u);
  }
  // Pass 2: where the admission bar rose, evict the members below it.
  for (int u : raised_) {
    const double tau = ThresholdFor(u);
    EvictBelow(u, tau, id, deltas);
    cone_.SetThreshold(u, tau);
  }
  return Status::OK();
}

void TopKMaintainer::EvictBelow(int u, double tau, int id,
                                std::vector<TopKDelta>* deltas) {
  // One gather-kernel call scores Φ(u) against the tree's point slab. The
  // members are gathered in link order, so a member's index is its link
  // position and the evictions are removed by position, not by lookup.
  const SetSystem::KeyRange members = ApproxTopK(u);
  member_scratch_.assign(members.begin(), members.end());
  member_score_scratch_.resize(member_scratch_.size());
  tree_.ScoreIds(utilities_[u].data(), member_scratch_,
                 member_score_scratch_.data());
  evicted_scratch_.clear();
  for (size_t at = 0; at < member_scratch_.size(); ++at) {
    if (member_scratch_[at] != id && member_score_scratch_[at] < tau) {
      evicted_scratch_.emplace_back(member_scratch_[at], static_cast<int>(at));
    }
  }
  if (evicted_scratch_.empty()) return;
  // σ by σ in ascending id order, so the cover sees a sequence that depends
  // only on the Φ sets' contents. Each removal moves u's last link into the
  // freed position; pending_at_ maps a position to the pending eviction it
  // holds, so a moved eviction is followed to its new position.
  std::sort(evicted_scratch_.begin(), evicted_scratch_.end());
  pending_at_.assign(member_scratch_.size(), -1);
  for (size_t i = 0; i < evicted_scratch_.size(); ++i) {
    pending_at_[static_cast<size_t>(evicted_scratch_[i].second)] =
        static_cast<int>(i);
  }
  for (const auto& [member, at] : evicted_scratch_) {
    const int last = static_cast<int>(ApproxTopK(u).size()) - 1;
    cover_.RemoveMembershipAt(u, at);
    if (deltas != nullptr) deltas->push_back({u, member, /*added=*/false});
    if (at == last) continue;
    const int moved = pending_at_[static_cast<size_t>(last)];
    pending_at_[static_cast<size_t>(at)] = moved;
    if (moved >= 0) evicted_scratch_[static_cast<size_t>(moved)].second = at;
  }
}

Status TopKMaintainer::Delete(int id, std::vector<TopKDelta>* deltas) {
  if (!tree_.Contains(id)) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not present");
  }
  // Only utilities whose Φ set contains `id` can change (S(p) in the
  // paper). Read them back ascending from a bit mark.
  affected_scratch_.clear();
  int lo = num_utilities();
  int hi = -1;
  for (int u : MemberOf(id)) {
    affected_mark_[static_cast<size_t>(u) / 64] |= uint64_t{1} << (u % 64);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  for (int w = lo / 64; hi >= 0 && w <= hi / 64; ++w) {
    uint64_t bits = affected_mark_[static_cast<size_t>(w)];
    affected_mark_[static_cast<size_t>(w)] = 0;
    for (; bits != 0; bits &= bits - 1) {
      affected_scratch_.push_back(w * 64 + std::countr_zero(bits));
    }
  }
  FDRMS_RETURN_NOT_OK(tree_.Delete(id));

  // Re-rank every utility whose exact top-k held `id`. The surviving
  // members all score >= the old τ and every non-member scores below it
  // (see the header), so with at least k survivors the k best of them are
  // the new exact top-k: one gather over Φ replaces the kd-tree search.
  rebuilt_.clear();
  rebuilt_tau_.clear();
  rebuilt_old_tau_.clear();
  for (int u : affected_scratch_) {
    auto& list = topk_[u];
    if (std::none_of(list.begin(), list.end(),
                     [&](const ScoredId& s) { return s.id == id; })) {
      continue;  // only the approx tail changes
    }
    rebuilt_old_tau_.push_back(ThresholdFor(u));
    const Point& utility = utilities_[u];
    member_scratch_.clear();
    for (int member : ApproxTopK(u)) {
      if (member != id) member_scratch_.push_back(member);
    }
    if (static_cast<int>(member_scratch_.size()) >= k_) {
      member_score_scratch_.resize(member_scratch_.size());
      tree_.ScoreIds(utility.data(), member_scratch_,
                     member_score_scratch_.data());
      ranked_scratch_.resize(member_scratch_.size());
      for (size_t i = 0; i < member_scratch_.size(); ++i) {
        ranked_scratch_[i] = {member_score_scratch_[i], member_scratch_[i]};
      }
      std::partial_sort(ranked_scratch_.begin(), ranked_scratch_.begin() + k_,
                        ranked_scratch_.end(), BetterScore);
      list.assign(ranked_scratch_.begin(), ranked_scratch_.begin() + k_);
    } else {
      list = tree_.TopK(utility, k_);
    }
    rebuilt_.push_back(u);
    rebuilt_tau_.push_back(ThresholdFor(u));
  }
  // ω_k only decreases on deletion, so the members stay eligible and the
  // entrants are the tuples scoring in [new τ, old τ): by the invariant,
  // exactly the non-members at or above the new τ. One kd-tree walk finds
  // them for every re-ranked utility.
  const ScoreMatrix& rows = cone_.utility_rows();
  tree_.ScoreRanges(rows.row(0), rows.stride(), rebuilt_.data(),
                    rebuilt_tau_.data(), rebuilt_old_tau_.data(),
                    rebuilt_.size(), &ranges_scratch_);
  // Per utility, ascending: its removal, then its entrants best first.
  size_t g = 0;
  for (int u : affected_scratch_) {
    if (deltas != nullptr) deltas->push_back({u, id, /*added=*/false});
    if (g == rebuilt_.size() || rebuilt_[g] != u) continue;
    for (const ScoredId& s : ranges_scratch_[g]) EmitAdd(u, s.id, deltas);
    cone_.SetThreshold(u, rebuilt_tau_[g]);
    ++g;
  }
  // Last, `id` leaves Φ: S(p) is removed from the cover.
  cover_.RemoveSet(id);
  return Status::OK();
}

Status TopKMaintainer::ValidateAgainstBruteForce() const {
  FDRMS_RETURN_NOT_OK(tree_.CheckInvariants());
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
    std::vector<int> expected;
    for (const ScoredId& s : all) {
      if (s.score >= tau) expected.push_back(s.id);
    }
    std::sort(expected.begin(), expected.end());
    const SetSystem::KeyRange phi = ApproxTopK(static_cast<int>(u));
    std::vector<int> maintained(phi.begin(), phi.end());
    std::sort(maintained.begin(), maintained.end());
    if (expected != maintained) {
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
