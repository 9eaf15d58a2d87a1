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
      phi_(static_cast<int>(utilities_.size())) {
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

void TopKMaintainer::EmitAdd(int utility, int id,
                             std::vector<TopKDelta>* deltas) {
  // Every caller adds a known non-member (a new tuple, or a delete's
  // entrant), so the membership is appended without a lookup.
  phi_.AppendMembership(utility, id);
  if (deltas != nullptr) deltas->push_back({utility, id, /*added=*/true});
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
      // Each member's link index rides along, so the evictions are
      // removed by position instead of by lookup.
      member_scratch_.clear();
      member_at_scratch_.clear();
      const std::vector<SetSystem::Link>& links = phi_.ElementLinks(u);
      for (size_t at = 0; at < links.size(); ++at) {
        const int member = phi_.SetIdOf(links[at].other);
        if (member == id) continue;
        member_scratch_.push_back(member);
        member_at_scratch_.push_back(static_cast<int>(at));
      }
      member_score_scratch_.resize(member_scratch_.size());
      tree_.ScoreIds(utilities_[u].data(), member_scratch_,
                     member_score_scratch_.data());
      evicted_scratch_.clear();
      size_t kept = 0;
      for (size_t mi = 0; mi < member_scratch_.size(); ++mi) {
        if (member_score_scratch_[mi] < new_tau) {
          evicted_scratch_.push_back(member_scratch_[mi]);
          member_at_scratch_[kept++] = member_at_scratch_[mi];
        }
      }
      // Highest position first: a swap-remove only moves the last link,
      // which is never a lower eviction still to come.
      while (kept > 0) phi_.RemoveElementLinkAt(u, member_at_scratch_[--kept]);
      // Report in ascending id order, so the delta stream is a function of
      // the Φ sets' contents, not of how they are stored.
      if (deltas != nullptr) {
        std::sort(evicted_scratch_.begin(), evicted_scratch_.end());
        for (int member : evicted_scratch_) {
          deltas->push_back({u, member, /*added=*/false});
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
  // Only utilities whose Φ set contains `id` can change (S(p) in the
  // paper). Read them back ascending from a bit mark, then purge `id`
  // from Φ in one call.
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
  phi_.RemoveSet(id);
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
    const SetSystem::KeyRange members = phi_.SetsContaining(u);
    if (static_cast<int>(members.size()) >= k_) {
      member_scratch_.assign(members.begin(), members.end());
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
