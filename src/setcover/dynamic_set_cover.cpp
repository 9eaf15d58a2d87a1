#include "setcover/dynamic_set_cover.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <tuple>

#include "common/check.h"

namespace fdrms {

DynamicSetCover::DynamicSetCover(int element_capacity)
    : system_(element_capacity),
      levels_(std::max(1, static_cast<int>(std::bit_width(
                              static_cast<unsigned>(element_capacity))))),
      phi_(element_capacity, -1),
      elem_level_(element_capacity, -1),
      cov_pos_(element_capacity, -1),
      in_universe_(element_capacity, false) {}

int DynamicSetCover::LevelForSize(int size) const {
  FDRMS_DCHECK(size >= 1);
  int level = 0;
  while ((2LL << level) <= size) ++level;  // largest j with 2^j <= size
  FDRMS_DCHECK(level < levels_);
  return level;
}

std::vector<int> DynamicSetCover::CoverSetIds() const {
  std::vector<int> ids;
  ids.reserve(cover_slots_.size());
  for (int slot : cover_slots_) ids.push_back(system_.SetIdOf(slot));
  std::sort(ids.begin(), ids.end());
  return ids;
}

int DynamicSetCover::LevelOf(int set_id) const {
  const int slot = system_.SlotOf(set_id);
  return slot < 0 ? -1 : level_[static_cast<size_t>(slot)];
}

const std::vector<int>& DynamicSetCover::CoverSetOf(int set_id) const {
  static const std::vector<int> empty;
  const int slot = system_.SlotOf(set_id);
  return slot < 0 ? empty : cov_[static_cast<size_t>(slot)];
}

void DynamicSetCover::GrowSlots() {
  const size_t n = static_cast<size_t>(system_.slot_capacity());
  if (level_.size() >= n) return;
  cov_.resize(n);
  level_.resize(n, -1);
  cover_pos_.resize(n, -1);
  counts_.resize(n * levels_, 0);
}

void DynamicSetCover::CovInsert(int slot, int element) {
  std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
  cov_pos_[static_cast<size_t>(element)] = static_cast<int>(cov.size());
  cov.push_back(element);
}

void DynamicSetCover::CovErase(int slot, int element) {
  std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
  const int at = cov_pos_[static_cast<size_t>(element)];
  FDRMS_DCHECK(cov[static_cast<size_t>(at)] == element);
  const int last = cov.back();
  cov[static_cast<size_t>(at)] = last;
  cov_pos_[static_cast<size_t>(last)] = at;
  cov.pop_back();
}

void DynamicSetCover::JoinCover(int slot) {
  ++cover_version_;
  cover_pos_[static_cast<size_t>(slot)] = static_cast<int>(cover_slots_.size());
  cover_slots_.push_back(slot);
}

void DynamicSetCover::LeaveCover(int slot) {
  ++cover_version_;
  const int at = cover_pos_[static_cast<size_t>(slot)];
  const int last = cover_slots_.back();
  cover_slots_[static_cast<size_t>(at)] = last;
  cover_pos_[static_cast<size_t>(last)] = at;
  cover_slots_.pop_back();
  cover_pos_[static_cast<size_t>(slot)] = -1;
  level_[static_cast<size_t>(slot)] = -1;
}

void DynamicSetCover::BumpCount(int slot, int level, int delta) {
  int& count = CountsRow(slot)[level];
  count += delta;
  FDRMS_DCHECK(count >= 0);
  // Condition (2) violation candidate: |S ∩ A_j| >= 2^{j+1}.
  if (delta > 0 && count >= (2LL << level)) {
    violations_.emplace_back(system_.SetIdOf(slot), level);
    std::push_heap(violations_.begin(), violations_.end(), std::greater<>());
  }
}

void DynamicSetCover::UpdateCounts(int element, int old_level, int new_level) {
  if (old_level == new_level) return;
  for (const SetSystem::Link& link : system_.ElementLinks(element)) {
    if (old_level >= 0) BumpCount(link.other, old_level, -1);
    if (new_level >= 0) BumpCount(link.other, new_level, +1);
  }
  elem_level_[static_cast<size_t>(element)] = new_level;
}

void DynamicSetCover::Assign(int element, int slot) {
  FDRMS_DCHECK(phi_[element] < 0);
  FDRMS_DCHECK(in_universe_[element]);
  FDRMS_DCHECK(system_.Contains(element, system_.SetIdOf(slot)));
  const bool joins = level_[static_cast<size_t>(slot)] < 0;
  if (joins) JoinCover(slot);
  CovInsert(slot, element);
  phi_[static_cast<size_t>(element)] = slot;
  // New solution sets enter at the level of their singleton cov; Relevel
  // fixes growth.
  if (joins) level_[static_cast<size_t>(slot)] = LevelForSize(1);
  UpdateCounts(element, -1, level_[static_cast<size_t>(slot)]);
  Relevel(slot);
}

void DynamicSetCover::Unassign(int element) {
  const int slot = phi_[static_cast<size_t>(element)];
  if (slot < 0) return;
  CovErase(slot, element);
  phi_[static_cast<size_t>(element)] = -1;
  UpdateCounts(element, elem_level_[static_cast<size_t>(element)], -1);
  Relevel(slot);
}

void DynamicSetCover::Relevel(int slot) {
  const int old_level = level_[static_cast<size_t>(slot)];
  if (old_level < 0) return;
  const std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
  if (cov.empty()) {
    LeaveCover(slot);
    return;
  }
  const int correct = LevelForSize(static_cast<int>(cov.size()));
  if (correct == old_level) return;
  level_[static_cast<size_t>(slot)] = correct;
  // Every cov member moves to the new level in the count caches.
  for (int element : cov) UpdateCounts(element, old_level, correct);
}

void DynamicSetCover::Reassign(int element) {
  FDRMS_DCHECK(in_universe_[element]);
  FDRMS_DCHECK(phi_[element] < 0);
  // Prefer an existing solution set at the highest level (keeps C small);
  // fall back to opening a containing set. Ties go to the smallest set id,
  // so the choice depends only on the incidence, not on its storage order.
  int best = -1;
  int best_id = 0;
  int best_level = -1;
  for (const SetSystem::Link& link : system_.ElementLinks(element)) {
    const int level = level_[static_cast<size_t>(link.other)];
    const int id = system_.SetIdOf(link.other);
    if (best < 0 || level > best_level ||
        (level == best_level && id < best_id)) {
      best = link.other;
      best_id = id;
      best_level = level;
    }
  }
  if (best < 0) return;  // uncovered until a membership arrives
  Assign(element, best);
}

void DynamicSetCover::InitializeGreedy(
    const std::vector<int>& universe_elements) {
  // Reset all solution state (incidence is kept).
  ++cover_version_;
  phi_.assign(phi_.size(), -1);
  elem_level_.assign(elem_level_.size(), -1);
  in_universe_.assign(in_universe_.size(), false);
  for (int slot : cover_slots_) {
    cov_[static_cast<size_t>(slot)].clear();
    level_[static_cast<size_t>(slot)] = -1;
    cover_pos_[static_cast<size_t>(slot)] = -1;
  }
  cover_slots_.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
  violations_.clear();
  universe_size_ = 0;
  for (int e : universe_elements) {
    FDRMS_CHECK(e >= 0 && e < system_.element_capacity());
    if (!in_universe_[e]) {
      in_universe_[e] = true;
      ++universe_size_;
    }
  }
  // Classic greedy with lazily re-evaluated gains (gains only shrink). The
  // max-heap orders by (gain, set id); the slot rides along.
  std::vector<std::tuple<int, int, int>> heap;
  for (int slot = 0; slot < system_.slot_capacity(); ++slot) {
    int g = 0;
    for (const SetSystem::Link& link : system_.SlotLinks(slot)) {
      if (in_universe_[link.other]) ++g;
    }
    if (g > 0) heap.emplace_back(g, system_.SetIdOf(slot), slot);
  }
  std::make_heap(heap.begin(), heap.end());
  int uncovered = universe_size_;
  while (uncovered > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    auto [g, set_id, slot] = heap.back();
    heap.pop_back();
    // Re-count the true gain; push back if stale.
    int true_gain = 0;
    for (const SetSystem::Link& link : system_.SlotLinks(slot)) {
      if (in_universe_[link.other] && phi_[link.other] < 0) ++true_gain;
    }
    if (true_gain == 0) continue;
    if (true_gain < g && !heap.empty() &&
        std::get<0>(heap.front()) > true_gain) {
      heap.emplace_back(true_gain, set_id, slot);
      std::push_heap(heap.begin(), heap.end());
      continue;
    }
    // Take the set: cov(S*) = uncovered ∩ S*.
    JoinCover(slot);
    for (const SetSystem::Link& link : system_.SlotLinks(slot)) {
      if (in_universe_[link.other] && phi_[link.other] < 0) {
        CovInsert(slot, link.other);
        phi_[static_cast<size_t>(link.other)] = slot;
      }
    }
    const std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
    const int level = LevelForSize(static_cast<int>(cov.size()));
    level_[static_cast<size_t>(slot)] = level;
    for (int e : cov) UpdateCounts(e, -1, level);
    uncovered -= static_cast<int>(cov.size());
  }
  // Greedy output is provably stable (Lemma 1), but the count caches may
  // already reveal violations if ties were broken adversarially; draining
  // the queue here is a no-op in the common case and keeps the invariant
  // unconditional.
  Stabilize();
}

void DynamicSetCover::AddMembership(int element, int set_id) {
  if (system_.Contains(element, set_id)) return;
  AddNewMembership(element, set_id);
}

void DynamicSetCover::AddNewMembership(int element, int set_id) {
  const int slot = system_.AppendMembership(element, set_id);
  GrowSlots();
  if (in_universe_[element]) {
    if (phi_[element] < 0) {
      // A previously uncoverable universe element becomes coverable.
      Assign(element, slot);
    } else if (elem_level_[element] >= 0) {
      BumpCount(slot, elem_level_[element], +1);
    }
  }
  Stabilize();
}

void DynamicSetCover::RemoveMembership(int element, int set_id) {
  // The slot stays valid for this call's own bookkeeping even if the set
  // empties and gives it up: nothing acquires a slot before we return.
  const int slot = system_.SlotOf(set_id);
  if (slot < 0 || !system_.RemoveMembership(element, set_id)) return;
  AfterRemoval(element, slot);
}

void DynamicSetCover::RemoveMembershipAt(int element, int at) {
  const int slot =
      system_.ElementLinks(element)[static_cast<size_t>(at)].other;
  system_.RemoveElementLinkAt(element, at);
  AfterRemoval(element, slot);
}

void DynamicSetCover::AfterRemoval(int element, int slot) {
  if (in_universe_[element]) {
    // The departing element no longer counts toward |S ∩ A_j| for this set;
    // the system no longer lists the membership, so Unassign below will not
    // touch this set's counts. A set that emptied is left with a zero row.
    if (elem_level_[element] >= 0) {
      BumpCount(slot, elem_level_[element], -1);
    }
    if (phi_[element] == slot) {
      // Case σ = (u, S, -) with u ∈ cov(S): move u to another set
      // containing it (Lines 2-5).
      Unassign(element);
      Reassign(element);
    }
  }
  Stabilize();
}

void DynamicSetCover::AddToUniverse(int element) {
  if (in_universe_[element]) return;
  in_universe_[element] = true;
  ++universe_size_;
  Reassign(element);  // Lines 6-8
  Stabilize();
}

void DynamicSetCover::RemoveFromUniverse(int element) {
  if (!in_universe_[element]) return;
  Unassign(element);  // Lines 9-11
  in_universe_[element] = false;
  --universe_size_;
  Stabilize();
}

void DynamicSetCover::RemoveSet(int set_id) {
  const int slot = system_.SlotOf(set_id);
  if (slot < 0) return;  // no memberships, so not in C either
  if (level_[static_cast<size_t>(slot)] < 0) {
    // Outside C the σ-by-σ removals reduce to dropping the set (see the
    // header): none reassigns, and none queues a violation.
    system_.RemoveSet(set_id);
    std::fill_n(CountsRow(slot), levels_, 0);
    return;
  }
  // In C: σ = (u, S, -) for each member u, ascending. A removal moves only
  // u's own links and S's, so every other member keeps its link position.
  remove_scratch_.clear();
  for (const SetSystem::Link& link : system_.SlotLinks(slot)) {
    remove_scratch_.emplace_back(link.other, link.mirror);
  }
  std::sort(remove_scratch_.begin(), remove_scratch_.end());
  for (const auto& [element, at] : remove_scratch_) {
    RemoveMembershipAt(element, at);
  }
}

void DynamicSetCover::Stabilize() {
  // Always fix the smallest violated (set id, level) key first. Every
  // violated key is queued (a count only crosses its bound on an
  // increment), and stale entries are skipped, so the order depends only on
  // the state.
  while (!violations_.empty()) {
    std::pop_heap(violations_.begin(), violations_.end(), std::greater<>());
    const auto [set_id, level] = violations_.back();
    violations_.pop_back();
    const int slot = system_.SlotOf(set_id);
    if (slot < 0 || CountsRow(slot)[level] < (2LL << level)) {
      continue;  // stale entry
    }
    // cov(S) ← cov(S) ∪ (S ∩ A_j): steal every element of S assigned at
    // this level (Lines 29-32).
    steal_scratch_.clear();
    for (const SetSystem::Link& link : system_.SlotLinks(slot)) {
      const int e = link.other;
      if (in_universe_[e] && elem_level_[e] == level && phi_[e] != slot) {
        steal_scratch_.push_back(e);
      }
    }
    if (steal_scratch_.empty()) {
      // All counted elements already belong to this set; Relevel keeps the
      // level consistent and the violation is vacuous.
      Relevel(slot);
      continue;
    }
    const bool was_in_cover = level_[static_cast<size_t>(slot)] >= 0;
    if (!was_in_cover) JoinCover(slot);
    donor_scratch_.clear();
    for (int e : steal_scratch_) {
      const int donor = phi_[static_cast<size_t>(e)];
      donor_scratch_.emplace_back(system_.SetIdOf(donor), donor);
      CovErase(donor, e);
      phi_[static_cast<size_t>(e)] = slot;
      CovInsert(slot, e);
    }
    const std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
    const int correct = LevelForSize(static_cast<int>(cov.size()));
    if (!was_in_cover) {
      level_[static_cast<size_t>(slot)] = correct;
      for (int e : cov) UpdateCounts(e, elem_level_[e], correct);
    } else {
      const int old_level = level_[static_cast<size_t>(slot)];
      level_[static_cast<size_t>(slot)] = correct;
      // Stolen elements move from `level` to `correct`; incumbent cov
      // members move only if the set releveled.
      for (int e : steal_scratch_) UpdateCounts(e, level, correct);
      if (correct != old_level) {
        for (int e : cov) {
          if (elem_level_[e] != correct) UpdateCounts(e, elem_level_[e], correct);
        }
      }
    }
    // Donors relevel in ascending set id order.
    std::sort(donor_scratch_.begin(), donor_scratch_.end());
    donor_scratch_.erase(
        std::unique(donor_scratch_.begin(), donor_scratch_.end()),
        donor_scratch_.end());
    for (const auto& [donor_id, donor] : donor_scratch_) Relevel(donor);
  }
}

Status DynamicSetCover::CheckInvariants() const {
  // 1. Assignment <-> cov consistency; levels within range (Condition 1).
  int assigned = 0;
  for (int e = 0; e < system_.element_capacity(); ++e) {
    const int slot = phi_[static_cast<size_t>(e)];
    if (slot < 0) continue;
    if (!in_universe_[e]) return Status::Internal("assigned non-universe element");
    if (slot >= static_cast<int>(level_.size()) ||
        level_[static_cast<size_t>(slot)] < 0) {
      return Status::Internal("phi points outside C");
    }
    const std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
    const int at = cov_pos_[static_cast<size_t>(e)];
    if (at < 0 || at >= static_cast<int>(cov.size()) ||
        cov[static_cast<size_t>(at)] != e) {
      return Status::Internal("phi(e) does not list e in cov");
    }
    if (!system_.Contains(e, system_.SetIdOf(slot))) {
      return Status::Internal("element assigned to set not containing it");
    }
    if (elem_level_[static_cast<size_t>(e)] !=
        level_[static_cast<size_t>(slot)]) {
      return Status::Internal("elem_level cache stale");
    }
    ++assigned;
  }
  size_t cov_total = 0;
  for (size_t i = 0; i < cover_slots_.size(); ++i) {
    const int slot = cover_slots_[i];
    if (cover_pos_[static_cast<size_t>(slot)] != static_cast<int>(i)) {
      return Status::Internal("cover slot list out of sync");
    }
    const std::vector<int>& cov = cov_[static_cast<size_t>(slot)];
    if (cov.empty()) return Status::Internal("empty set kept in C");
    cov_total += cov.size();
    if (level_[static_cast<size_t>(slot)] !=
        LevelForSize(static_cast<int>(cov.size()))) {
      return Status::Internal("level range violated for set " +
                              std::to_string(system_.SetIdOf(slot)));
    }
    for (int e : cov) {
      if (phi_[static_cast<size_t>(e)] != slot) {
        return Status::Internal("cov lists foreign element");
      }
    }
  }
  if (static_cast<int>(cov_total) != assigned) {
    return Status::Internal("cover sets are not disjoint");
  }
  // 2. Stability Condition 2 and count-cache correctness, by brute force.
  // A free slot (no links) must hold no cover state and a zero row.
  std::vector<int> true_counts(levels_);
  for (int slot = 0; slot < system_.slot_capacity(); ++slot) {
    const auto& links = system_.SlotLinks(slot);
    std::fill(true_counts.begin(), true_counts.end(), 0);
    for (const SetSystem::Link& link : links) {
      const int e = link.other;
      if (in_universe_[e] && elem_level_[e] >= 0) ++true_counts[elem_level_[e]];
    }
    const bool in_cover = level_[static_cast<size_t>(slot)] >= 0;
    if (in_cover != (cover_pos_[static_cast<size_t>(slot)] >= 0) ||
        (!in_cover && !cov_[static_cast<size_t>(slot)].empty())) {
      return Status::Internal("cover state of slot " + std::to_string(slot) +
                              " inconsistent");
    }
    auto set_name = [&] {
      return links.empty() ? "free slot " + std::to_string(slot)
                           : "set " + std::to_string(system_.SetIdOf(slot));
    };
    const int* row = CountsRow(slot);
    for (int j = 0; j < levels_; ++j) {
      if (row[j] != true_counts[static_cast<size_t>(j)]) {
        return Status::Internal("count cache mismatch for " + set_name());
      }
      if (true_counts[static_cast<size_t>(j)] >= (2LL << j)) {
        return Status::Internal("stability Condition 2 violated: " +
                                set_name() + " level " + std::to_string(j));
      }
    }
  }
  // 3. Coverage: every universe element contained in some set is assigned.
  for (int e = 0; e < system_.element_capacity(); ++e) {
    if (in_universe_[e] && phi_[static_cast<size_t>(e)] < 0 &&
        !system_.ElementLinks(e).empty()) {
      return Status::Internal("coverable universe element left unassigned");
    }
  }
  return Status::OK();
}

}  // namespace fdrms
