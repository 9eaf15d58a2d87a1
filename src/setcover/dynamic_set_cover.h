#ifndef FDRMS_SETCOVER_DYNAMIC_SET_COVER_H_
#define FDRMS_SETCOVER_DYNAMIC_SET_COVER_H_

/// \file dynamic_set_cover.h
/// The paper's dynamic set cover with *stable solutions* (Section III-A,
/// Algorithm 1).
///
/// A solution C assigns every universe element u to one covering set
/// φ(u) ∈ C; cov(S) = φ^{-1}(S). Sets in C live in levels L_j with
/// 2^j <= |cov(S)| < 2^{j+1}. C is stable (Definition 2) when additionally
/// no set S of the system could grab >= 2^{j+1} elements currently assigned
/// at level j. Theorem 1: any stable solution is O(log m)-approximate.
///
/// This implementation keeps, for every set S and level j, the count
/// |S ∩ A_j| incrementally; STABILIZE drains a queue of candidate
/// violations instead of rescanning all sets, giving the same fixpoint as
/// the paper's Lines 28-32 in time proportional to actual churn. It fixes
/// the smallest violated (set id, level) key first.
///
/// Per-set state lives in flat arrays indexed by the set's slot in the
/// SetSystem: a row of level counts, the level, and cov(S) as a vector
/// with each element's position in it, so cov insert and erase are O(1).
/// |cov(S)| never exceeds the element capacity M, so a row holds
/// floor(log2 M) + 1 levels (12 at M = 2048).
/// Every choice the algorithm makes (the covering set Reassign picks, the
/// order of violations, donors and orphans) is a function of the set ids
/// and the incidence, never of slot numbers or list order, so equal inputs
/// give equal solutions however the incidence was built.
///
/// All set-system mutations flow through this class so the counts stay
/// consistent: AddMembership / AddNewMembership / RemoveMembership /
/// RemoveMembershipAt (σ = (u, S, ±)), AddToUniverse / RemoveFromUniverse
/// (σ = (u, U, ±)), RemoveSet. FD-RMS keeps its one Φ incidence here: the
/// top-k maintainer writes every Φ change through these σ calls, and with
/// an empty universe (a standalone maintainer) the cover is inert, so it
/// assigns nothing and queues nothing.
///
/// σ = (u, S, +) has two entry points. AddNewMembership is for exact
/// deltas, where the caller knows u ∉ S: it appends the membership without
/// searching the incidence. AddMembership is the idempotent form: it checks
/// the incidence first and ignores a membership that already exists, then
/// defers to AddNewMembership. σ = (u, S, -) likewise comes searched
/// (RemoveMembership) or by link position (RemoveMembershipAt).
///
/// RemoveSet(S) is exactly the σ = (u, S, -) removals for u ∈ S in
/// ascending element order. For S outside C it drops S in one pass instead,
/// which leaves the same state: no element is assigned to S, so no removal
/// reassigns, and a removal only lowers S's level counts, which queues no
/// violation (a public call returns with the queue drained).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "setcover/set_system.h"

namespace fdrms {

/// Dynamic, stability-maintaining set cover over a SetSystem it owns.
class DynamicSetCover {
 public:
  /// No element is initially in the universe.
  explicit DynamicSetCover(int element_capacity);

  /// Rebuilds the solution from scratch with the level-annotated greedy
  /// (Algorithm 1, GREEDY) over the current incidence, with the universe
  /// set to exactly `universe_elements`. Elements outside any set remain
  /// uncovered (allowed; FD-RMS only presents coverable elements).
  void InitializeGreedy(const std::vector<int>& universe_elements);

  // ---- σ operations (each restores stability before returning) ----

  /// σ = (u, S, +); a no-op if `element` is already in the set.
  void AddMembership(int element, int set_id);
  /// σ = (u, S, +) for a membership that must not exist yet (checked in
  /// debug builds only); skips AddMembership's incidence search.
  void AddNewMembership(int element, int set_id);
  /// σ = (u, S, -); a no-op if `element` is not in the set.
  void RemoveMembership(int element, int set_id);
  /// σ = (u, S, -) for the membership at index `at` of ElementLinks(u),
  /// without searching. u's last link moves into `at`.
  void RemoveMembershipAt(int element, int at);
  /// σ = (u, U, +): element joins the universe and gets assigned.
  void AddToUniverse(int element);
  /// σ = (u, U, -).
  void RemoveFromUniverse(int element);
  /// Removes a set entirely (a deleted tuple): σ = (u, S, -) for each of
  /// its members, ascending (one pass when S is outside C).
  void RemoveSet(int set_id);

  // ---- solution inspection ----

  /// Number of sets in the solution C.
  int CoverSize() const { return static_cast<int>(cover_slots_.size()); }
  /// Set ids (tuple ids) forming C, ascending.
  std::vector<int> CoverSetIds() const;
  /// Moves whenever a set joins or leaves C or InitializeGreedy resets the
  /// solution, so a cache derived from C's members is current while the
  /// value it was built at is.
  uint64_t cover_version() const { return cover_version_; }
  bool InUniverse(int element) const { return in_universe_[element]; }
  int UniverseSize() const { return universe_size_; }
  /// Assigned set of `element` (kUnassigned if uncovered / not in universe).
  int AssignmentOf(int element) const {
    const int slot = phi_[static_cast<size_t>(element)];
    return slot < 0 ? kUnassigned : system_.SetIdOf(slot);
  }
  /// Level of a solution set, -1 if not in C.
  int LevelOf(int set_id) const;
  /// cov(S), in unspecified order; empty if not in C.
  const std::vector<int>& CoverSetOf(int set_id) const;

  const SetSystem& system() const { return system_; }

  /// Verifies every invariant (assignment/cov consistency, level ranges,
  /// stability Condition 2, count-cache correctness). Test/debug hook.
  Status CheckInvariants() const;

  static constexpr int kUnassigned = -1;

 private:
  int LevelForSize(int size) const;

  /// Sizes the per-slot arrays to the system's slot capacity.
  void GrowSlots();
  int* CountsRow(int slot) {
    return counts_.data() + static_cast<size_t>(slot) * levels_;
  }
  const int* CountsRow(int slot) const {
    return counts_.data() + static_cast<size_t>(slot) * levels_;
  }
  /// cov(slot) += element / -= element, O(1).
  void CovInsert(int slot, int element);
  void CovErase(int slot, int element);
  /// Enters / leaves C (the level is set by the caller).
  void JoinCover(int slot);
  void LeaveCover(int slot);

  /// Makes `element` assigned to `slot` (whose set must contain it),
  /// updating cov, counts, and levels. `element` must be currently
  /// unassigned.
  void Assign(int element, int slot);
  /// Clears the assignment of `element` (updating its donor set), without
  /// reassigning.
  void Unassign(int element);
  /// Re-derives the level of `slot` from |cov|; drops empty sets from C
  /// (RELEVEL in Algorithm 1).
  void Relevel(int slot);
  /// Picks a covering set for an unassigned universe element: a set already
  /// in C containing it if any (highest level wins), else any containing
  /// set, else leaves it uncovered; ties go to the smallest set id.
  void Reassign(int element);
  /// Count-cache maintenance for one element changing level (old_level or
  /// new_level may be -1 meaning "not counted").
  void UpdateCounts(int element, int old_level, int new_level);
  void BumpCount(int slot, int level, int delta);
  /// The rest of σ = (u, S, -) once the membership is unlinked: counts,
  /// reassignment of u if S covered it (Lines 2-5), and Stabilize. `slot`
  /// is S's former slot.
  void AfterRemoval(int element, int slot);
  /// Drains the violation queue (STABILIZE, Lines 28-32).
  void Stabilize();

  SetSystem system_;
  // Levels a set can reach: floor(log2 element_capacity) + 1.
  int levels_;
  // Per element.
  std::vector<int> phi_;         // slot of φ(e), -1 if unassigned
  std::vector<int> elem_level_;  // level of φ(e), -1 if unassigned
  std::vector<int> cov_pos_;     // index of e in cov(φ(e))
  std::vector<bool> in_universe_;
  int universe_size_ = 0;
  // Per slot.
  std::vector<std::vector<int>> cov_;
  std::vector<int> level_;      // -1 if not in C
  std::vector<int> cover_pos_;  // index in cover_slots_, -1 if not in C
  // counts_[slot * levels_ + j] = |S ∩ A_j| over assigned universe
  // elements. A free slot's row is all zero.
  std::vector<int> counts_;
  std::vector<int> cover_slots_;  // the slots of C
  uint64_t cover_version_ = 0;
  // (set id, level) keys to re-check, a min-heap.
  std::vector<std::pair<int, int>> violations_;
  // Stabilize's scratch.
  std::vector<int> steal_scratch_;
  std::vector<std::pair<int, int>> donor_scratch_;  // (set id, slot)
  // RemoveSet's scratch: (element, link position) of each member.
  std::vector<std::pair<int, int>> remove_scratch_;
};

}  // namespace fdrms

#endif  // FDRMS_SETCOVER_DYNAMIC_SET_COVER_H_
