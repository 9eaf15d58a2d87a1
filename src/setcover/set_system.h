#ifndef FDRMS_SETCOVER_SET_SYSTEM_H_
#define FDRMS_SETCOVER_SET_SYSTEM_H_

/// \file set_system.h
/// The set system Σ = (U, S) of Section III: elements are indices of
/// sampled utility vectors, sets are keyed by tuple id, and S(p) contains
/// the utilities for which tuple p is an ε-approximate top-k result.
/// Incidence is stored bidirectionally so both S(p) and "sets containing
/// u" are O(1) to enumerate.

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace fdrms {

/// Bidirectional element<->set incidence. Elements are dense ints in
/// [0, capacity); set keys are arbitrary ints (tuple ids).
class SetSystem {
 public:
  explicit SetSystem(int element_capacity)
      : sets_of_(element_capacity) {}

  int element_capacity() const { return static_cast<int>(sets_of_.size()); }

  /// True if the membership was new.
  bool AddMembership(int element, int set_id) {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    bool inserted = elements_of_[set_id].insert(element).second;
    if (inserted) sets_of_[element].insert(set_id);
    return inserted;
  }

  /// True if the membership existed.
  bool RemoveMembership(int element, int set_id) {
    auto it = elements_of_.find(set_id);
    if (it == elements_of_.end()) return false;
    if (it->second.erase(element) == 0) return false;
    if (it->second.empty()) elements_of_.erase(it);
    sets_of_[element].erase(set_id);
    return true;
  }

  bool Contains(int element, int set_id) const {
    auto it = elements_of_.find(set_id);
    return it != elements_of_.end() && it->second.count(element) > 0;
  }

  /// Elements of S(set_id); empty set if unknown.
  const std::unordered_set<int>& ElementsOf(int set_id) const {
    static const std::unordered_set<int> empty;
    auto it = elements_of_.find(set_id);
    return it == elements_of_.end() ? empty : it->second;
  }

  /// Sets containing `element`.
  const std::unordered_set<int>& SetsContaining(int element) const {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    return sets_of_[element];
  }

  /// Ids of all nonempty sets.
  std::vector<int> NonEmptySetIds() const {
    std::vector<int> ids;
    ids.reserve(elements_of_.size());
    for (const auto& [id, _] : elements_of_) ids.push_back(id);
    return ids;
  }

  size_t num_sets() const { return elements_of_.size(); }

 private:
  std::unordered_map<int, std::unordered_set<int>> elements_of_;
  std::vector<std::unordered_set<int>> sets_of_;
};

}  // namespace fdrms

#endif  // FDRMS_SETCOVER_SET_SYSTEM_H_
