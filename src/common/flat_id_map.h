#ifndef FDRMS_COMMON_FLAT_ID_MAP_H_
#define FDRMS_COMMON_FLAT_ID_MAP_H_

/// \file flat_id_map.h
/// Flat maps keyed by tuple id, for the hot paths that index per-tuple
/// state: FlatIdMap (id -> nonnegative int) and IdSlots (id -> dense slot
/// with a free list).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fdrms {

/// Open-addressing map from int id to a nonnegative int value: linear
/// probing over one flat array (Fibonacci-hashed), with backward-shift
/// deletion, so a lookup costs about one cache line instead of a bucket and
/// a node. Any int is a valid key.
class FlatIdMap {
 public:
  int size() const { return size_; }

  /// Value of `id`, or -1 when absent.
  int Find(int id) const {
    if (entries_.empty()) return -1;
    const size_t mask = entries_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const Entry& e = entries_[i];
      if (e.value < 0) return -1;
      if (e.id == id) return e.value;
    }
  }

  /// Maps `id` to `value` (>= 0), inserting `id` if absent.
  void Set(int id, int value) {
    FDRMS_DCHECK(value >= 0);
    // Keep the load factor at most 1/2 so probe runs stay short.
    if (2 * (static_cast<size_t>(size_) + 1) > entries_.size()) Grow();
    const size_t mask = entries_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.value < 0) {
        e = Entry{id, value};
        ++size_;
        return;
      }
      if (e.id == id) {
        e.value = value;
        return;
      }
    }
  }

  /// Removes `id`; returns false when it was absent.
  bool Erase(int id) {
    if (entries_.empty()) return false;
    const size_t mask = entries_.size() - 1;
    size_t hole = Home(id);
    for (;; hole = (hole + 1) & mask) {
      if (entries_[hole].value < 0) return false;
      if (entries_[hole].id == id) break;
    }
    // Backward-shift: pull later entries of the run into the hole when
    // their home does not lie cyclically in (hole, i], so every run stays
    // unbroken.
    for (size_t i = (hole + 1) & mask; entries_[i].value >= 0;
         i = (i + 1) & mask) {
      const size_t home = Home(entries_[i].id);
      const bool stays = hole <= i ? (hole < home && home <= i)
                                   : (hole < home || home <= i);
      if (stays) continue;
      entries_[hole] = entries_[i];
      hole = i;
    }
    entries_[hole].value = -1;
    --size_;
    return true;
  }

 private:
  struct Entry {
    int id;
    int value;  // -1 marks a free entry
  };

  size_t Home(int id) const {
    return (static_cast<uint32_t>(id) * 0x9E3779B9u) >> shift_;
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    entries_.assign(capacity, Entry{0, -1});
    shift_ = 32 - std::countr_zero(capacity);
    size_ = 0;
    for (const Entry& e : old) {
      if (e.value >= 0) Set(e.id, e.value);
    }
  }

  std::vector<Entry> entries_;  // power-of-two size
  int size_ = 0;
  int shift_ = 32;  // 32 - log2(entries_.size())
};

/// Dense slots for sparse ids: an id that Acquire()s gets a slot — a
/// released one first, else the next new one, so slots stay below the
/// peak number of ids held at once — and keeps it until Release().
/// Callers index per-id state by slot in flat arrays.
class IdSlots {
 public:
  /// Slot of `id`, or -1 when it holds none.
  int Find(int id) const { return slot_of_.Find(id); }

  /// Slot of `id`, assigning one when it holds none.
  int Acquire(int id) {
    int slot = slot_of_.Find(id);
    if (slot >= 0) return slot;
    if (free_.empty()) {
      slot = static_cast<int>(id_of_.size());
      id_of_.push_back(id);
    } else {
      slot = free_.back();
      free_.pop_back();
      id_of_[static_cast<size_t>(slot)] = id;
    }
    slot_of_.Set(id, slot);
    return slot;
  }

  /// Returns the slot of `id`, which must hold one, to the free list.
  void Release(int id) {
    const int slot = slot_of_.Find(id);
    FDRMS_DCHECK(slot >= 0);
    slot_of_.Erase(id);
    free_.push_back(slot);
  }

  /// Id holding `slot` (unspecified for a free slot).
  int IdOf(int slot) const { return id_of_[static_cast<size_t>(slot)]; }
  /// Slot -> id array, indexed by slot.
  const int* ids() const { return id_of_.data(); }
  /// Number of ids holding a slot.
  int size() const { return slot_of_.size(); }

 private:
  FlatIdMap slot_of_;
  std::vector<int> id_of_;
  std::vector<int> free_;
};

}  // namespace fdrms

#endif  // FDRMS_COMMON_FLAT_ID_MAP_H_
