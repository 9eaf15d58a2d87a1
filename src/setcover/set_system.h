#ifndef FDRMS_SETCOVER_SET_SYSTEM_H_
#define FDRMS_SETCOVER_SET_SYSTEM_H_

/// \file set_system.h
/// The set system Σ = (U, S) of Section III: elements are indices of
/// sampled utility vectors, sets are keyed by tuple id, and S(p) contains
/// the utilities for which tuple p is an ε-approximate top-k result.
///
/// Storage is flat. A set holds a dense slot (common/flat_id_map.h) while
/// it is nonempty, so callers can keep per-set state in slot-indexed
/// arrays. Each slot and each element owns one vector of links, one per
/// membership; a link records the other endpoint and the index of its
/// mirror link in that endpoint's vector. Both S(p) and "sets containing
/// u" are therefore contiguous to enumerate.
///
/// Which operations search: AddMembership, RemoveMembership and Contains
/// look the membership up by one scan of the shorter of its two vectors.
/// AppendMembership (a membership the caller knows is new),
/// RemoveElementLinkAt (a membership the caller found by walking an
/// element's links) and RemoveSet search nothing: each is O(1) per link,
/// plus the swap-removes. List order is unspecified: it depends on the
/// mutation history. num_links() is Σ|S| over all sets, kept as a running
/// count.

#include <cstddef>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "common/flat_id_map.h"

namespace fdrms {

/// Bidirectional element<->set incidence. Elements are dense ints in
/// [0, capacity); set keys are arbitrary ints (tuple ids).
class SetSystem {
 public:
  /// One side of a membership: `other` is the far endpoint (an element in
  /// a slot's vector, a slot in an element's vector) and `mirror` the index
  /// of the matching link in the far endpoint's vector.
  struct Link {
    int other;
    int mirror;
  };

  /// Read-only range over one link vector that yields its far endpoints as
  /// keys: elements as they are, slots as set ids. A view: valid until the
  /// next mutation of the system.
  class KeyRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = int;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = int;

      iterator() = default;
      iterator(const Link* link, const int* ids) : link_(link), ids_(ids) {}
      int operator*() const {
        return ids_ == nullptr ? link_->other : ids_[link_->other];
      }
      iterator& operator++() {
        ++link_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++link_;
        return old;
      }
      bool operator==(const iterator& o) const { return link_ == o.link_; }

     private:
      const Link* link_ = nullptr;
      const int* ids_ = nullptr;
    };

    KeyRange(const std::vector<Link>& links, const int* ids)
        : begin_(links.data()), end_(links.data() + links.size()), ids_(ids) {}
    iterator begin() const { return {begin_, ids_}; }
    iterator end() const { return {end_, ids_}; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

   private:
    const Link* begin_;
    const Link* end_;
    const int* ids_;  // slot -> set id; null when the links hold elements
  };

  explicit SetSystem(int element_capacity) : by_element_(element_capacity) {}

  int element_capacity() const { return static_cast<int>(by_element_.size()); }

  /// True if the membership was new.
  bool AddMembership(int element, int set_id) {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    const int s = slots_.Find(set_id);
    if (s >= 0 && FindLink(element, s) >= 0) return false;
    Append(element, set_id, s);
    return true;
  }

  /// Adds a membership that must not exist yet, without searching for it;
  /// returns the slot of `set_id`.
  int AppendMembership(int element, int set_id) {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    FDRMS_DCHECK(!Contains(element, set_id));
    return Append(element, set_id, slots_.Find(set_id));
  }

  /// True if the membership existed. A set that empties gives up its slot.
  bool RemoveMembership(int element, int set_id) {
    const int s = slots_.Find(set_id);
    if (s < 0) return false;
    const int at = FindLink(element, s);
    if (at < 0) return false;
    const std::vector<Link>& set_links = by_slot_[static_cast<size_t>(s)];
    RemoveLink(element, set_links[static_cast<size_t>(at)].mirror);
    return true;
  }

  /// Removes the membership at index `at` of ElementLinks(element) (the
  /// same order as SetsContaining) without searching. The element's last
  /// link moves into `at`, so to remove several links of one element go
  /// from the highest index down. A set that empties gives up its slot.
  void RemoveElementLinkAt(int element, int at) {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    FDRMS_DCHECK(at >= 0 &&
                 at < static_cast<int>(
                          by_element_[static_cast<size_t>(element)].size()));
    RemoveLink(element, at);
  }

  /// Drops every membership of `set_id` and its slot.
  void RemoveSet(int set_id) {
    const int s = slots_.Find(set_id);
    if (s < 0) return;
    std::vector<Link>& set_links = by_slot_[static_cast<size_t>(s)];
    for (const Link& link : set_links) {
      SwapRemove(&by_element_[static_cast<size_t>(link.other)], link.mirror,
                 &by_slot_);
    }
    num_links_ -= set_links.size();
    set_links.clear();
    slots_.Release(set_id);
  }

  bool Contains(int element, int set_id) const {
    const int s = slots_.Find(set_id);
    return s >= 0 && FindLink(element, s) >= 0;
  }

  /// Elements of S(set_id); empty if unknown.
  KeyRange ElementsOf(int set_id) const {
    static const std::vector<Link> empty;
    const int s = slots_.Find(set_id);
    return {s < 0 ? empty : by_slot_[static_cast<size_t>(s)], nullptr};
  }

  /// Set ids of the sets containing `element`.
  KeyRange SetsContaining(int element) const {
    FDRMS_DCHECK(element >= 0 && element < element_capacity());
    return {by_element_[static_cast<size_t>(element)], slots_.ids()};
  }

  /// Ids of all nonempty sets, in unspecified order.
  std::vector<int> NonEmptySetIds() const {
    std::vector<int> ids;
    ids.reserve(num_sets());
    for (size_t s = 0; s < by_slot_.size(); ++s) {
      if (!by_slot_[s].empty()) ids.push_back(slots_.IdOf(static_cast<int>(s)));
    }
    return ids;
  }

  size_t num_sets() const { return static_cast<size_t>(slots_.size()); }
  /// Memberships in the system, Σ|S| over all sets.
  size_t num_links() const { return num_links_; }

  // ---- slot-level access, for per-set state kept in flat arrays ----

  /// Slot of a nonempty set, -1 otherwise.
  int SlotOf(int set_id) const { return slots_.Find(set_id); }
  /// Set id holding `slot`.
  int SetIdOf(int slot) const { return slots_.IdOf(slot); }
  /// Every slot is below this bound; it only grows.
  int slot_capacity() const { return static_cast<int>(by_slot_.size()); }
  /// Links of a slot (elements; empty when the slot is free).
  const std::vector<Link>& SlotLinks(int slot) const {
    return by_slot_[static_cast<size_t>(slot)];
  }
  /// Links of an element (slots of the sets containing it).
  const std::vector<Link>& ElementLinks(int element) const {
    return by_element_[static_cast<size_t>(element)];
  }

 private:
  /// Index of `element` in slot `s`'s links, or -1; scans the shorter of
  /// the membership's two vectors.
  int FindLink(int element, int s) const {
    const std::vector<Link>& set_links = by_slot_[static_cast<size_t>(s)];
    const std::vector<Link>& elem_links =
        by_element_[static_cast<size_t>(element)];
    if (set_links.size() <= elem_links.size()) {
      for (size_t i = 0; i < set_links.size(); ++i) {
        if (set_links[i].other == element) return static_cast<int>(i);
      }
    } else {
      for (const Link& link : elem_links) {
        if (link.other == s) return link.mirror;
      }
    }
    return -1;
  }

  /// Links `element` into `set_id`, whose slot is `s` (-1 if the set is
  /// empty); returns the slot.
  int Append(int element, int set_id, int s) {
    if (s < 0) {
      s = slots_.Acquire(set_id);
      if (s == static_cast<int>(by_slot_.size())) by_slot_.emplace_back();
    }
    std::vector<Link>& set_links = by_slot_[static_cast<size_t>(s)];
    std::vector<Link>& elem_links = by_element_[static_cast<size_t>(element)];
    set_links.push_back({element, static_cast<int>(elem_links.size())});
    elem_links.push_back({s, static_cast<int>(set_links.size()) - 1});
    ++num_links_;
    return s;
  }

  /// Removes the membership held by ElementLinks(element)[at], releasing
  /// the set's slot if it empties.
  void RemoveLink(int element, int at) {
    std::vector<Link>& elem_links = by_element_[static_cast<size_t>(element)];
    const Link link = elem_links[static_cast<size_t>(at)];
    std::vector<Link>& set_links = by_slot_[static_cast<size_t>(link.other)];
    SwapRemove(&set_links, link.mirror, &by_element_);
    SwapRemove(&elem_links, at, &by_slot_);
    --num_links_;
    if (set_links.empty()) slots_.Release(slots_.IdOf(link.other));
  }

  /// Removes links[at] by moving the last link into its place and pointing
  /// that link's mirror (in `far`) at the new index.
  static void SwapRemove(std::vector<Link>* links, int at,
                         std::vector<std::vector<Link>>* far) {
    const Link last = links->back();
    links->pop_back();
    if (at == static_cast<int>(links->size())) return;
    (*links)[static_cast<size_t>(at)] = last;
    (*far)[static_cast<size_t>(last.other)][static_cast<size_t>(last.mirror)]
        .mirror = at;
  }

  IdSlots slots_;
  std::vector<std::vector<Link>> by_slot_;     // slot -> element links
  std::vector<std::vector<Link>> by_element_;  // element -> slot links
  size_t num_links_ = 0;
};

}  // namespace fdrms

#endif  // FDRMS_SETCOVER_SET_SYSTEM_H_
