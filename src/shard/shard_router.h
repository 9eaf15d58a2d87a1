#ifndef FDRMS_SHARD_SHARD_ROUTER_H_
#define FDRMS_SHARD_SHARD_ROUTER_H_

/// \file shard_router.h
/// Tuple-space partitioning for the sharded serving layer.
///
/// Routing must be a pure function of the tuple id: every mutation of a
/// tuple has to land on the same single-writer FdRmsService instance, or
/// the per-shard FD-RMS states diverge from the operation stream. The id
/// space is cut into kNumHashSlots fixed hash slots (HashSlotOf), and a
/// RoutingTable (shard/migration.h) names the owning shard of every slot.
/// The slot indirection balances adversarial id ranges (sequential ids, id
/// ranges per tenant) without any data statistics, and gives live
/// rebalancing a finite, enumerable unit of ownership: a migration moves
/// whole slots between shards, so routing stays a pure function of the id
/// at every epoch.

#include <cstdint>

namespace fdrms {

/// Number of fixed hash slots the id space is divided into. Every id maps
/// to exactly one slot (HashSlotOf); routing tables map slots to shards,
/// so this is also the largest shard count a constellation can have.
/// 256 slots keep per-slot load near 0.4% of the id space — fine-grained
/// enough for balanced rebalancing, small enough to enumerate and
/// serialize.
inline constexpr int kNumHashSlots = 256;

/// The hash slot of `id`: splitmix64 finalizer over the id, modulo the slot
/// count. Uniform over any id distribution, no coordination, O(1).
inline int HashSlotOf(int id) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(id));
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<uint64_t>(kNumHashSlots));
}

}  // namespace fdrms

#endif  // FDRMS_SHARD_SHARD_ROUTER_H_
