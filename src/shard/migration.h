#ifndef FDRMS_SHARD_MIGRATION_H_
#define FDRMS_SHARD_MIGRATION_H_

/// \file migration.h
/// Routing-table epochs and migration plans for live shard rebalancing.
///
/// Routing is a pure function of the tuple id through its hash slot
/// (shard_router.h). This file makes the slot→shard map versioned and
/// movable:
///
///  - A MigrationPlan names the moving slots, each with a target shard,
///    without saying anything about timing.
///  - A RoutingTable is one immutable epoch of the routing function: a full
///    slot→shard array. Applying a plan to a table yields the next epoch;
///    the table itself never mutates, so readers can hold an epoch across a
///    cutover.
///  - An EpochShardRouter is what the sharded service routes through: an
///    atomic pointer to the current table, swapped in one release store at
///    migration cutover. Route() at any instant is the pure function of
///    exactly one epoch.
///
/// Because every id maps to exactly one slot and every slot names exactly
/// one owner in [0, num_shards), every id routes to exactly one shard at
/// every epoch — the property tests/migration_test.cpp exercises across
/// random plan sequences and across save/restore (tables serialize to a
/// versioned text format so a persisted constellation can resume with its
/// migrated routing intact).

#include <array>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "shard/shard_router.h"

namespace fdrms {

/// One rebalancing step: which hash slots move, and where each goes.
/// Declarative only — ShardedFdRmsService::Migrate supplies the freeze/
/// drain/replay/cutover mechanics.
struct MigrationPlan {
  struct SlotMove {
    int slot;    ///< hash slot in [0, kNumHashSlots)
    int target;  ///< shard that owns the slot after the cutover
  };
  std::vector<SlotMove> slot_moves;

  bool empty() const { return slot_moves.empty(); }

  /// Every listed slot to one target shard.
  static MigrationPlan Slots(const std::vector<int>& slots, int target) {
    MigrationPlan plan;
    plan.slot_moves.reserve(slots.size());
    for (int slot : slots) plan.slot_moves.push_back({slot, target});
    return plan;
  }
};

/// One immutable epoch of the routing function. Constructed via Slotted(),
/// Load() or the epoch-advancing builders; never mutated afterwards, so
/// concurrent readers need no synchronization beyond acquiring the
/// pointer. Every slot owner is in [0, num_shards()) and num_shards() is
/// in [1, kNumHashSlots].
class RoutingTable {
 public:
  /// Epoch 0: slot t owned by shard t mod S. Requires 1 <= S <=
  /// kNumHashSlots.
  static std::shared_ptr<const RoutingTable> Slotted(int num_shards);

  /// The owning shard of `id` at this epoch: its slot's owner.
  int Route(int id) const {
    return slot_to_shard_[static_cast<size_t>(HashSlotOf(id))];
  }

  uint64_t epoch() const { return epoch_; }
  int num_shards() const { return num_shards_; }

  /// Slots owned by `shard`, ascending.
  std::vector<int> SlotsOwnedBy(int shard) const;

  /// Owned-slot count per shard — the balance signal AddShard/RemoveShard
  /// plan against.
  std::vector<int> SlotLoad() const;

  /// The next epoch with `plan` applied. Validates the plan against this
  /// table: slots in range, targets in [0, new_num_shards).
  /// `new_num_shards` >= num_shards() lets AddShard grow the shard space in
  /// the same step. Nothing is mutated on error.
  Result<std::shared_ptr<const RoutingTable>> Apply(const MigrationPlan& plan,
                                                    int new_num_shards) const;

  /// The next epoch with the shard space grown/kept at `num_shards` and
  /// every route unchanged (used to expose a freshly started shard before
  /// any slots move onto it).
  std::shared_ptr<const RoutingTable> WithNumShards(int num_shards) const;

  /// The next epoch with the last shard removed. Fails if any slot still
  /// routes to it — migrate its slots away first.
  Result<std::shared_ptr<const RoutingTable>> WithoutLastShard() const;

  /// Serializes the table. Byte-exact for identical tables.
  Status Save(std::ostream* os) const;

  /// Rebuilds a table from Save()'s output; routes identically to the
  /// saved instance. Any other input (including a file in an older format)
  /// yields a Status, never a table that could route out of range.
  static Result<std::shared_ptr<const RoutingTable>> Load(std::istream* is);

 private:
  RoutingTable() = default;

  /// A copy at the next epoch over `num_shards` shards.
  std::shared_ptr<RoutingTable> Next(int num_shards) const;

  uint64_t epoch_ = 0;
  int num_shards_ = 0;
  std::array<int, kNumHashSlots> slot_to_shard_{};
};

/// What the sharded service routes through: an atomic pointer to the
/// current RoutingTable. Route()/num_shards() read one coherent epoch with
/// a single atomic load; Publish() is the single release store that makes
/// a migration's cutover visible to every submitter.
class EpochShardRouter {
 public:
  explicit EpochShardRouter(std::shared_ptr<const RoutingTable> initial)
      : table_(std::move(initial)) {
    FDRMS_CHECK(table_.load() != nullptr);
  }

  int num_shards() const { return table()->num_shards(); }
  int Route(int id) const { return table()->Route(id); }
  uint64_t epoch() const { return table()->epoch(); }

  std::shared_ptr<const RoutingTable> table() const {
    return table_.load(std::memory_order_acquire);
  }

  /// Installs the next epoch. Epochs must advance — a stale or replayed
  /// table is a programming error.
  void Publish(std::shared_ptr<const RoutingTable> next) {
    FDRMS_CHECK(next != nullptr);
    FDRMS_CHECK(next->epoch() > table()->epoch())
        << "routing epochs must advance";
    table_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const RoutingTable>> table_;
};

}  // namespace fdrms

#endif  // FDRMS_SHARD_MIGRATION_H_
