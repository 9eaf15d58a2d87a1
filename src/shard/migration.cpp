#include "shard/migration.h"

#include <algorithm>
#include <string>

namespace fdrms {

namespace {
// v2 dropped v1's rule count from the parameter line and its rule lines. A
// v1 file read as v2 would shift every slot owner by one field, so the
// magic changed and Load rejects v1 outright.
constexpr char kMagic[] = "FDRMS-ROUTING-v2";
}  // namespace

std::shared_ptr<const RoutingTable> RoutingTable::Slotted(int num_shards) {
  FDRMS_CHECK(num_shards >= 1 && num_shards <= kNumHashSlots)
      << "shard count " << num_shards << " outside [1, " << kNumHashSlots
      << "]";
  auto table = std::shared_ptr<RoutingTable>(new RoutingTable());
  table->num_shards_ = num_shards;
  for (int slot = 0; slot < kNumHashSlots; ++slot) {
    table->slot_to_shard_[static_cast<size_t>(slot)] = slot % num_shards;
  }
  return table;
}

std::vector<int> RoutingTable::SlotsOwnedBy(int shard) const {
  std::vector<int> owned;
  for (int slot = 0; slot < kNumHashSlots; ++slot) {
    if (slot_to_shard_[static_cast<size_t>(slot)] == shard) {
      owned.push_back(slot);
    }
  }
  return owned;
}

std::vector<int> RoutingTable::SlotLoad() const {
  std::vector<int> load(static_cast<size_t>(num_shards_), 0);
  for (int owner : slot_to_shard_) ++load[static_cast<size_t>(owner)];
  return load;
}

std::shared_ptr<RoutingTable> RoutingTable::Next(int num_shards) const {
  auto next = std::shared_ptr<RoutingTable>(new RoutingTable(*this));
  next->epoch_ = epoch_ + 1;
  next->num_shards_ = num_shards;
  return next;
}

Result<std::shared_ptr<const RoutingTable>> RoutingTable::Apply(
    const MigrationPlan& plan, int new_num_shards) const {
  if (plan.empty()) {
    return Status::Invalid("migration plan moves nothing");
  }
  if (new_num_shards < num_shards_ || new_num_shards > kNumHashSlots) {
    return Status::Invalid("Apply keeps the shard count in [current, " +
                           std::to_string(kNumHashSlots) +
                           "] (use WithoutLastShard after migrating "
                           "ownership away)");
  }
  for (const MigrationPlan::SlotMove& move : plan.slot_moves) {
    if (move.slot < 0 || move.slot >= kNumHashSlots) {
      return Status::Invalid("slot " + std::to_string(move.slot) +
                             " out of range");
    }
    if (move.target < 0 || move.target >= new_num_shards) {
      return Status::Invalid("slot target " + std::to_string(move.target) +
                             " out of range");
    }
  }
  std::shared_ptr<RoutingTable> next = Next(new_num_shards);
  for (const MigrationPlan::SlotMove& move : plan.slot_moves) {
    next->slot_to_shard_[static_cast<size_t>(move.slot)] = move.target;
  }
  return std::shared_ptr<const RoutingTable>(std::move(next));
}

std::shared_ptr<const RoutingTable> RoutingTable::WithNumShards(
    int num_shards) const {
  FDRMS_CHECK(num_shards >= num_shards_ && num_shards <= kNumHashSlots)
      << "WithNumShards keeps the shard count in [current, kNumHashSlots]";
  return Next(num_shards);
}

Result<std::shared_ptr<const RoutingTable>> RoutingTable::WithoutLastShard()
    const {
  if (num_shards_ < 2) {
    return Status::FailedPrecondition("cannot remove the only shard");
  }
  const int victim = num_shards_ - 1;
  if (std::find(slot_to_shard_.begin(), slot_to_shard_.end(), victim) !=
      slot_to_shard_.end()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(victim) +
        " still owns slots; migrate them away first");
  }
  return std::shared_ptr<const RoutingTable>(Next(victim));
}

Status RoutingTable::Save(std::ostream* os) const {
  if (os == nullptr) return Status::Invalid("null output stream");
  *os << kMagic << "\n";
  *os << epoch_ << " " << num_shards_ << "\n";
  for (int slot = 0; slot < kNumHashSlots; ++slot) {
    *os << (slot ? " " : "") << slot_to_shard_[static_cast<size_t>(slot)];
  }
  *os << "\n";
  if (!os->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<std::shared_ptr<const RoutingTable>> RoutingTable::Load(
    std::istream* is) {
  if (is == nullptr) return Status::Invalid("null input stream");
  std::string magic;
  if (!std::getline(*is, magic) || magic != kMagic) {
    return Status::Invalid("bad routing table header: '" + magic + "'");
  }
  uint64_t epoch = 0;
  int num_shards = 0;
  *is >> epoch >> num_shards;
  if (!is->good() || num_shards < 1 || num_shards > kNumHashSlots) {
    return Status::Invalid("bad routing table parameter line");
  }
  auto table = std::shared_ptr<RoutingTable>(new RoutingTable());
  table->epoch_ = epoch;
  table->num_shards_ = num_shards;
  for (int slot = 0; slot < kNumHashSlots; ++slot) {
    int owner = -1;
    *is >> owner;
    if (is->fail() || owner < 0 || owner >= num_shards) {
      return Status::Invalid("bad slot owner at slot " + std::to_string(slot));
    }
    table->slot_to_shard_[static_cast<size_t>(slot)] = owner;
  }
  *is >> std::ws;
  if (!is->eof()) return Status::Invalid("trailing bytes after slot owners");
  return std::shared_ptr<const RoutingTable>(std::move(table));
}

}  // namespace fdrms
