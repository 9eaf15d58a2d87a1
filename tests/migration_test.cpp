#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "geometry/sampling.h"
#include "shard/migration.h"
#include "shard/sharded_service.h"

// All suites here are named Migration* on purpose: the `tsan` CMake test
// preset (and the CI ThreadSanitizer job) selects them with the regex
// ^(Serve|Shard|Migration), and the tsan-stress preset repeats them with
// --repeat until-fail:3 so interleaving flakes surface in CI.

namespace fdrms {
namespace {

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps, int count) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

/// Replays `ops` sequentially on a fresh FdRms with the service's per-op
/// semantics (rejected operations are skipped, the rest keep going).
std::unique_ptr<FdRms> SequentialReplay(
    int dim, const FdRmsOptions& opt,
    const std::vector<std::pair<int, Point>>& initial,
    const std::vector<FdRms::BatchOp>& ops) {
  auto algo = std::make_unique<FdRms>(dim, opt);
  EXPECT_TRUE(algo->Initialize(initial).ok());
  for (const FdRms::BatchOp& op : ops) {
    switch (op.kind) {
      case FdRms::BatchOp::Kind::kInsert:
        (void)algo->Insert(op.id, op.point);
        break;
      case FdRms::BatchOp::Kind::kDelete:
        (void)algo->Delete(op.id);
        break;
      case FdRms::BatchOp::Kind::kUpdate:
        (void)algo->Update(op.id, op.point);
        break;
    }
  }
  return algo;
}

/// Live tuple ids of one shard, ascending (valid after Stop).
std::vector<int> LiveIdsOf(const FdRmsService& shard) {
  std::vector<int> ids;
  shard.algorithm().topk().tree().ForEach(
      [&](int id, const Point&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The conservation + ownership oracle: across all shards, every live id
/// appears exactly once (no id lost to a cutover, none duplicated), and it
/// lives on the shard the final routing epoch assigns it to.
void ExpectOwnershipMatchesRouting(const ShardedFdRmsService& service,
                                   std::vector<int>* union_out = nullptr) {
  std::unordered_map<int, int> owner;
  for (int s = 0; s < service.num_shards(); ++s) {
    for (int id : LiveIdsOf(service.shard(s))) {
      auto [it, inserted] = owner.emplace(id, s);
      EXPECT_TRUE(inserted) << "id " << id << " live on shards " << it->second
                            << " and " << s;
      EXPECT_EQ(service.router().Route(id), s)
          << "id " << id << " lives on shard " << s << " but routes to shard "
          << service.router().Route(id) << " at epoch " << service.epoch();
    }
  }
  if (union_out != nullptr) {
    union_out->clear();
    for (const auto& [id, s] : owner) {
      (void)s;
      union_out->push_back(id);
    }
    std::sort(union_out->begin(), union_out->end());
  }
}

TEST(MigrationPlanTest, FactoriesDescribeTheMove) {
  MigrationPlan slots = MigrationPlan::Slots({3, 7}, 1);
  ASSERT_EQ(slots.slot_moves.size(), 2u);
  EXPECT_EQ(slots.slot_moves[0].slot, 3);
  EXPECT_EQ(slots.slot_moves[1].target, 1);
  EXPECT_FALSE(slots.empty());

  EXPECT_TRUE(MigrationPlan{}.empty());
  EXPECT_TRUE(MigrationPlan::Slots({}, 1).empty());
}

TEST(MigrationTableTest, SlottedTableMatchesHashRouter) {
  // Epoch 0 routes every id by its hash slot mod S, for every legal S.
  for (int num_shards : {1, 2, 3, 4, 8, kNumHashSlots}) {
    auto table = RoutingTable::Slotted(num_shards);
    EXPECT_EQ(table->epoch(), 0u);
    EXPECT_EQ(table->num_shards(), num_shards);
    for (int id : {-5, 0, 1, 17, 4096, 123456789}) {
      EXPECT_EQ(table->Route(id), HashSlotOf(id) % num_shards) << "id " << id;
    }
  }
}

TEST(MigrationTableTest, ApplyMovesSlotsAndRanges) {
  auto table = RoutingTable::Slotted(3);
  // Slot plan: move every slot shard 0 owns to shard 2.
  std::vector<int> slots = table->SlotsOwnedBy(0);
  ASSERT_FALSE(slots.empty());
  auto moved_or = table->Apply(MigrationPlan::Slots(slots, 2), 3);
  ASSERT_TRUE(moved_or.ok()) << moved_or.status().ToString();
  auto moved = *moved_or;
  EXPECT_EQ(moved->epoch(), 1u);
  EXPECT_TRUE(moved->SlotsOwnedBy(0).empty());
  for (int id = 0; id < 2000; ++id) {
    const int before = table->Route(id);
    const int after = moved->Route(id);
    EXPECT_EQ(after, before == 0 ? 2 : before) << "id " << id;
  }
  // A contiguous slot range layered on top: slots [100, 150) to shard 1
  // whoever owned them; every other slot keeps its owner.
  std::vector<int> range;
  for (int slot = 100; slot < 150; ++slot) range.push_back(slot);
  auto ranged_or = moved->Apply(MigrationPlan::Slots(range, 1), 3);
  ASSERT_TRUE(ranged_or.ok());
  auto ranged = *ranged_or;
  EXPECT_EQ(ranged->epoch(), 2u);
  for (int id = 0; id < 2000; ++id) {
    const int slot = HashSlotOf(id);
    EXPECT_EQ(ranged->Route(id),
              slot >= 100 && slot < 150 ? 1 : moved->Route(id))
        << "id " << id;
  }
  // Re-targeting the same slots overwrites their owner: the latest plan
  // wins and the table stays one owner per slot.
  auto retargeted = *ranged->Apply(MigrationPlan::Slots(range, 0), 3);
  std::vector<int> load = retargeted->SlotLoad();
  EXPECT_EQ(load[0] + load[1] + load[2], kNumHashSlots);
  const std::vector<int> owned_by_0 = retargeted->SlotsOwnedBy(0);
  for (int slot : range) {
    EXPECT_TRUE(std::binary_search(owned_by_0.begin(), owned_by_0.end(), slot))
        << "slot " << slot;
  }
}

TEST(MigrationTableTest, ApplyRejectsInvalidPlans) {
  auto table = RoutingTable::Slotted(2);
  EXPECT_EQ(table->Apply(MigrationPlan{}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      table->Apply(MigrationPlan::Slots({kNumHashSlots}, 0), 2).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table->Apply(MigrationPlan::Slots({0}, 2), 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->Apply(MigrationPlan::Slots({0}, -1), 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->Apply(MigrationPlan::Slots({0}, 0), 1).status().code(),
            StatusCode::kInvalidArgument);  // shrinking the shard space
  EXPECT_EQ(table->Apply(MigrationPlan::Slots({0}, 0), kNumHashSlots + 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // more shards than slots
  // A rejected plan mutates nothing: a valid one still lands at epoch 1.
  auto moved_or = table->Apply(MigrationPlan::Slots({0}, 1), 2);
  ASSERT_TRUE(moved_or.ok());
  EXPECT_EQ((*moved_or)->epoch(), 1u);
  EXPECT_EQ(table->epoch(), 0u);
}

TEST(MigrationTableTest, WithoutLastShardRequiresEmptyOwnership) {
  auto table = RoutingTable::Slotted(2);
  EXPECT_EQ(table->WithoutLastShard().status().code(),
            StatusCode::kFailedPrecondition);  // shard 1 still owns slots
  auto drained =
      *table->Apply(MigrationPlan::Slots(table->SlotsOwnedBy(1), 0), 2);
  auto shrunk_or = drained->WithoutLastShard();
  ASSERT_TRUE(shrunk_or.ok()) << shrunk_or.status().ToString();
  EXPECT_EQ((*shrunk_or)->num_shards(), 1);
  for (int id = 0; id < 500; ++id) EXPECT_EQ((*shrunk_or)->Route(id), 0);
  // A single slot moved back onto the victim blocks removal again.
  auto pinned = *drained->Apply(MigrationPlan::Slots({7}, 1), 2);
  EXPECT_EQ(pinned->WithoutLastShard().status().code(),
            StatusCode::kFailedPrecondition);
  // The only shard can never be removed.
  EXPECT_EQ((*shrunk_or)->WithoutLastShard().status().code(),
            StatusCode::kFailedPrecondition);
}

// Property: for any sequence of migrations, every id routes to exactly one
// in-range shard at every epoch, epochs advance by one per applied plan,
// and replaying the same plan sequence from scratch reproduces the same
// routing function at every epoch (determinism).
TEST(MigrationRouterPropertyTest, EveryIdRoutesToExactlyOneShardAtEveryEpoch) {
  constexpr int kNumPlans = 16;
  constexpr int kIds = 1500;
  Rng rng(20260731);
  auto random_plan = [&](int num_shards) {
    MigrationPlan plan;
    const int count = 1 + rng.UniformInt(40);
    for (int i = 0; i < count; ++i) {
      plan.slot_moves.push_back(
          {rng.UniformInt(kNumHashSlots), rng.UniformInt(num_shards)});
    }
    return plan;
  };

  auto run_sequence = [&](const std::vector<MigrationPlan>& plans,
                          std::vector<std::vector<int>>* routes_per_epoch) {
    int num_shards = 4;
    std::shared_ptr<const RoutingTable> table =
        RoutingTable::Slotted(num_shards);
    EpochShardRouter router(table);
    for (size_t p = 0; p < plans.size(); ++p) {
      if (p == plans.size() / 2) ++num_shards;  // grow mid-sequence
      auto next_or = table->Apply(plans[p], num_shards);
      ASSERT_TRUE(next_or.ok()) << next_or.status().ToString();
      table = *next_or;
      router.Publish(table);
      EXPECT_EQ(router.epoch(), p + 1);
      EXPECT_EQ(router.num_shards(), num_shards);
      std::vector<int> routes;
      routes.reserve(kIds);
      for (int id = -100; id < kIds - 100; ++id) {
        const int shard = router.Route(id);
        EXPECT_GE(shard, 0) << "id " << id << " epoch " << router.epoch();
        EXPECT_LT(shard, num_shards)
            << "id " << id << " epoch " << router.epoch();
        EXPECT_EQ(shard, table->Route(id));  // router == its table, always
        routes.push_back(shard);
      }
      routes_per_epoch->push_back(std::move(routes));
    }
  };

  std::vector<MigrationPlan> plans;
  for (int p = 0; p < kNumPlans; ++p) plans.push_back(random_plan(5));
  // Clamp slot targets of early epochs into the 4-shard space (the grow
  // happens mid-sequence).
  for (size_t p = 0; p < plans.size() / 2; ++p) {
    for (auto& move : plans[p].slot_moves) move.target %= 4;
  }

  std::vector<std::vector<int>> first_run, second_run;
  run_sequence(plans, &first_run);
  run_sequence(plans, &second_run);
  ASSERT_EQ(first_run.size(), second_run.size());
  for (size_t e = 0; e < first_run.size(); ++e) {
    EXPECT_EQ(first_run[e], second_run[e]) << "epoch " << e + 1;
  }
}

TEST(MigrationRouterPropertyTest, TableRoundTripsThroughSaveRestore) {
  Rng rng(777);
  std::shared_ptr<const RoutingTable> table = RoutingTable::Slotted(3);
  for (int p = 0; p < 6; ++p) {
    MigrationPlan plan;
    for (int i = 0; i < 10; ++i) {
      plan.slot_moves.push_back(
          {rng.UniformInt(kNumHashSlots), rng.UniformInt(3)});
    }
    table = *table->Apply(plan, 3);
  }
  std::stringstream stream;
  ASSERT_TRUE(table->Save(&stream).ok());
  auto loaded_or = RoutingTable::Load(&stream);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  auto loaded = *loaded_or;
  EXPECT_EQ(loaded->epoch(), table->epoch());
  EXPECT_EQ(loaded->num_shards(), table->num_shards());
  for (int id = -200; id < 3000; ++id) {
    ASSERT_EQ(loaded->Route(id), table->Route(id)) << "id " << id;
  }
  // Identical tables serialize to identical bytes.
  std::stringstream again;
  ASSERT_TRUE(loaded->Save(&again).ok());
  EXPECT_EQ(again.str(), stream.str());
  // Corruption is rejected, not mis-loaded.
  std::stringstream junk("FDRMS-ROUTING-v2\n1 0\n");
  EXPECT_FALSE(RoutingTable::Load(&junk).ok());
  // A v1 file (rule count on the parameter line, rule lines after the
  // owners) is refused by its header: read as v2, its rule count would
  // shift every slot owner by one field.
  std::string v1 = stream.str();
  v1.replace(v1.find("-v2"), 3, "-v1");
  v1.insert(v1.find('\n', v1.find('\n') + 1), " 0");
  std::stringstream old_format(v1);
  auto v1_or = RoutingTable::Load(&old_format);
  ASSERT_FALSE(v1_or.ok());
  EXPECT_NE(v1_or.status().ToString().find("FDRMS-ROUTING-v1"),
            std::string::npos);
}

TEST(MigrationRouterPropertyTest, HashRouterDeterministicAcrossSaveRestore) {
  // The epoch-0 routing function (hash slot mod S) survives a
  // save/restore cycle: a resumed constellation routes exactly like the
  // one that persisted it.
  auto table = RoutingTable::Slotted(4);
  std::stringstream stream;
  ASSERT_TRUE(table->Save(&stream).ok());
  auto restored = *RoutingTable::Load(&stream);
  for (int id = -50; id < 5000; ++id) {
    ASSERT_EQ(restored->Route(id), HashSlotOf(id) % 4) << "id " << id;
  }
}

TEST(MigrationServiceTest, QuiescentSlotMigrationPreservesLiveSet) {
  PointSet ps = GenerateIndep(240, 3, 31);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 240)).ok());
  auto before = service.Query();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->epoch, 0u);

  // Move everything shard 0 owns onto shard 1.
  std::vector<int> slots = service.routing_table()->SlotsOwnedBy(0);
  ASSERT_FALSE(slots.empty());
  Status migrated = service.Migrate(MigrationPlan::Slots(slots, 1));
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.migrations(), 1u);

  auto after = service.Query();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->epoch, 1u);
  // Count oracle: nothing lost, nothing duplicated across the cutover.
  EXPECT_EQ(after->live_tuples, 240);
  ASSERT_TRUE(service.Stop().ok());

  std::vector<int> union_ids;
  ExpectOwnershipMatchesRouting(service, &union_ids);
  std::vector<int> expected(240);
  for (int i = 0; i < 240; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(union_ids, expected);
  EXPECT_EQ(service.shard(0).algorithm().size(), 0);  // fully drained

  // The migration is ordinary journaled traffic: deletes on the source,
  // inserts on the target, and each shard equals its journal's replay.
  size_t source_deletes = 0, target_inserts = 0;
  for (const FdRms::BatchOp& op : service.shard(0).journal()) {
    if (op.kind == FdRms::BatchOp::Kind::kDelete) ++source_deletes;
  }
  for (const FdRms::BatchOp& op : service.shard(1).journal()) {
    if (op.kind == FdRms::BatchOp::Kind::kInsert) ++target_inserts;
  }
  EXPECT_GT(source_deletes, 0u);
  EXPECT_EQ(source_deletes, target_inserts);
  for (int s = 0; s < 3; ++s) {
    std::vector<std::pair<int, Point>> shard_initial;
    for (int i = 0; i < 240; ++i) {
      if (RoutingTable::Slotted(3)->Route(i) == s) {
        shard_initial.emplace_back(i, ps.Get(i));
      }
    }
    auto replay = SequentialReplay(3, sopt.shard.algo, shard_initial,
                                   service.shard(s).journal());
    EXPECT_EQ(LiveIdsOf(service.shard(s)).size(),
              static_cast<size_t>(replay->size()))
        << "shard " << s;
    EXPECT_EQ(service.shard(s).algorithm().Result(), replay->Result())
        << "shard " << s;
    ASSERT_TRUE(service.shard(s).algorithm().Validate().ok());
  }
}

TEST(MigrationServiceTest, SlotMigrationMovesTheSlots) {
  PointSet ps = GenerateAntiCor(200, 3, 32);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 200)).ok());
  // Move the slots holding ids [0, 60) to shard 2 (slots it already owns
  // move nowhere; listing them is harmless).
  std::vector<int> slots;
  for (int id = 0; id < 60; ++id) slots.push_back(HashSlotOf(id));
  ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(slots, 2)).ok());
  for (int id = 0; id < 60; ++id) {
    EXPECT_EQ(service.router().Route(id), 2) << "id " << id;
  }
  // Post-cutover traffic for the moved slots lands on the new owner.
  ASSERT_TRUE(service.SubmitDelete(10).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->live_tuples, 199);
  EXPECT_EQ(merged->ops_rejected, 0u);  // the delete found its tuple
  ASSERT_TRUE(service.Stop().ok());
  std::vector<int> on_target = LiveIdsOf(service.shard(2));
  for (int id = 0; id < 60; ++id) {
    const bool present =
        std::binary_search(on_target.begin(), on_target.end(), id);
    EXPECT_EQ(present, id != 10) << "id " << id;
  }
  ExpectOwnershipMatchesRouting(service);
}

TEST(MigrationServiceTest, InvalidPlansAndTopologiesAreRejected) {
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.max_utilities = 32;
  {
    ShardedFdRmsService service(2, sopt);
    EXPECT_EQ(service.Migrate(MigrationPlan::Slots({0}, 1)).code(),
              StatusCode::kFailedPrecondition);  // never started
    ASSERT_TRUE(service.Start({{0, {0.3, 0.4}}, {1, {0.5, 0.2}}}).ok());
    EXPECT_EQ(service.Migrate(MigrationPlan{}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(service.Migrate(MigrationPlan::Slots({-1}, 0)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.Migrate(MigrationPlan::Slots({0}, 7)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        service.Migrate(MigrationPlan::Slots({kNumHashSlots}, 0)).code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(service.epoch(), 0u);  // nothing moved
    ASSERT_TRUE(service.Stop().ok());
  }
  {
    // One-shard constellations cannot scale in.
    ShardedServiceOptions single = sopt;
    single.num_shards = 1;
    ShardedFdRmsService service(2, single);
    ASSERT_TRUE(service.Start({{0, {0.3, 0.4}}}).ok());
    EXPECT_EQ(service.RemoveShard().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(service.Stop().ok());
  }
}

// The central scenario: 4 readers + 3 submitters churn a mixed
// insert/delete stream while two slot migrations cut over mid-stream.
// Readers assert epoch-aware snapshot consistency on every view;
// afterwards every shard must equal a sequential replay of its own journal
// (migration traffic included), the live tuples must be partitioned
// exactly as the final epoch routes, and the post-cutover merged snapshot
// must meet the k=1 regret-ratio bound on the shared sampled-utility
// prefix.
TEST(MigrationServiceTest, MigrateUnderChurnMatchesJournalReplay) {
  constexpr int kReaders = 4;
  constexpr int kSubmitters = 3;
  const double eps = 0.05;
  PointSet ps = GenerateAntiCor(300, 3, 34);
  Workload wl(&ps, 53);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.k = 1;
  sopt.shard.algo.r = 8;
  sopt.shard.algo.eps = eps;
  sopt.shard.algo.max_utilities = 256;
  sopt.shard.max_batch = 8;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(service.Start(initial).ok());

  // Partition P_0 by the epoch-0 table before anything moves: that is each
  // shard's replay baseline.
  std::shared_ptr<const RoutingTable> epoch0 = service.routing_table();
  ASSERT_EQ(epoch0->epoch(), 0u);

  std::atomic<bool> stop_readers{false};
  struct ReaderLog {
    uint64_t queries = 0;
    uint64_t epochs_seen = 0;
    std::string failure;  // first violation seen, empty if none
  };
  std::vector<ReaderLog> logs(kReaders);
  // Per reader: its query count, published so the main thread can wait
  // for a first query without reading the log before the join.
  std::vector<std::atomic<uint64_t>> queries_started(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderLog& log = logs[t];
      uint64_t last_epoch = 0;
      std::vector<uint64_t> last_versions;
      bool first = true;
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto snap = service.Query();
        ++log.queries;
        queries_started[t].store(log.queries, std::memory_order_release);
        auto fail = [&](const std::string& what) {
          if (log.failure.empty()) log.failure = what;
        };
        if (snap == nullptr) {
          fail("null merged snapshot after start");
          break;
        }
        if (first || snap->epoch != last_epoch) ++log.epochs_seen;
        if (!first && snap->epoch < last_epoch) fail("epoch regressed");
        if (!first && snap->epoch == last_epoch) {
          if (snap->versions.size() != last_versions.size()) {
            fail("version vector changed arity within an epoch");
          } else {
            for (size_t s = 0; s < snap->versions.size(); ++s) {
              if (snap->versions[s] < last_versions[s]) {
                fail("version regressed within an epoch");
              }
            }
          }
        }
        if (snap->versions.size() != snap->shards.size()) {
          fail("versions/shards not parallel");
        }
        if (snap->ids.size() != snap->points.size()) {
          fail("ids/points not parallel");
        }
        if (static_cast<int>(snap->ids.size()) > 3 * sopt.shard.algo.r) {
          fail("|Q| exceeds the union bound");
        }
        if (!std::is_sorted(snap->ids.begin(), snap->ids.end()) ||
            std::adjacent_find(snap->ids.begin(), snap->ids.end()) !=
                snap->ids.end()) {
          fail("ids not sorted unique");
        }
        last_epoch = snap->epoch;
        last_versions = snap->versions;
        first = false;
        std::this_thread::yield();
      }
    });
  }

  const auto& ops = wl.operations();
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < ops.size();
           i += kSubmitters) {
        Status st = ops[i].is_insert
                        ? service.SubmitInsert(ops[i].id, ps.Get(ops[i].id))
                        : service.SubmitDelete(ops[i].id);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }

  // Two live cutovers while the stream runs: half of shard 0's slots to
  // shard 1 once a third of the stream is in, then the slots of ids
  // [0, 45) to shard 2 at two thirds.
  auto wait_for = [&](uint64_t threshold) {
    while (service.ops_submitted() < threshold) std::this_thread::yield();
  };
  wait_for(ops.size() / 3);
  std::vector<int> donor_slots = epoch0->SlotsOwnedBy(0);
  donor_slots.resize(donor_slots.size() / 2);
  Status mig1 = service.Migrate(MigrationPlan::Slots(donor_slots, 1));
  EXPECT_TRUE(mig1.ok()) << mig1.ToString();
  wait_for(2 * ops.size() / 3);
  std::vector<int> hot_slots;
  for (int id = 0; id < 45; ++id) hot_slots.push_back(HashSlotOf(id));
  Status mig2 = service.Migrate(MigrationPlan::Slots(hot_slots, 2));
  EXPECT_TRUE(mig2.ok()) << mig2.ToString();

  for (std::thread& th : submitters) th.join();
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->epoch, 2u);
  // The stream can end before a loaded host schedules every reader; give
  // each (bounded) time for its first query before stopping them.
  const auto reader_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int t = 0; t < kReaders; ++t) {
    while (queries_started[t].load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < reader_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  ASSERT_TRUE(service.Stop().ok());

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(logs[t].failure.empty())
        << "reader " << t << ": " << logs[t].failure;
    EXPECT_GT(logs[t].queries, 0u);
  }
  EXPECT_EQ(service.migrations(), 2u);

  // Journal-replay equivalence per shard: the journals contain the
  // workload ops routed to each shard plus the migration's replay inserts
  // and source deletes, in application order.
  for (int s = 0; s < 3; ++s) {
    std::vector<std::pair<int, Point>> shard_initial;
    for (const auto& [id, point] : initial) {
      if (epoch0->Route(id) == s) shard_initial.emplace_back(id, point);
    }
    auto replay = SequentialReplay(3, sopt.shard.algo, shard_initial,
                                   service.shard(s).journal());
    EXPECT_EQ(service.shard(s).algorithm().Result(), replay->Result())
        << "shard " << s;
    EXPECT_EQ(service.shard(s).algorithm().size(), replay->size())
        << "shard " << s;
    EXPECT_EQ(service.shard(s).algorithm().current_m(), replay->current_m())
        << "shard " << s;
    ASSERT_TRUE(service.shard(s).algorithm().Validate().ok());
  }

  // Conservation + ownership: every live tuple on exactly the shard the
  // final epoch routes it to (no id lost or duplicated across cutovers).
  std::vector<int> union_of_lives;
  ExpectOwnershipMatchesRouting(service, &union_of_lives);
  EXPECT_EQ(static_cast<int>(union_of_lives.size()), merged->live_tuples);

  // k=1 regret-ratio oracle on the post-cutover merged snapshot: every
  // utility in the shared sampled prefix is covered by the owning shard's
  // (1-eps) guarantee, and ownership is an exact partition, so the merged
  // union inherits the bound over the global live set.
  const std::vector<Point>& utilities =
      service.shard(0).algorithm().topk().utilities();
  ASSERT_GE(merged->min_sample_size_m, 1);
  for (int i = 0; i < merged->min_sample_size_m; ++i) {
    const Point& u = utilities[static_cast<size_t>(i)];
    double omega = 0.0;
    for (int id : union_of_lives) omega = std::max(omega, Dot(u, ps.Get(id)));
    double best = 0.0;
    for (int id : merged->ids) best = std::max(best, Dot(u, ps.Get(id)));
    EXPECT_GE(best, (1.0 - eps) * omega - 1e-9)
        << "utility " << i << ": merged regret ratio " << 1.0 - best / omega
        << " exceeds eps=" << eps << " after migration";
  }
}

TEST(MigrationServiceTest, AddShardScalesOutOnlineUnderChurn) {
  PointSet ps = GenerateIndep(360, 3, 35);
  Workload wl(&ps, 59);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.max_batch = 8;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(service.Start(initial).ok());
  std::shared_ptr<const RoutingTable> epoch0 = service.routing_table();

  const auto& ops = wl.operations();
  std::thread submitter([&] {
    for (const Operation& op : ops) {
      Status st = op.is_insert ? service.SubmitInsert(op.id, ps.Get(op.id))
                               : service.SubmitDelete(op.id);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  });
  while (service.ops_submitted() < ops.size() / 2) std::this_thread::yield();
  Status added = service.AddShard();
  EXPECT_TRUE(added.ok()) << added.ToString();
  submitter.join();
  ASSERT_TRUE(service.Flush().ok());
  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  ASSERT_TRUE(service.Stop().ok());

  EXPECT_EQ(service.num_shards(), 3);
  ASSERT_EQ(merged->versions.size(), 3u);
  // The newcomer owns its even share of the slot space and real tuples.
  std::vector<int> load = service.routing_table()->SlotLoad();
  ASSERT_EQ(load.size(), 3u);
  EXPECT_EQ(load[2], kNumHashSlots / 3);
  EXPECT_GE(load[0], kNumHashSlots / 3);
  EXPECT_GE(load[1], kNumHashSlots / 3);
  EXPECT_GT(service.shard(2).algorithm().size(), 0);

  ExpectOwnershipMatchesRouting(service);
  // Journal replay still holds for every shard — the newcomer's baseline
  // is empty, its whole state arrived as journaled inserts.
  for (int s = 0; s < 3; ++s) {
    std::vector<std::pair<int, Point>> shard_initial;
    if (s < 2) {
      for (const auto& [id, point] : initial) {
        if (epoch0->Route(id) == s) shard_initial.emplace_back(id, point);
      }
    }
    auto replay = SequentialReplay(3, sopt.shard.algo, shard_initial,
                                   service.shard(s).journal());
    EXPECT_EQ(service.shard(s).algorithm().Result(), replay->Result())
        << "shard " << s;
    ASSERT_TRUE(service.shard(s).algorithm().Validate().ok());
  }
}

TEST(MigrationServiceTest, RemoveShardScalesInOnline) {
  PointSet ps = GenerateIndep(240, 3, 36);
  ShardedServiceOptions sopt;
  sopt.num_shards = 3;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.record_journal = true;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 240)).ok());
  Status removed = service.RemoveShard();
  ASSERT_TRUE(removed.ok()) << removed.ToString();
  EXPECT_EQ(service.num_shards(), 2);
  EXPECT_EQ(service.num_retired(), 1);

  auto merged = service.Query();
  ASSERT_NE(merged, nullptr);
  ASSERT_EQ(merged->versions.size(), 2u);
  EXPECT_EQ(merged->live_tuples, 240);  // nothing lost scaling in

  // The retired shard is already stopped, fully drained of its tuples, and
  // its journal records the migration deletes.
  EXPECT_EQ(service.retired_shard(0).algorithm().size(), 0);
  size_t deletes = 0;
  for (const FdRms::BatchOp& op : service.retired_shard(0).journal()) {
    if (op.kind == FdRms::BatchOp::Kind::kDelete) ++deletes;
  }
  EXPECT_GT(deletes, 0u);

  // The shrunk constellation keeps serving.
  ASSERT_TRUE(service.SubmitDelete(7).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto after = service.Query();
  EXPECT_EQ(after->live_tuples, 239);
  ASSERT_TRUE(service.Stop().ok());
  ExpectOwnershipMatchesRouting(service);
  std::vector<int> load = service.routing_table()->SlotLoad();
  ASSERT_EQ(load.size(), 2u);
  EXPECT_EQ(load[0] + load[1], kNumHashSlots);
}

TEST(MigrationDriverTest, ShardedLoadFiresMigrationEventsOnline) {
  PointSet ps = GenerateIndep(300, 3, 37);
  Workload wl(&ps, 61);
  ShardedLoadOptions lopt;
  lopt.num_readers = 2;
  lopt.num_submitters = 2;
  lopt.service.num_shards = 2;
  lopt.service.shard.algo.r = 6;
  lopt.service.shard.algo.max_utilities = 128;
  lopt.service.shard.max_batch = 16;
  using Event = ShardedLoadOptions::MigrationEvent;
  lopt.migrations.push_back({Event::Kind::kAddShard, 0.3});
  lopt.migrations.push_back({Event::Kind::kAddShard, 0.6});
  ShardedLoadResult res = RunShardedLoad(wl, lopt);
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.null_queries, 0u);  // reads never blocked or errored
  EXPECT_EQ(res.migrations_attempted, 2u);
  EXPECT_EQ(res.migrations_failed, 0u);
  EXPECT_EQ(res.final_num_shards, 4);
  EXPECT_GE(res.final_epoch, 4u);  // each AddShard: grow epoch + cutover
  ASSERT_EQ(res.migration_seconds.size(), 2u);
  EXPECT_GT(res.migration_seconds_total, 0.0);
  EXPECT_EQ(res.submit_failures, 0u);
  // Every operation — workload and migration replay alike — was consumed
  // exactly once somewhere (no retired shards in this run).
  EXPECT_EQ(res.ops_applied + res.ops_rejected, res.ops_submitted);
  EXPECT_GT(res.queries, 0u);
  ASSERT_EQ(res.final_versions.size(), 4u);
  ASSERT_EQ(res.per_shard_applied.size(), 4u);
  EXPECT_GT(res.per_shard_applied[2] + res.per_shard_applied[3], 0u);
}

TEST(MigrationDriverTest, RemoveShardEventSkipsStalenessInsteadOfInflatingIt) {
  PointSet ps = GenerateIndep(200, 3, 39);
  Workload wl(&ps, 71);
  ShardedLoadOptions lopt;
  lopt.num_readers = 2;
  lopt.num_submitters = 2;
  lopt.service.num_shards = 3;
  lopt.service.shard.algo.r = 6;
  lopt.service.shard.algo.max_utilities = 128;
  lopt.service.shard.max_batch = 16;
  using Event = ShardedLoadOptions::MigrationEvent;
  lopt.migrations.push_back({Event::Kind::kRemoveShard, 0.4});
  ShardedLoadResult res = RunShardedLoad(wl, lopt);
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.null_queries, 0u);
  EXPECT_EQ(res.migrations_attempted, 1u);
  EXPECT_EQ(res.migrations_failed, 0u);
  EXPECT_EQ(res.final_num_shards, 2);
  // A retired shard keeps its lifetime op count in service.ops_submitted()
  // but leaves the merged view's consumed counters, so the backlog
  // arithmetic is skipped rather than reported as a phantom staleness.
  EXPECT_EQ(res.mean_staleness_ops, 0.0);
  EXPECT_EQ(res.max_staleness_ops, 0.0);
}

TEST(MigrationResumeTest, ShardedKillAndResumeMatchesJournalReplay) {
  const std::string base = ::testing::TempDir() + "migration_resume.snapshot";
  PointSet ps = GenerateIndep(260, 3, 38);
  Workload wl(&ps, 67);
  ShardedServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.max_batch = 8;
  sopt.shard.record_journal = true;
  sopt.shard.persist_every_batches = 1;
  sopt.shard.persist_path = base;

  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  std::vector<std::vector<int>> live_before(2);
  std::vector<std::vector<FdRms::BatchOp>> journals(2);
  uint64_t epoch_before = 0;
  {
    ShardedFdRmsService service(3, sopt);
    ASSERT_TRUE(service.Start(initial).ok());
    const auto& ops = wl.operations();
    for (size_t i = 0; i < ops.size() / 2; ++i) {
      Status st = ops[i].is_insert
                      ? service.SubmitInsert(ops[i].id, ps.Get(ops[i].id))
                      : service.SubmitDelete(ops[i].id);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    // A migration mid-history: the persisted constellation must remember
    // the moved routing, not just the moved tuples.
    std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
    donor.resize(donor.size() / 2);
    ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.Stop().ok());  // kDrain: final persisted snapshots
    epoch_before = service.epoch();
    for (int s = 0; s < 2; ++s) {
      live_before[static_cast<size_t>(s)] = LiveIdsOf(service.shard(s));
      journals[static_cast<size_t>(s)] = service.shard(s).journal();
    }
  }

  // The "kill" happened above (service destroyed); resume a new
  // constellation from the persisted snapshots, without replaying history.
  ShardedServiceOptions ropt = sopt;
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});  // no P_0: everything from disk
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(resumed.epoch(), epoch_before);  // routing restored too
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(resumed.shard(s).resumed()) << "shard " << s;
  }
  auto merged = resumed.Query();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->live_tuples, static_cast<int>(live_before[0].size() +
                                                  live_before[1].size()));

  // Resumed traffic routes by the restored (post-migration) table: a
  // delete of a tuple that lives on shard 1 must find it there.
  ASSERT_FALSE(live_before[1].empty());
  const int victim_id = live_before[1].front();
  ASSERT_TRUE(resumed.SubmitDelete(victim_id).ok());
  ASSERT_TRUE(resumed.Flush().ok());
  auto after = resumed.Query();
  EXPECT_EQ(after->ops_rejected, 0u) << "resumed routing misplaced a delete";
  ASSERT_TRUE(resumed.Stop().ok());

  // Journal-replay equivalence: each resumed shard's live set equals the
  // replay of (epoch-0 partition + the original journal) — the snapshot
  // carried the full history's effect without the history.
  for (int s = 0; s < 2; ++s) {
    std::vector<std::pair<int, Point>> shard_initial;
    for (const auto& [id, point] : initial) {
      if (RoutingTable::Slotted(2)->Route(id) == s) {
        shard_initial.emplace_back(id, point);
      }
    }
    auto replay = SequentialReplay(3, sopt.shard.algo, shard_initial,
                                   journals[static_cast<size_t>(s)]);
    std::vector<int> replay_live;
    replay->topk().tree().ForEach(
        [&](int id, const Point&) { replay_live.push_back(id); });
    std::sort(replay_live.begin(), replay_live.end());
    std::vector<int> resumed_live = LiveIdsOf(resumed.shard(s));
    if (s == resumed.router().Route(victim_id)) {
      replay_live.erase(
          std::remove(replay_live.begin(), replay_live.end(), victim_id),
          replay_live.end());
    }
    EXPECT_EQ(resumed_live, replay_live) << "shard " << s;
    ASSERT_TRUE(resumed.shard(s).algorithm().Validate().ok());
  }
}

}  // namespace
}  // namespace fdrms
