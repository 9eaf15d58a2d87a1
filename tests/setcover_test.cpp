#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "setcover/dynamic_set_cover.h"
#include "setcover/set_system.h"

namespace fdrms {
namespace {

TEST(SetSystemTest, BidirectionalIncidence) {
  SetSystem sys(4);
  EXPECT_TRUE(sys.AddMembership(0, 100));
  EXPECT_TRUE(sys.AddMembership(1, 100));
  EXPECT_FALSE(sys.AddMembership(0, 100));  // duplicate
  EXPECT_TRUE(sys.Contains(0, 100));
  EXPECT_EQ(sys.ElementsOf(100).size(), 2u);
  EXPECT_EQ(sys.SetsContaining(0).size(), 1u);
  EXPECT_TRUE(sys.RemoveMembership(0, 100));
  EXPECT_FALSE(sys.RemoveMembership(0, 100));
  EXPECT_FALSE(sys.Contains(0, 100));
  EXPECT_EQ(sys.ElementsOf(100).size(), 1u);
}

TEST(SetSystemTest, EmptySetDisappears) {
  SetSystem sys(2);
  sys.AddMembership(0, 5);
  sys.RemoveMembership(0, 5);
  EXPECT_EQ(sys.num_sets(), 0u);
  EXPECT_TRUE(sys.NonEmptySetIds().empty());
}

/// Set ids spread over the whole int range, extremes included.
const std::vector<int> kScatteredIds = {INT_MIN, INT_MIN + 1, -1000003, -7, -1,
                                        0,       1,           2,        97,
                                        65536,   1 << 30,     INT_MAX - 1,
                                        INT_MAX};

template <typename Range>
std::vector<int> Sorted(const Range& range) {
  std::vector<int> v(range.begin(), range.end());
  std::sort(v.begin(), v.end());
  return v;
}

/// Checks both directions of `sys` against a reference (element, set id)
/// incidence, and that slots map one to one onto the nonempty sets.
void ExpectIncidenceEquals(const SetSystem& sys,
                           const std::set<std::pair<int, int>>& ref,
                           int num_elements) {
  std::set<int> set_ids;
  for (const auto& [e, id] : ref) set_ids.insert(id);
  ASSERT_EQ(sys.num_sets(), set_ids.size());
  ASSERT_EQ(sys.num_links(), ref.size());
  EXPECT_EQ(Sorted(sys.NonEmptySetIds()),
            std::vector<int>(set_ids.begin(), set_ids.end()));
  for (int id : kScatteredIds) {
    std::vector<int> expect;
    for (int e = 0; e < num_elements; ++e) {
      if (ref.count({e, id}) > 0) expect.push_back(e);
    }
    ASSERT_EQ(Sorted(sys.ElementsOf(id)), expect) << "set " << id;
    const int slot = sys.SlotOf(id);
    ASSERT_EQ(slot >= 0, !expect.empty()) << "set " << id;
    if (slot >= 0) {
      ASSERT_EQ(sys.SetIdOf(slot), id);
      ASSERT_EQ(sys.SlotLinks(slot).size(), expect.size());
    }
  }
  for (int e = 0; e < num_elements; ++e) {
    std::vector<int> expect;
    for (const auto& [re, id] : ref) {
      if (re == e) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(Sorted(sys.SetsContaining(e)), expect) << "element " << e;
    // Every link's mirror points back at it.
    for (size_t i = 0; i < sys.ElementLinks(e).size(); ++i) {
      const SetSystem::Link& link = sys.ElementLinks(e)[i];
      const SetSystem::Link& back =
          sys.SlotLinks(link.other)[static_cast<size_t>(link.mirror)];
      ASSERT_EQ(back.other, e);
      ASSERT_EQ(back.mirror, static_cast<int>(i));
    }
  }
  // And from the set side; a free slot holds no links.
  for (int slot = 0; slot < sys.slot_capacity(); ++slot) {
    for (size_t i = 0; i < sys.SlotLinks(slot).size(); ++i) {
      const SetSystem::Link& link = sys.SlotLinks(slot)[i];
      const SetSystem::Link& back =
          sys.ElementLinks(link.other)[static_cast<size_t>(link.mirror)];
      ASSERT_EQ(back.other, slot);
      ASSERT_EQ(back.mirror, static_cast<int>(i));
    }
  }
}

TEST(SetSystemTest, ScatteredIdsMatchReferenceAndReuseSlots) {
  const int kElements = 9;
  Rng rng(31);
  SetSystem sys(kElements);
  std::set<std::pair<int, int>> ref;
  for (int op = 0; op < 3000; ++op) {
    const int e = rng.UniformInt(kElements);
    const int id =
        kScatteredIds[static_cast<size_t>(rng.UniformInt(
            static_cast<int>(kScatteredIds.size())))];
    const int kind = rng.UniformInt(10);
    if (kind < 5) {
      EXPECT_EQ(sys.AddMembership(e, id), ref.insert({e, id}).second);
    } else if (kind < 9) {
      EXPECT_EQ(sys.RemoveMembership(e, id), ref.erase({e, id}) > 0);
    } else {
      sys.RemoveSet(id);
      for (int x = 0; x < kElements; ++x) ref.erase({x, id});
    }
    ASSERT_EQ(sys.Contains(e, id), ref.count({e, id}) > 0);
    ASSERT_NO_FATAL_FAILURE(ExpectIncidenceEquals(sys, ref, kElements))
        << "op " << op;
    // Emptied sets give their slots back, so slots never outnumber the
    // distinct ids.
    ASSERT_LE(sys.slot_capacity(), static_cast<int>(kScatteredIds.size()));
  }
}

TEST(SetSystemTest, AppendAndRemoveAtPositionMatchTheCheckedPath) {
  // One system mutated only through the unchecked routines (append a
  // known-new membership, remove by link position, highest first) beside
  // one mutated through the checked ones: the contents stay equal, every
  // link's mirror points back, and a set that empties frees its slot.
  const int kElements = 9;
  for (uint64_t seed : {5u, 17u, 23u}) {
    Rng rng(seed);
    SetSystem fast(kElements);
    SetSystem checked(kElements);
    std::set<std::pair<int, int>> ref;
    std::vector<int> positions;
    for (int op = 0; op < 3000; ++op) {
      const int e = rng.UniformInt(kElements);
      const int id =
          kScatteredIds[static_cast<size_t>(rng.UniformInt(
              static_cast<int>(kScatteredIds.size())))];
      const int kind = rng.UniformInt(10);
      if (kind < 6) {
        const bool is_new = ref.insert({e, id}).second;
        ASSERT_EQ(checked.AddMembership(e, id), is_new);
        if (is_new) {
          const int slot = fast.AppendMembership(e, id);
          ASSERT_EQ(slot, fast.SlotOf(id));
        }
      } else if (kind < 9) {
        // Remove a random subset of e's links by position.
        positions.clear();
        for (size_t at = 0; at < fast.ElementLinks(e).size(); ++at) {
          if (rng.UniformInt(2) == 0) positions.push_back(static_cast<int>(at));
        }
        for (size_t i = positions.size(); i-- > 0;) {
          const int at = positions[i];
          const int victim = fast.SetIdOf(
              fast.ElementLinks(e)[static_cast<size_t>(at)].other);
          fast.RemoveElementLinkAt(e, at);
          ASSERT_TRUE(checked.RemoveMembership(e, victim));
          ASSERT_EQ(ref.erase({e, victim}), 1u);
          ASSERT_EQ(fast.SlotOf(victim) >= 0, checked.SlotOf(victim) >= 0);
        }
      } else {
        fast.RemoveSet(id);
        checked.RemoveSet(id);
        for (int x = 0; x < kElements; ++x) ref.erase({x, id});
      }
      ASSERT_NO_FATAL_FAILURE(ExpectIncidenceEquals(fast, ref, kElements))
          << "seed " << seed << " op " << op;
      ASSERT_NO_FATAL_FAILURE(ExpectIncidenceEquals(checked, ref, kElements))
          << "seed " << seed << " op " << op;
      ASSERT_LE(fast.slot_capacity(),
                static_cast<int>(kScatteredIds.size()));
    }
  }
}

TEST(DynamicSetCoverTest, AddNewMembershipMatchesTheIdempotentAdd) {
  // The same σ stream through both σ = (u, S, +) entry points: the checked
  // one also sees every duplicate (a no-op), the unchecked one only the new
  // memberships. The solutions must be identical after every op.
  const int kElements = 24;
  Rng rng(71);
  DynamicSetCover checked(kElements);
  DynamicSetCover fast(kElements);
  std::vector<int> universe;
  for (int e = 0; e < kElements; e += 2) universe.push_back(e);
  checked.InitializeGreedy(universe);
  fast.InitializeGreedy(universe);
  for (int op = 0; op < 2000; ++op) {
    const int e = rng.UniformInt(kElements);
    const int id = rng.UniformInt(12);
    const int kind = rng.UniformInt(10);
    if (kind < 6) {
      const bool is_new = !checked.system().Contains(e, id);
      checked.AddMembership(e, id);
      if (is_new) fast.AddNewMembership(e, id);
    } else if (kind < 9) {
      checked.RemoveMembership(e, id);
      fast.RemoveMembership(e, id);
    } else if (kind == 9 && rng.UniformInt(2) == 0) {
      checked.RemoveSet(id);
      fast.RemoveSet(id);
    } else {
      checked.AddToUniverse(e);
      fast.AddToUniverse(e);
    }
    ASSERT_EQ(fast.CoverSetIds(), checked.CoverSetIds()) << "op " << op;
    for (int x = 0; x < kElements; ++x) {
      ASSERT_EQ(fast.AssignmentOf(x), checked.AssignmentOf(x)) << "op " << op;
    }
    for (int set_id : checked.CoverSetIds()) {
      ASSERT_EQ(fast.LevelOf(set_id), checked.LevelOf(set_id));
    }
    ASSERT_EQ(fast.system().num_links(), checked.system().num_links());
  }
  ASSERT_TRUE(fast.CheckInvariants().ok());
  ASSERT_TRUE(checked.CheckInvariants().ok());
}

/// Compares everything a caller can observe of two covers' solutions, and
/// checks both covers' invariants.
void ExpectSameSolution(const DynamicSetCover& a, const DynamicSetCover& b,
                        int num_elements) {
  ASSERT_EQ(a.CoverSetIds(), b.CoverSetIds());
  for (int x = 0; x < num_elements; ++x) {
    ASSERT_EQ(a.AssignmentOf(x), b.AssignmentOf(x)) << "element " << x;
  }
  for (int set_id : a.CoverSetIds()) {
    ASSERT_EQ(a.LevelOf(set_id), b.LevelOf(set_id)) << "set " << set_id;
  }
  ASSERT_EQ(a.system().num_links(), b.system().num_links());
  const Status sa = a.CheckInvariants();
  ASSERT_TRUE(sa.ok()) << sa.ToString();
  const Status sb = b.CheckInvariants();
  ASSERT_TRUE(sb.ok()) << sb.ToString();
}

/// Two covers over one random incidence, universe = the even elements.
void BuildTwin(Rng* rng, int num_elements, int num_sets, DynamicSetCover* a,
               DynamicSetCover* b) {
  for (int i = 0; i < 4 * num_elements; ++i) {
    const int e = rng->UniformInt(num_elements);
    const int id = rng->UniformInt(num_sets);
    a->AddMembership(e, id);
    b->AddMembership(e, id);
  }
  std::vector<int> universe;
  for (int e = 0; e < num_elements; e += 2) universe.push_back(e);
  a->InitializeGreedy(universe);
  b->InitializeGreedy(universe);
}

TEST(DynamicSetCoverTest, RemoveSetIsTheAscendingSigmaBySigmaRemovals) {
  // RemoveSet on one cover, RemoveMembership of each member in ascending
  // element order on its twin, for sets in C and outside it; a random σ
  // stream between them keeps the incidence and the solution moving.
  const int kElements = 40;
  const int kSets = 16;
  int in_cover = 0;
  int outside = 0;
  for (uint64_t seed : {81u, 82u, 83u, 84u}) {
    Rng rng(seed);
    DynamicSetCover whole(kElements);
    DynamicSetCover by_sigma(kElements);
    BuildTwin(&rng, kElements, kSets, &whole, &by_sigma);
    for (int op = 0; op < 1500; ++op) {
      const int e = rng.UniformInt(kElements);
      const int kind = rng.UniformInt(10);
      if (kind < 4) {
        const int id = rng.UniformInt(kSets);
        whole.AddMembership(e, id);
        by_sigma.AddMembership(e, id);
      } else if (kind < 5) {
        whole.AddToUniverse(e);
        by_sigma.AddToUniverse(e);
      } else if (kind < 6) {
        whole.RemoveFromUniverse(e);
        by_sigma.RemoveFromUniverse(e);
      } else {
        // Half the time a member of C, else any set (mostly outside C).
        int id = rng.UniformInt(kSets);
        const std::vector<int> c = whole.CoverSetIds();
        if (kind < 8 && !c.empty()) {
          id = c[static_cast<size_t>(rng.UniformInt(static_cast<int>(c.size())))];
        }
        if (whole.LevelOf(id) >= 0) {
          ++in_cover;
        } else if (whole.system().SlotOf(id) >= 0) {
          ++outside;
        }
        const std::vector<int> members = Sorted(whole.system().ElementsOf(id));
        whole.RemoveSet(id);
        for (int x : members) by_sigma.RemoveMembership(x, id);
        ASSERT_EQ(whole.system().SlotOf(id), -1);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameSolution(whole, by_sigma, kElements))
          << "seed " << seed << " op " << op << " kind " << kind;
    }
  }
  EXPECT_GT(in_cover, 100);
  EXPECT_GT(outside, 100);
}

TEST(DynamicSetCoverTest, RemoveMembershipAtMatchesRemoveMembership) {
  const int kElements = 30;
  const int kSets = 12;
  for (uint64_t seed : {91u, 92u, 93u}) {
    Rng rng(seed);
    DynamicSetCover at_pos(kElements);
    DynamicSetCover searched(kElements);
    BuildTwin(&rng, kElements, kSets, &at_pos, &searched);
    for (int op = 0; op < 1500; ++op) {
      const int e = rng.UniformInt(kElements);
      const int kind = rng.UniformInt(10);
      const auto& links = at_pos.system().ElementLinks(e);
      if (kind < 5 && !links.empty()) {
        const int at = rng.UniformInt(static_cast<int>(links.size()));
        const int id =
            at_pos.system().SetIdOf(links[static_cast<size_t>(at)].other);
        at_pos.RemoveMembershipAt(e, at);
        searched.RemoveMembership(e, id);
        ASSERT_FALSE(at_pos.system().Contains(e, id));
      } else if (kind < 9) {
        const int id = rng.UniformInt(kSets);
        at_pos.AddMembership(e, id);
        searched.AddMembership(e, id);
      } else {
        at_pos.AddToUniverse(e);
        searched.AddToUniverse(e);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameSolution(at_pos, searched, kElements))
          << "seed " << seed << " op " << op;
    }
  }
}

struct ScatteredCoverParam {
  int num_elements;
  double add_share;  // chance that a membership op adds
  uint64_t seed;
};

class ScatteredCoverTest
    : public ::testing::TestWithParam<ScatteredCoverParam> {};

TEST_P(ScatteredCoverTest, InvariantsHoldAfterEveryOp) {
  // A σ stream over scattered set ids: sets empty and lose their slots,
  // ids come back after RemoveSet, and CheckInvariants runs after every op.
  const ScatteredCoverParam param = GetParam();
  Rng rng(param.seed);
  DynamicSetCover cover(param.num_elements);
  std::set<std::pair<int, int>> ref;
  auto random_id = [&] {
    return kScatteredIds[static_cast<size_t>(
        rng.UniformInt(static_cast<int>(kScatteredIds.size())))];
  };
  for (int i = 0; i < 2 * param.num_elements; ++i) {
    const int e = rng.UniformInt(param.num_elements);
    const int id = random_id();
    cover.AddMembership(e, id);
    ref.insert({e, id});
  }
  std::vector<int> universe;
  for (int e = 0; e < param.num_elements; e += 2) universe.push_back(e);
  cover.InitializeGreedy(universe);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  for (int op = 0; op < 1500; ++op) {
    const int e = rng.UniformInt(param.num_elements);
    const int id = random_id();
    const int kind = rng.UniformInt(20);
    if (kind < 14) {
      if (rng.Uniform() < param.add_share) {
        cover.AddMembership(e, id);
        ref.insert({e, id});
      } else {
        cover.RemoveMembership(e, id);
        ref.erase({e, id});
      }
    } else if (kind < 16) {
      cover.AddToUniverse(e);
    } else if (kind < 18) {
      cover.RemoveFromUniverse(e);
    } else {
      cover.RemoveSet(id);
      for (int x = 0; x < param.num_elements; ++x) ref.erase({x, id});
    }
    Status st = cover.CheckInvariants();
    ASSERT_TRUE(st.ok()) << "op " << op << " kind " << kind << ": "
                         << st.ToString();
    ASSERT_NO_FATAL_FAILURE(
        ExpectIncidenceEquals(cover.system(), ref, param.num_elements))
        << "op " << op;
    for (int x = 0; x < param.num_elements; ++x) {
      const int set_id = cover.AssignmentOf(x);
      if (set_id == DynamicSetCover::kUnassigned) continue;
      ASSERT_GE(cover.LevelOf(set_id), 0);
      const std::vector<int>& cov = cover.CoverSetOf(set_id);
      ASSERT_NE(std::find(cov.begin(), cov.end(), x), cov.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScatteredCoverTest,
    ::testing::Values(ScatteredCoverParam{12, 0.5, 51},
                      ScatteredCoverParam{40, 0.6, 52},
                      ScatteredCoverParam{40, 0.35, 53}),
    [](const auto& info) {
      std::string name = "e";
      name += std::to_string(info.param.num_elements);
      name += "seed";
      name += std::to_string(info.param.seed);
      return name;
    });

/// Builds a cover over `m` elements where set i covers a contiguous block.
DynamicSetCover MakeBlockInstance(int m, int block, int overlap) {
  DynamicSetCover cover(m);
  // Hack: we mutate through the public API before greedy initialization.
  int set_id = 0;
  for (int start = 0; start < m; start += block - overlap) {
    for (int e = start; e < std::min(m, start + block); ++e) {
      cover.AddMembership(e, set_id);
    }
    ++set_id;
    if (start + block >= m) break;
  }
  return cover;
}

TEST(DynamicSetCoverTest, GreedyCoversEverything) {
  DynamicSetCover cover = MakeBlockInstance(40, 10, 2);
  std::vector<int> universe(40);
  for (int i = 0; i < 40; ++i) universe[i] = i;
  cover.InitializeGreedy(universe);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  for (int e = 0; e < 40; ++e) {
    EXPECT_NE(cover.AssignmentOf(e), DynamicSetCover::kUnassigned);
  }
  EXPECT_GE(cover.CoverSize(), 4);  // 40 elements / blocks of 10
}

TEST(DynamicSetCoverTest, GreedyPrefersLargeSets) {
  DynamicSetCover cover(10);
  for (int e = 0; e < 10; ++e) cover.AddMembership(e, 1);  // big set
  for (int e = 0; e < 10; ++e) cover.AddMembership(e, 100 + e);  // singletons
  std::vector<int> universe(10);
  for (int i = 0; i < 10; ++i) universe[i] = i;
  cover.InitializeGreedy(universe);
  EXPECT_EQ(cover.CoverSize(), 1);
  EXPECT_EQ(cover.CoverSetIds(), std::vector<int>{1});
  EXPECT_EQ(cover.LevelOf(1), 3);  // 2^3 <= 10 < 2^4
  ASSERT_TRUE(cover.CheckInvariants().ok());
}

TEST(DynamicSetCoverTest, RemoveMembershipReassigns) {
  DynamicSetCover cover(4);
  cover.AddMembership(0, 1);
  cover.AddMembership(1, 1);
  cover.AddMembership(0, 2);
  cover.AddMembership(2, 2);
  cover.AddMembership(3, 3);
  std::vector<int> universe{0, 1, 2, 3};
  cover.InitializeGreedy(universe);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  int assigned = cover.AssignmentOf(0);
  cover.RemoveMembership(0, assigned);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_NE(cover.AssignmentOf(0), assigned);
  EXPECT_NE(cover.AssignmentOf(0), DynamicSetCover::kUnassigned);
}

TEST(DynamicSetCoverTest, UniverseGrowAndShrink) {
  DynamicSetCover cover(6);
  for (int e = 0; e < 6; ++e) cover.AddMembership(e, e / 2);
  cover.InitializeGreedy({0, 1, 2, 3});
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_EQ(cover.UniverseSize(), 4);
  cover.AddToUniverse(4);
  cover.AddToUniverse(5);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_EQ(cover.UniverseSize(), 6);
  EXPECT_NE(cover.AssignmentOf(5), DynamicSetCover::kUnassigned);
  cover.RemoveFromUniverse(0);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_EQ(cover.AssignmentOf(0), DynamicSetCover::kUnassigned);
  EXPECT_EQ(cover.UniverseSize(), 5);
}

TEST(DynamicSetCoverTest, RemoveSetReassignsItsCover) {
  DynamicSetCover cover(4);
  for (int e = 0; e < 4; ++e) cover.AddMembership(e, 1);
  for (int e = 0; e < 4; ++e) cover.AddMembership(e, 2);
  cover.InitializeGreedy({0, 1, 2, 3});
  int kept = cover.CoverSetIds().front();
  cover.RemoveSet(kept);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  for (int e = 0; e < 4; ++e) {
    EXPECT_NE(cover.AssignmentOf(e), DynamicSetCover::kUnassigned);
  }
  EXPECT_TRUE(cover.system().ElementsOf(kept).empty());
}

TEST(DynamicSetCoverTest, UncoverableElementToleratedUntilCoverable) {
  DynamicSetCover cover(2);
  cover.AddMembership(0, 7);
  cover.InitializeGreedy({0, 1});  // element 1 is in no set
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_EQ(cover.AssignmentOf(1), DynamicSetCover::kUnassigned);
  cover.AddMembership(1, 7);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_EQ(cover.AssignmentOf(1), 7);
}

struct CoverChurnParam {
  int num_elements;
  int num_sets;
  double density;
  int num_ops;
  uint64_t seed;
};

class SetCoverChurnTest : public ::testing::TestWithParam<CoverChurnParam> {};

TEST_P(SetCoverChurnTest, StabilityInvariantsSurviveRandomChurn) {
  const CoverChurnParam param = GetParam();
  Rng rng(param.seed);
  DynamicSetCover cover(param.num_elements);
  // Random incidence.
  for (int e = 0; e < param.num_elements; ++e) {
    for (int s = 0; s < param.num_sets; ++s) {
      if (rng.Uniform() < param.density) cover.AddMembership(e, s);
    }
    // Guarantee coverability.
    cover.AddMembership(e, rng.UniformInt(param.num_sets));
  }
  std::vector<int> universe(param.num_elements);
  for (int i = 0; i < param.num_elements; ++i) universe[i] = i;
  cover.InitializeGreedy(universe);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  for (int op = 0; op < param.num_ops; ++op) {
    int kind = rng.UniformInt(5);
    int e = rng.UniformInt(param.num_elements);
    int s = rng.UniformInt(param.num_sets);
    switch (kind) {
      case 0:
        cover.AddMembership(e, s);
        break;
      case 1:
        cover.RemoveMembership(e, s);
        break;
      case 2:
        cover.AddToUniverse(e);
        break;
      case 3:
        cover.RemoveFromUniverse(e);
        break;
      case 4:
        cover.RemoveSet(s);
        break;
    }
    if (op % 10 == 9) {
      ASSERT_TRUE(cover.CheckInvariants().ok())
          << "op " << op << " kind " << kind;
    }
  }
  ASSERT_TRUE(cover.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetCoverChurnTest,
    ::testing::Values(CoverChurnParam{20, 8, 0.2, 300, 41},
                      CoverChurnParam{50, 15, 0.1, 400, 42},
                      CoverChurnParam{100, 12, 0.05, 400, 43},
                      CoverChurnParam{64, 64, 0.03, 500, 44},
                      CoverChurnParam{30, 5, 0.5, 500, 45}),
    [](const auto& info) {
      std::string name = "e";
      name += std::to_string(info.param.num_elements);
      name += 's';
      name += std::to_string(info.param.num_sets);
      name += "seed";
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(DynamicSetCoverTest, ApproximationStaysLogarithmic) {
  // Block instance with a known optimal cover size; the stable solution
  // must stay within the O(log m) factor of Theorem 1.
  Rng rng(99);
  const int m = 256;
  DynamicSetCover cover(m);
  // Optimal cover: 8 blocks of 32.
  for (int b = 0; b < 8; ++b) {
    for (int e = b * 32; e < (b + 1) * 32; ++e) cover.AddMembership(e, b);
  }
  // Noise sets.
  for (int s = 100; s < 200; ++s) {
    for (int j = 0; j < 6; ++j) {
      cover.AddMembership(rng.UniformInt(m), s);
    }
  }
  std::vector<int> universe(m);
  for (int i = 0; i < m; ++i) universe[i] = i;
  cover.InitializeGreedy(universe);
  ASSERT_TRUE(cover.CheckInvariants().ok());
  double bound = (2.0 + 2.0 * std::log2(m)) * 8;
  EXPECT_LE(cover.CoverSize(), bound);
  // Churn memberships of noise sets, then re-check the bound.
  for (int op = 0; op < 500; ++op) {
    int s = 100 + rng.UniformInt(100);
    int e = rng.UniformInt(m);
    if (rng.Uniform() < 0.5) {
      cover.AddMembership(e, s);
    } else {
      cover.RemoveMembership(e, s);
    }
  }
  ASSERT_TRUE(cover.CheckInvariants().ok());
  EXPECT_LE(cover.CoverSize(), bound);
}

}  // namespace
}  // namespace fdrms
