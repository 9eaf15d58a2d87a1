#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "data/generators.h"
#include "eval/workload.h"

namespace fdrms {
namespace {

/// A Φ set or S(p) as an ascending vector, for set equality.
template <typename Range>
std::vector<int> Sorted(const Range& range) {
  std::vector<int> ids(range.begin(), range.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < ps.size(); ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

TEST(SnapshotTest, RoundTripPreservesLogicalState) {
  PointSet ps = GenerateAntiCor(300, 3, 1);
  FdRmsOptions opt;
  opt.k = 2;
  opt.r = 7;
  opt.eps = 0.04;
  opt.max_utilities = 128;
  opt.seed = 99;
  FdRms algo(3, opt);
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  ASSERT_TRUE(algo.Delete(5).ok());
  ASSERT_TRUE(algo.Insert(1000, {0.9, 0.8, 0.7}).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(algo, &stream).ok());
  auto loaded = LoadSnapshot(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  FdRms& restored = **loaded;
  EXPECT_EQ(restored.dim(), 3);
  EXPECT_EQ(restored.size(), algo.size());
  EXPECT_EQ(restored.options().k, 2);
  EXPECT_EQ(restored.options().r, 7);
  EXPECT_EQ(restored.options().seed, 99u);
  EXPECT_FALSE(restored.topk().tree().Contains(5));
  EXPECT_TRUE(restored.topk().tree().Contains(1000));
  ASSERT_TRUE(restored.Validate().ok());
  // Same utility sample (seeded) => identical Φ sets for every utility.
  for (int u = 0; u < restored.topk().num_utilities(); ++u) {
    EXPECT_EQ(Sorted(restored.topk().ApproxTopK(u)),
              Sorted(algo.topk().ApproxTopK(u)))
        << "utility " << u;
  }
  // The restored instance keeps serving updates.
  ASSERT_TRUE(restored.Insert(2000, {0.1, 0.9, 0.5}).ok());
  ASSERT_TRUE(restored.Validate().ok());
}

TEST(SnapshotTest, IdenticalStatesProduceIdenticalBytes) {
  PointSet ps = GenerateIndep(100, 2, 2);
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = 4;
  opt.max_utilities = 64;
  FdRms a(2, opt), b(2, opt);
  ASSERT_TRUE(a.Initialize(AsTuples(ps)).ok());
  ASSERT_TRUE(b.Initialize(AsTuples(ps)).ok());
  std::stringstream sa, sb;
  ASSERT_TRUE(SaveSnapshot(a, &sa).ok());
  ASSERT_TRUE(SaveSnapshot(b, &sb).ok());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(SnapshotTest, RejectsCorruptHeader) {
  std::stringstream stream("NOT-A-SNAPSHOT\n1 1 1 0.1 8 42\n0\n");
  EXPECT_EQ(LoadSnapshot(&stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsTruncatedTuples) {
  PointSet ps = GenerateIndep(50, 2, 3);
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = 3;
  opt.max_utilities = 32;
  FdRms algo(2, opt);
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(algo, &stream).ok());
  std::string text = stream.str();
  std::istringstream cut(text.substr(0, text.size() * 2 / 3));
  EXPECT_FALSE(LoadSnapshot(&cut).ok());
}

TEST(SnapshotTest, RejectsHugeTupleCountWithoutAllocating) {
  // A few bytes claiming INT_MAX tuples: the loader must report truncation
  // instead of reserving room for the claimed count up front.
  std::stringstream stream("FDRMS-SNAPSHOT-v1\n2 1 3 0.1 8 42\n2147483647\n"
                           "0 0.5 0.5\n");
  auto loaded = LoadSnapshot(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, RejectsHugeUtilitySampleWithoutAllocating) {
  // Each header is well-formed but asks the loader to sample a utility
  // matrix of billions of doubles: huge dim, huge r, huge M.
  for (const char* header :
       {"2147483647 1 3 0.1 8 42", "4 1 2147483647 0.1 8 42",
        "4 1 3 0.1 2147483647 42"}) {
    std::stringstream stream(std::string("FDRMS-SNAPSHOT-v1\n") + header +
                             "\n0\n");
    auto loaded = LoadSnapshot(&stream);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
  }
}

TEST(SnapshotTest, RejectsBadParameters) {
  std::stringstream stream("FDRMS-SNAPSHOT-v1\n2 0 3 0.1 8 42\n0\n");  // k=0
  EXPECT_FALSE(LoadSnapshot(&stream).ok());
  std::stringstream stream2;  // empty
  EXPECT_FALSE(LoadSnapshot(&stream2).ok());
}

// Oracle check of the cover guarantee for one instance: every universe
// utility u_i must have some q in Q_t with <u_i, q> >= (1 - eps) * omega_k,
// where omega_k is recomputed brute-force from the live tuple set.
void ExpectRegretOracleBound(const FdRms& algo, const PointSet& ps,
                             const std::vector<int>& live,
                             const std::string& label) {
  const int k = algo.options().k;
  const double eps = algo.options().eps;
  const std::vector<int> q = algo.Result();
  ASSERT_FALSE(q.empty()) << label;
  const std::vector<Point>& utilities = algo.topk().utilities();
  for (int i = 0; i < algo.current_m(); ++i) {
    const Point& u = utilities[i];
    std::vector<double> scores;
    scores.reserve(live.size());
    for (int id : live) scores.push_back(Dot(u, ps.Get(id)));
    double omega_k = 0.0;  // fewer than k live tuples => omega_k = 0
    if (static_cast<int>(scores.size()) >= k) {
      std::nth_element(scores.begin(), scores.begin() + (k - 1), scores.end(),
                       std::greater<double>());
      omega_k = scores[k - 1];
    }
    double best = 0.0;
    for (int id : q) best = std::max(best, Dot(u, ps.Get(id)));
    EXPECT_GE(best, (1.0 - eps) * omega_k - 1e-9)
        << label << ": utility " << i << " regret ratio "
        << 1.0 - best / omega_k << " exceeds eps=" << eps;
  }
}

TEST(SnapshotTest, MidWorkloadSaveLoadReplayKeepsRegretBound) {
  // Persistence under churn: run the paper's dynamic protocol halfway,
  // snapshot, restore, replay the remaining operations on both instances.
  // Both must keep serving and both must satisfy the regret-ratio oracle
  // bound on the final live set. (Q_t itself may differ: the cover is
  // recomputed on load, and any stable solution is a valid carrier.)
  PointSet ps = GenerateAntiCor(300, 3, 9);
  Workload wl(&ps, 23);
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = 10;
  opt.eps = 0.05;
  opt.max_utilities = 256;
  opt.seed = 77;
  FdRms original(3, opt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(original.Initialize(initial).ok());

  const auto& ops = wl.operations();
  const int half = static_cast<int>(ops.size()) / 2;
  auto apply = [&](FdRms* algo, int from, int to) {
    for (int i = from; i < to; ++i) {
      Status st = ops[i].is_insert ? algo->Insert(ops[i].id, ps.Get(ops[i].id))
                                   : algo->Delete(ops[i].id);
      ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
    }
  };
  apply(&original, 0, half);

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, &stream).ok());
  auto loaded = LoadSnapshot(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  FdRms& restored = **loaded;
  EXPECT_EQ(restored.size(), original.size());

  apply(&original, half, static_cast<int>(ops.size()));
  apply(&restored, half, static_cast<int>(ops.size()));

  ASSERT_TRUE(original.Validate().ok());
  ASSERT_TRUE(restored.Validate().ok());
  std::vector<int> live = wl.LiveIdsAfter(static_cast<int>(ops.size()) - 1);
  EXPECT_EQ(original.size(), static_cast<int>(live.size()));
  EXPECT_EQ(restored.size(), static_cast<int>(live.size()));
  ExpectRegretOracleBound(original, ps, live, "original");
  ExpectRegretOracleBound(restored, ps, live, "restored");
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = 3;
  opt.max_utilities = 32;
  FdRms algo(2, opt);
  ASSERT_TRUE(algo.Initialize({}).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(algo, &stream).ok());
  auto loaded = LoadSnapshot(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->size(), 0);
  ASSERT_TRUE((*loaded)->Insert(1, {0.5, 0.5}).ok());
}

// Decoder corruption matrix over a small saved file: every truncation,
// and every byte flipped by one bit and by all eight. Each mutant must
// either load into an instance that passes Validate() or fail with a
// Status; none may crash. The file is small, so no claimed count in it
// can reach an allocation that matters, and the ASan build catches any
// out-of-bounds read.
TEST(SnapshotCorruptionTest, EveryTruncationAndByteFlipLoadsValidOrFails) {
  PointSet ps = GenerateIndep(10, 2, 5);
  FdRmsOptions opt;
  opt.k = 2;
  opt.r = 3;
  opt.eps = 0.1;
  opt.max_utilities = 12;
  opt.seed = 7;
  FdRms algo(2, opt);
  ASSERT_TRUE(algo.Initialize(AsTuples(ps)).ok());
  std::stringstream saved;
  ASSERT_TRUE(SaveSnapshot(algo, &saved).ok());
  const std::string bytes = saved.str();

  int decoded = 0, rejected = 0;
  auto run = [&](const std::string& mutant, const std::string& what) {
    std::istringstream in(mutant);
    Result<std::unique_ptr<FdRms>> loaded = LoadSnapshot(&in);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty()) << what;
      ++rejected;
      return;
    }
    ++decoded;
    const Status valid = (*loaded)->Validate();
    EXPECT_TRUE(valid.ok()) << what << ": " << valid.ToString();
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    run(bytes.substr(0, len), "truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char mask : {0x01, 0xFF}) {
      std::string mutant = bytes;
      mutant[i] = static_cast<char>(static_cast<unsigned char>(mutant[i]) ^
                                    mask);
      run(mutant, "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
    }
  }
  EXPECT_GT(decoded, 0);   // e.g. a seed digit changed
  EXPECT_GT(rejected, 0);  // e.g. the magic line cut short
}

}  // namespace
}  // namespace fdrms
