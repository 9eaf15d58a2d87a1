#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/durable_io.h"
#include "common/fault_point.h"
#include "core/snapshot.h"
#include "data/generators.h"
#include "shard/manifest.h"
#include "shard/sharded_service.h"

// All suites here are named Manifest* on purpose: the `tsan` CMake test
// preset (and the CI ThreadSanitizer job) selects them with the regex
// ^(Serve|Shard|Migration|Obs|Control|Manifest).

namespace fdrms {
namespace {

/// A Φ set or S(p) as an ascending vector, for set equality.
template <typename Range>
std::vector<int> Sorted(const Range& range) {
  std::vector<int> ids(range.begin(), range.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A per-test store prefix inside the test temp dir, wiped of any leftover
/// constellation files from a previous run of the same binary.
std::string CleanBase(const std::string& name) {
  const std::string base = ::testing::TempDir() + name;
  const std::string prefix = FileBasename(base);
  std::error_code ec;
  std::filesystem::directory_iterator it(::testing::TempDir(), ec);
  const std::filesystem::directory_iterator end;
  while (!ec && it != end) {
    const std::string f = it->path().filename().string();
    if (f.compare(0, prefix.size(), prefix) == 0) {
      std::error_code rm;
      std::filesystem::remove(it->path(), rm);
    }
    it.increment(ec);
  }
  return base;
}

std::vector<std::string> FilesWithPrefix(const std::string& base) {
  const std::string prefix = FileBasename(base);
  std::vector<std::string> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(::testing::TempDir(), ec);
  const std::filesystem::directory_iterator end;
  while (!ec && it != end) {
    const std::string f = it->path().filename().string();
    if (f.compare(0, prefix.size(), prefix) == 0) out.push_back(f);
    it.increment(ec);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TruncateFile(const std::string& path, std::size_t keep) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    bytes = oss.str();
  }
  ASSERT_GT(bytes.size(), keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(keep));
}

void CorruptFile(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(static_cast<bool>(f)) << path;
  f.seekp(0);
  f.put('#');
}

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps, int count) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

/// Live tuple ids of one shard, ascending (valid after Stop).
std::vector<int> LiveIdsOf(const FdRmsService& shard) {
  std::vector<int> ids;
  shard.algorithm().topk().tree().ForEach(
      [&](int id, const Point&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Conservation + ownership oracle: every live id appears exactly once
/// across the constellation and on the shard the routing epoch assigns it.
void ExpectOwnershipMatchesRouting(const ShardedFdRmsService& service,
                                   std::vector<int>* union_out = nullptr) {
  std::unordered_map<int, int> owner;
  for (int s = 0; s < service.num_shards(); ++s) {
    for (int id : LiveIdsOf(service.shard(s))) {
      auto [it, inserted] = owner.emplace(id, s);
      EXPECT_TRUE(inserted) << "id " << id << " live on shards " << it->second
                            << " and " << s;
      EXPECT_EQ(service.router().Route(id), s)
          << "id " << id << " lives on shard " << s << " but routes to "
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

ShardedServiceOptions DurableOptions(const std::string& base, int shards) {
  ShardedServiceOptions sopt;
  sopt.num_shards = shards;
  sopt.shard.algo.r = 6;
  sopt.shard.algo.max_utilities = 128;
  sopt.shard.max_batch = 8;
  sopt.shard.persist_every_batches = 1;
  sopt.shard.persist_path = base;
  sopt.manifest_commit_every_ms = 0;  // deterministic: commit at cutover/Stop
  return sopt;
}

/// Reads one snapshot file back through LoadSnapshot.
std::unique_ptr<FdRms> LoadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  auto loaded = LoadSnapshot(&in);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
  return loaded.ok() ? std::move(*loaded) : nullptr;
}

/// A resumed instance *is* the one LoadSnapshot builds from its file: the
/// same m, the same Q_t, and the same Φ set for every sampled utility.
void ExpectSameInstance(const FdRms& resumed, const FdRms& loaded) {
  EXPECT_EQ(resumed.current_m(), loaded.current_m());
  EXPECT_EQ(resumed.Result(), loaded.Result());
  ASSERT_EQ(resumed.topk().num_utilities(), loaded.topk().num_utilities());
  for (int i = 0; i < loaded.topk().num_utilities(); ++i) {
    EXPECT_EQ(Sorted(resumed.topk().ApproxTopK(i)),
              Sorted(loaded.topk().ApproxTopK(i)))
        << "utility " << i;
  }
  Status valid = resumed.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

/// Fault sites are process-global; every test starts and ends disarmed.
class ManifestCrashGuard : public ::testing::Test {
 protected:
  void SetUp() override { FaultPoints::Reset(); }
  void TearDown() override { FaultPoints::Reset(); }
};

/// Arms an in-process crash at `site`: reaching it latches
/// FaultPoints::crashed() and every durable write after it is refused.
void ArmCrash(const std::string& site) {
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  FaultPoints::Arm(site, crash);
}

// ---------------------------------------------------------------------------
// Format: encode/decode round-trip and corruption rejection.
// ---------------------------------------------------------------------------

ConstellationManifest SampleManifest() {
  ConstellationManifest m;
  m.generation = 7;
  m.epoch = 3;
  m.shard_count = 2;
  m.routing_checksum = 0xdeadbeefcafe1234ull;
  m.routing_file = "store.routing.e3";
  m.shards.push_back({0, 4, 120, 0x1111222233334444ull, "store.shard0.g4.b120"});
  m.shards.push_back({1, 2, 95, 0x5555666677778888ull, ""});
  return m;
}

TEST(ManifestFormatTest, EncodeDecodeRoundTrip) {
  const ConstellationManifest m = SampleManifest();
  Result<ConstellationManifest> back = DecodeManifest(EncodeManifest(m));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().generation, 7);
  EXPECT_EQ(back.value().epoch, 3);
  EXPECT_EQ(back.value().shard_count, 2);
  EXPECT_EQ(back.value().routing_checksum, m.routing_checksum);
  EXPECT_EQ(back.value().routing_file, m.routing_file);
  ASSERT_EQ(back.value().shards.size(), 2u);
  EXPECT_EQ(back.value().shards[0].file, "store.shard0.g4.b120");
  EXPECT_EQ(back.value().shards[0].gen, 4);
  EXPECT_EQ(back.value().shards[0].batches, 120);
  EXPECT_EQ(back.value().shards[0].checksum, 0x1111222233334444ull);
  EXPECT_EQ(back.value().shards[1].file, "");  // "-" decodes to empty
}

TEST(ManifestFormatTest, DecodeRejectsTamperedBody) {
  std::string text = EncodeManifest(SampleManifest());
  const std::size_t pos = text.find("epoch 3");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = '9';  // body no longer matches the checksum trailer
  Result<ConstellationManifest> back = DecodeManifest(text);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInternal);
}

TEST(ManifestFormatTest, DecodeRejectsTruncation) {
  const std::string text = EncodeManifest(SampleManifest());
  Result<ConstellationManifest> back =
      DecodeManifest(text.substr(0, text.size() / 2));
  EXPECT_FALSE(back.ok());  // torn write: missing/invalid trailer
}

TEST(ManifestFormatTest, DecodeRejectsShardRowMismatch) {
  ConstellationManifest m = SampleManifest();
  m.shard_count = 3;  // one more than the rows present
  Result<ConstellationManifest> back = DecodeManifest(EncodeManifest(m));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInternal);
}

TEST(ManifestFormatTest, DecodeRejectsShardCountOutsideSlotRange) {
  // Rows match the count in every case, so only the [1, kNumHashSlots]
  // bound can reject: zero shards would build an empty routing table, and
  // more shards than slots leaves some owning nothing.
  auto with_count = [](int count) {
    ConstellationManifest m = SampleManifest();
    m.shard_count = count;
    m.shards.clear();
    for (int i = 0; i < count; ++i) m.shards.push_back({i, 0, 0, 0, ""});
    return DecodeManifest(EncodeManifest(m));
  };
  for (int count : {0, kNumHashSlots + 1}) {
    Result<ConstellationManifest> back = with_count(count);
    ASSERT_FALSE(back.ok()) << "shard_count " << count;
    EXPECT_EQ(back.status().code(), StatusCode::kInternal);
  }
  EXPECT_TRUE(with_count(1).ok());
  EXPECT_TRUE(with_count(kNumHashSlots).ok());
}

TEST(ManifestFormatTest, SlotAlternatesOnGeneration) {
  EXPECT_EQ(ManifestSlotPath("s", 0), "s.manifest.a");
  EXPECT_EQ(ManifestSlotPath("s", 1), "s.manifest.b");
  EXPECT_EQ(ShardSnapshotPath("s", 2, 5, 40), "s.shard2.g5.b40");
  EXPECT_EQ(RoutingSnapshotPath("s", 9), "s.routing.e9");
}

// ---------------------------------------------------------------------------
// Corruption matrix: every truncation and every single-byte flip of a saved
// routing file and manifest decodes to a Status or to a value resume can
// use — never an abort, never a slot owner out of range.
// ---------------------------------------------------------------------------

/// Every truncation of `bytes`, then every byte XOR 0x01 and XOR 0xFF.
/// `decode` returns true when the mutant decoded (and was validated by the
/// callback itself); the counts make sure both outcomes were exercised.
template <typename Decode>
void ForEachMutant(const std::string& bytes, const Decode& decode,
                   int* decoded, int* rejected) {
  auto run = [&](const std::string& mutant) {
    if (decode(mutant)) {
      ++*decoded;
    } else {
      ++*rejected;
    }
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    run(bytes.substr(0, len));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char mask : {0x01, 0xFF}) {
      std::string mutant = bytes;
      mutant[i] = static_cast<char>(static_cast<unsigned char>(mutant[i]) ^
                                    mask);
      run(mutant);
    }
  }
}

/// True when `text` decodes; then it must describe a constellation resume
/// can build: 1..kNumHashSlots shards, one row per shard in index order.
bool DecodesToUsableManifest(const std::string& text) {
  Result<ConstellationManifest> m = DecodeManifest(text);
  if (!m.ok()) return false;
  const ConstellationManifest& v = m.value();
  EXPECT_GE(v.shard_count, 1);
  EXPECT_LE(v.shard_count, kNumHashSlots);
  EXPECT_EQ(v.shards.size(), static_cast<std::size_t>(v.shard_count));
  for (std::size_t i = 0; i < v.shards.size(); ++i) {
    EXPECT_EQ(v.shards[i].index, static_cast<int>(i));
  }
  return true;
}

/// Recomputes the trailer over a (mutated) body, so the parser behind the
/// checksum sees the mutation instead of the checksum rejecting it first.
std::string Reseal(const std::string& body) {
  return body + "checksum " + ChecksumHex(Fnv1a64(body.data(), body.size())) +
         "\n";
}

/// A real two-shard store after one slot migration: the newest manifest
/// and the routing file it references.
void SavedStoreFiles(std::string* manifest, std::string* routing) {
  const std::string base = CleanBase("manifest_matrix.store");
  PointSet ps = GenerateIndep(40, 3, 24);
  {
    ShardedFdRmsService service(3, DurableOptions(base, 2));
    ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
    std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
    donor.resize(donor.size() / 2);
    ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
    ASSERT_TRUE(service.Stop().ok());
  }
  Result<LoadedManifest> loaded = LoadNewestManifest(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<std::string> m =
      ReadFileToString(ManifestSlotPath(base, loaded.value().slot));
  ASSERT_TRUE(m.ok());
  ASSERT_FALSE(loaded.value().manifest.routing_file.empty());
  Result<std::string> r =
      ReadFileToString(JoinDirOf(base, loaded.value().manifest.routing_file));
  ASSERT_TRUE(r.ok());
  *manifest = m.value();
  *routing = r.value();
}

TEST(ManifestCorruptionTest, RoutingFileMutantsLoadValidOrFail) {
  std::string manifest, routing;
  ASSERT_NO_FATAL_FAILURE(SavedStoreFiles(&manifest, &routing));
  int decoded = 0, rejected = 0;
  ForEachMutant(
      routing,
      [](const std::string& bytes) {
        std::istringstream in(bytes);
        auto table_or = RoutingTable::Load(&in);
        if (!table_or.ok()) return false;
        const RoutingTable& table = **table_or;
        EXPECT_GE(table.num_shards(), 1);
        EXPECT_LE(table.num_shards(), kNumHashSlots);
        // Every slot has exactly one owner in [0, num_shards).
        std::size_t owned = 0;
        for (int s = 0; s < table.num_shards(); ++s) {
          owned += table.SlotsOwnedBy(s).size();
        }
        EXPECT_EQ(owned, static_cast<std::size_t>(kNumHashSlots));
        return true;
      },
      &decoded, &rejected);
  EXPECT_GT(decoded, 0);   // e.g. one owner digit flipped to another shard
  EXPECT_GT(rejected, 0);  // e.g. any truncation inside the owner line
  std::istringstream intact(routing);
  EXPECT_TRUE(RoutingTable::Load(&intact).ok());
}

TEST(ManifestCorruptionTest, ManifestMutantsDecodeValidOrFail) {
  std::string manifest, routing;
  ASSERT_NO_FATAL_FAILURE(SavedStoreFiles(&manifest, &routing));
  ASSERT_TRUE(DecodesToUsableManifest(manifest));

  // Raw mutants: the checksum trailer rejects nearly all of them.
  int decoded = 0, rejected = 0;
  ForEachMutant(manifest, DecodesToUsableManifest, &decoded, &rejected);
  EXPECT_GT(rejected, 0);

  // Resealed mutants: the body parser itself must hold the line.
  const std::size_t trailer = manifest.rfind("\nchecksum ");
  ASSERT_NE(trailer, std::string::npos);
  const std::string body = manifest.substr(0, trailer + 1);
  int body_decoded = 0, body_rejected = 0;
  ForEachMutant(
      body,
      [](const std::string& mutant) {
        return DecodesToUsableManifest(Reseal(mutant));
      },
      &body_decoded, &body_rejected);
  EXPECT_GT(body_decoded, 0);   // e.g. a generation digit changed
  EXPECT_GT(body_rejected, 0);  // e.g. the magic line cut short
}

// ---------------------------------------------------------------------------
// Commit protocol: manifests land at Start, cutover, and Stop; counters
// surface routing persistence instead of swallowing it.
// ---------------------------------------------------------------------------

TEST(ManifestCommitTest, StartCutoverAndStopEachCommitAGeneration) {
  const std::string base = CleanBase("manifest_commit.store");
  PointSet ps = GenerateIndep(80, 3, 11);
  ShardedServiceOptions sopt = DurableOptions(base, 2);
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
  EXPECT_EQ(service.manifest_commits(), 1u);   // the Start-end commit
  EXPECT_EQ(service.routing_persists(), 1u);   // .routing.e0
  EXPECT_EQ(service.routing_persist_failures(), 0u);

  std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
  donor.resize(donor.size() / 2);
  ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
  EXPECT_EQ(service.manifest_commits(), 2u);   // the cutover commit
  EXPECT_EQ(service.routing_persists(), 2u);   // .routing.e1

  // New traffic dirties the ledger so Stop has something to commit (with a
  // clean ledger Stop's commit is a deliberate no-op).
  for (int id = 60; id < 70; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_GE(service.manifest_commits(), 3u);   // the Stop commit
  EXPECT_EQ(service.manifest_commit_failures(), 0u);
  EXPECT_EQ(service.routing_persists(), 2u);   // epoch unchanged: no rewrite

  Result<LoadedManifest> loaded = LoadNewestManifest(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest.epoch, 1);
  EXPECT_EQ(loaded.value().manifest.shard_count, 2);
  for (const ManifestShardEntry& e : loaded.value().manifest.shards) {
    ASSERT_FALSE(e.file.empty()) << "shard " << e.index << " never persisted";
    Result<std::uint64_t> cksum = ChecksumFile(JoinDirOf(base, e.file));
    ASSERT_TRUE(cksum.ok()) << cksum.status().ToString();
    EXPECT_EQ(cksum.value(), e.checksum) << "shard " << e.index;
  }
}

TEST_F(ManifestCrashGuard, RoutingPersistFailureIsCountedNotSwallowed) {
  const std::string base = CleanBase("manifest_routing_fail.store");
  PointSet ps = GenerateIndep(60, 3, 12);
  ShardedServiceOptions sopt = DurableOptions(base, 2);
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());

  // The next routing write (the epoch-1 cutover's) dies mid-protocol; the
  // old code returned void and dropped this on the floor.
  ArmCrash("shard.routing.tmp_written");
  std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
  donor.resize(donor.size() / 2);
  ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
  EXPECT_EQ(service.routing_persist_failures(), 1u);
  EXPECT_GE(service.manifest_commit_failures(), 1u);
  FaultPoints::Reset();
  (void)service.Stop();
}

TEST(ManifestCommitTest, TickerCommitsBetweenCutovers) {
  const std::string base = CleanBase("manifest_ticker.store");
  PointSet ps = GenerateIndep(80, 3, 13);
  ShardedServiceOptions sopt = DurableOptions(base, 2);
  sopt.manifest_commit_every_ms = 10;
  ShardedFdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
  const uint64_t base_commits = service.manifest_commits();  // Start's
  // New batches dirty the ledger; with no cutover in sight only the ticker
  // can reference them in a manifest.
  for (int id = 40; id < 70; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  for (int tries = 0;
       tries < 400 && service.manifest_commits() <= base_commits; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(service.manifest_commits(), base_commits)
      << "ticker never committed the dirty ledger";
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(service.manifest_commit_failures(), 0u);
}

// ---------------------------------------------------------------------------
// Resume: the manifest is the topology authority.
// ---------------------------------------------------------------------------

TEST(ManifestResumeTest, ManifestNotConstructorDecidesTheShardCount) {
  const std::string base = CleanBase("manifest_topo.store");
  PointSet ps = GenerateIndep(80, 3, 17);
  std::vector<int> union_before;
  {
    ShardedFdRmsService service(3, DurableOptions(base, 3));
    ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
    ASSERT_TRUE(service.Stop().ok());
    ExpectOwnershipMatchesRouting(service, &union_before);
  }
  // The old contract — "construct the resuming service with the persisted
  // shard count" — is gone: construct with 1, resume to 3.
  ShardedServiceOptions ropt = DurableOptions(base, 1);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(resumed.num_shards(), 3);
  ASSERT_TRUE(resumed.Stop().ok());
  std::vector<int> union_after;
  ExpectOwnershipMatchesRouting(resumed, &union_after);
  EXPECT_EQ(union_after, union_before);
}

TEST(ManifestCommitTest, PersistenceWithoutABasePathFailsStart) {
  ShardedServiceOptions sopt = DurableOptions("", 2);
  ShardedFdRmsService service(3, sopt);
  EXPECT_EQ(service.Start({}).code(), StatusCode::kInvalidArgument);
}

TEST(ManifestResumeTest, ResumedServiceIsItsLoadedSnapshot) {
  const std::string base = CleanBase("manifest_single.store");
  PointSet ps = GenerateIndep(300, 3, 21);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 128;
  sopt.persist_every_batches = 1;
  sopt.persist_version_path = [base](long long gen, long long batches) {
    return base + ".g" + std::to_string(gen) + ".b" + std::to_string(batches);
  };
  std::string file;  // written on the writer thread, read after Stop
  sopt.on_persist = [&file](const PersistEvent& ev) { file = ev.file; };
  {
    FdRmsService service(3, sopt);
    ASSERT_TRUE(service.Start(AsTuples(ps, 200)).ok());
    for (int id = 200; id < 300; ++id) {
      ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
    }
    for (int id = 0; id < 60; ++id) ASSERT_TRUE(service.SubmitDelete(id).ok());
    ASSERT_TRUE(service.Stop().ok());
  }
  ASSERT_FALSE(file.empty());
  std::unique_ptr<FdRms> loaded = LoadFile(file);
  ASSERT_NE(loaded, nullptr);

  FdRmsServiceOptions ropt;
  ropt.algo = sopt.algo;
  ropt.resume_path = file;
  FdRmsService resumed(3, ropt);
  ASSERT_TRUE(resumed.Start({}).ok());
  EXPECT_TRUE(resumed.resumed());
  ASSERT_TRUE(resumed.Stop().ok());
  EXPECT_EQ(resumed.algorithm().size(), 240);
  ExpectSameInstance(resumed.algorithm(), *loaded);
}

TEST(ManifestResumeTest, ResumedShardsAreTheirLoadedSnapshots) {
  const std::string base = CleanBase("manifest_identity.store");
  PointSet ps = GenerateIndep(300, 3, 22);
  {
    ShardedFdRmsService service(3, DurableOptions(base, 2));
    ASSERT_TRUE(service.Start(AsTuples(ps, 200)).ok());
    for (int id = 200; id < 300; ++id) {
      ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
    }
    for (int id = 0; id < 60; ++id) ASSERT_TRUE(service.SubmitDelete(id).ok());
    ASSERT_TRUE(service.Stop().ok());
  }
  // Load every file the newest manifest names before the resumed service
  // commits (and garbage-collects) generations of its own.
  auto newest = LoadNewestManifest(base);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  const ConstellationManifest& manifest = (*newest).manifest;
  ASSERT_EQ(manifest.shards.size(), 2u);
  std::vector<std::unique_ptr<FdRms>> loaded;
  for (const ManifestShardEntry& e : manifest.shards) {
    loaded.push_back(LoadFile(JoinDirOf(base, e.file)));
    ASSERT_NE(loaded.back(), nullptr);
  }

  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  ASSERT_TRUE(resumed.Start({}).ok());
  EXPECT_TRUE(resumed.resumed());
  ASSERT_TRUE(resumed.Stop().ok());
  ASSERT_EQ(resumed.num_shards(), 2);
  int live = 0;
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    live += resumed.shard(s).algorithm().size();
    ExpectSameInstance(resumed.shard(s).algorithm(), *loaded[s]);
  }
  EXPECT_EQ(live, 240);
}

TEST(ManifestResumeTest, SnapshotsWithoutManifestFailLoudly) {
  const std::string base = CleanBase("manifest_orphan.store");
  {  // versioned-looking snapshot files, no manifest: a torn store
    std::ofstream(base + ".shard0.g1.b0") << "snapshot bytes";
    std::ofstream(base + ".routing.e0") << "routing bytes";
  }
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService service(3, ropt);
  Status started = service.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition)
      << started.ToString();
}

TEST(ManifestResumeTest, OldTornStateLayoutIsRejectedNotGuessed) {
  const std::string base = CleanBase("manifest_legacy.store");
  {  // the pre-manifest layout: mutable .shard<i> files + .routing, which
     // the old resume would happily load even when mutually inconsistent
    std::ofstream(base + ".shard0") << "stale shard 0 snapshot";
    std::ofstream(base + ".shard1") << "stale shard 1 snapshot";
    std::ofstream(base + ".routing") << "routing from another moment";
  }
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService service(3, ropt);
  Status started = service.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition)
      << started.ToString();
}

TEST(ManifestResumeTest, FreshDirectoryBootsFreshNotResumed) {
  const std::string base = CleanBase("manifest_fresh.store");
  PointSet ps = GenerateIndep(40, 3, 19);
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;  // nothing there yet
  ShardedFdRmsService service(3, ropt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 30)).ok());
  EXPECT_FALSE(service.resumed());
  EXPECT_EQ(service.num_shards(), 2);
  EXPECT_GE(service.manifest_commits(), 1u);  // first boot still commits
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ManifestResumeTest, ResumePathMustMatchPersistPath) {
  const std::string base = CleanBase("manifest_mismatch.store");
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base + ".elsewhere";
  ShardedFdRmsService service(3, ropt);
  Status started = service.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);

  ShardedServiceOptions nopersist = DurableOptions(base, 2);
  nopersist.shard.persist_every_batches = 0;  // persistence off
  nopersist.shard.resume_path = base;
  ShardedFdRmsService service2(3, nopersist);
  Status started2 = service2.Start({});
  ASSERT_FALSE(started2.ok());
  EXPECT_EQ(started2.code(), StatusCode::kInvalidArgument);
}

TEST(ManifestResumeTest, ZeroShardManifestFailsStartWithAStatus) {
  // A checksummed manifest at epoch 0 with no routing snapshot and no
  // shards: resume must refuse it, not build a zero-shard routing table.
  const std::string base = CleanBase("manifest_zero.store");
  ConstellationManifest m;
  m.generation = 1;
  m.epoch = 0;
  m.shard_count = 0;
  ASSERT_TRUE(CommitManifestSlot(base, m).ok());
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService service(3, ropt);
  Status started = service.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInternal) << started.ToString();
  EXPECT_FALSE(service.running());
}

TEST(ManifestResumeTest, DeferredTopologyGuardsBeforeStart) {
  const std::string base = CleanBase("manifest_guards.store");
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService service(3, ropt);
  // No shards exist until Start resolves the manifest.
  PointSet ps = GenerateIndep(4, 3, 20);
  EXPECT_EQ(service.Submit({FdRms::BatchOp::Kind::kInsert, 0, ps.Get(0)})
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Query(), nullptr);
}

TEST(ManifestResumeTest, TornNewestManifestFallsBackToPreviousGeneration) {
  const std::string base = CleanBase("manifest_torn.store");
  PointSet ps = GenerateIndep(80, 3, 21);
  {
    ShardedFdRmsService service(3, DurableOptions(base, 2));
    ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());       // gen 1
    std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
    donor.resize(donor.size() / 2);
    ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());  // gen 2
    // Post-migration traffic dirties the ledger; Stop commits it as gen 3.
    for (int id = 60; id < 80; ++id) {
      ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.Stop().ok());                        // gen 3
  }
  // Tear the slot holding the newest generation mid-write.
  Result<LoadedManifest> before = LoadNewestManifest(base);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().present_slots, 2);
  ASSERT_EQ(before.value().manifest.generation, 3);
  TruncateFile(ManifestSlotPath(base, before.value().slot), 30);

  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(resumed.epoch(), 1u);  // gen 2 = the post-migration epoch
  ASSERT_TRUE(resumed.Stop().ok());
  // Gen 2 predates the late inserts: exactly the initial 60 tuples, routed
  // by the post-migration epoch.
  std::vector<int> restored;
  ExpectOwnershipMatchesRouting(resumed, &restored);
  std::vector<int> initial_ids;
  for (int i = 0; i < 60; ++i) initial_ids.push_back(i);
  EXPECT_EQ(restored, initial_ids);
}

TEST(ManifestResumeTest, BothSlotsCorruptRefusesToServe) {
  const std::string base = CleanBase("manifest_allcorrupt.store");
  PointSet ps = GenerateIndep(60, 3, 22);
  {
    ShardedFdRmsService service(3, DurableOptions(base, 2));
    ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
    std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
    donor.resize(donor.size() / 2);
    ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
    ASSERT_TRUE(service.Stop().ok());
  }
  TruncateFile(ManifestSlotPath(base, 0), 10);
  TruncateFile(ManifestSlotPath(base, 1), 10);
  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInternal) << started.ToString();
}

TEST(ManifestResumeTest, CorruptedSnapshotFailsItsManifestChecksum) {
  const std::string base = CleanBase("manifest_badsnap.store");
  PointSet ps = GenerateIndep(60, 3, 23);
  {
    ShardedFdRmsService service(3, DurableOptions(base, 2));
    ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
    ASSERT_TRUE(service.Stop().ok());
  }
  Result<LoadedManifest> loaded = LoadNewestManifest(base);
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(loaded.value().manifest.shards[0].file.empty());
  CorruptFile(JoinDirOf(base, loaded.value().manifest.shards[0].file));

  ShardedServiceOptions ropt = DurableOptions(base, 2);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInternal) << started.ToString();
}

TEST(ManifestResumeTest, RetiredShardSnapshotIsSupersededNotResurrected) {
  const std::string base = CleanBase("manifest_retire.store");
  PointSet ps = GenerateIndep(100, 3, 24);
  std::vector<int> union_before;
  uint64_t epoch_before = 0;
  {
    ShardedFdRmsService service(3, DurableOptions(base, 3));
    ASSERT_TRUE(service.Start(AsTuples(ps, 80)).ok());
    // Delete some tuples so "resurrection" would be observable as extra
    // live ids, then retire shard 2 (its last snapshot stays on disk until
    // the post-retire commits supersede it).
    for (int id = 0; id < 20; ++id) {
      ASSERT_TRUE(service.SubmitDelete(id).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.RemoveShard().ok());
    // Post-retirement traffic: the next commit's two-generation GC window
    // closes over the victim's snapshot and unlinks it.
    for (int id = 80; id < 100; ++id) {
      ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.Stop().ok());
    epoch_before = service.epoch();
    ExpectOwnershipMatchesRouting(service, &union_before);
    ASSERT_EQ(service.num_shards(), 2);
  }
  // The Stop-commit's GC window has closed over the victim: no .shard2
  // snapshot survives to be mistaken for live state.
  for (const std::string& f : FilesWithPrefix(base)) {
    EXPECT_EQ(f.find(".shard2."), std::string::npos)
        << "victim snapshot " << f << " survived retirement";
  }
  ShardedServiceOptions ropt = DurableOptions(base, 3);
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(resumed.num_shards(), 2);  // not 3: the manifest knows
  EXPECT_EQ(resumed.epoch(), epoch_before);
  ASSERT_TRUE(resumed.Stop().ok());
  std::vector<int> union_after;
  ExpectOwnershipMatchesRouting(resumed, &union_after);
  EXPECT_EQ(union_after, union_before);  // deleted tuples stayed dead
}

// ---------------------------------------------------------------------------
// Crash matrix: inject a crash at every step of the multi-file commit and
// prove resume lands on exactly the pre- or post-commit constellation.
// ---------------------------------------------------------------------------

struct CrashCase {
  const char* point;     ///< armed before the migration fires
  bool post_migration;   ///< resume must see the post-cutover epoch
};

class ManifestCrashMatrixTest
    : public ManifestCrashGuard,
      public ::testing::WithParamInterface<CrashCase> {};

TEST_P(ManifestCrashMatrixTest, ResumeLandsOnACommittedConstellation) {
  const CrashCase& cc = GetParam();
  const std::string base =
      CleanBase(std::string("manifest_crash.") + cc.point + ".store");
  PointSet ps = GenerateIndep(80, 3, 25);
  std::vector<int> initial_ids;
  for (int i = 0; i < 60; ++i) initial_ids.push_back(i);

  ShardedServiceOptions sopt = DurableOptions(base, 2);
  // Effectively-manual persist cadence: shard saves happen only inside
  // manifest commits, so the armed crash point fires at a deterministic
  // step of the *cutover* commit rather than on a writer's own schedule.
  sopt.shard.persist_every_batches = 1 << 20;
  uint64_t epoch_pre = 0;
  {
    ShardedFdRmsService service(3, sopt);
    ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
    epoch_pre = service.epoch();
    ArmCrash(cc.point);  // after Start: target the cutover commit
    std::vector<int> donor = service.routing_table()->SlotsOwnedBy(0);
    donor.resize(donor.size() / 2);
    ASSERT_FALSE(donor.empty());
    ASSERT_TRUE(service.Migrate(MigrationPlan::Slots(donor, 1)).ok());
    EXPECT_TRUE(FaultPoints::crashed())
        << cc.point << " never fired during the cutover commit";
    // The "dead" process can still be Stop()ed, but nothing it does from
    // here reaches disk — exactly like a real crash.
    (void)service.Stop();
  }
  FaultPoints::Reset();

  ShardedServiceOptions ropt = sopt;
  ropt.shard.resume_path = base;
  ShardedFdRmsService resumed(3, ropt);
  Status started = resumed.Start({});
  ASSERT_TRUE(started.ok()) << cc.point << ": " << started.ToString();
  EXPECT_TRUE(resumed.resumed());
  const uint64_t expect_epoch = cc.post_migration ? epoch_pre + 1 : epoch_pre;
  EXPECT_EQ(resumed.epoch(), expect_epoch) << cc.point;
  ASSERT_TRUE(resumed.Stop().ok());

  // Whichever side of the commit point we landed on, the constellation is
  // internally consistent: ownership matches the resumed routing epoch and
  // no tuple was lost or duplicated.
  std::vector<int> union_after;
  ExpectOwnershipMatchesRouting(resumed, &union_after);
  EXPECT_EQ(union_after, initial_ids) << cc.point;
}

INSTANTIATE_TEST_SUITE_P(
    CommitSteps, ManifestCrashMatrixTest,
    ::testing::Values(
        // Before anything durable happens: trivially pre-migration.
        CrashCase{"shard.cutover.pre_manifest", false},
        // Mid shard-snapshot save: commit aborts, old manifest stands.
        CrashCase{"serve.persist.tmp_written", false},
        CrashCase{"serve.persist.renamed", false},
        CrashCase{"serve.persist.dir_synced", false},
        // Mid routing-snapshot write: same.
        CrashCase{"shard.routing.tmp_written", false},
        CrashCase{"shard.routing.renamed", false},
        CrashCase{"shard.routing.dir_synced", false},
        // Manifest tmp written but never renamed: old slot still wins.
        CrashCase{"shard.manifest.tmp_written", false},
        // Slot renamed: the new generation is the store's truth.
        CrashCase{"shard.manifest.renamed", true},
        CrashCase{"shard.manifest.dir_synced", true},
        // After the full commit: post-migration, by definition.
        CrashCase{"shard.cutover.committed", true}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = info.param.point;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

}  // namespace
}  // namespace fdrms
