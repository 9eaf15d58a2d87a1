#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_point.h"
#include "common/rng.h"
#include "common/retry.h"
#include "common/status.h"
#include "control/slo_controller.h"
#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "obs/registry.h"
#include "serve/fdrms_service.h"
#include "shard/manifest.h"
#include "shard/merged_snapshot.h"
#include "shard/migration.h"
#include "shard/sharded_service.h"

// All suites here are named Fault* on purpose: the `tsan` CMake test preset
// (and the CI ThreadSanitizer job) selects them with
// ^(Serve|Shard|Migration|Obs|Control|Manifest|Fault).

namespace fdrms {
namespace {

using control::SloController;
using control::SloControllerOptions;
using control::SloDecision;
using obs::MetricSnapshot;
using obs::MetricType;
using obs::RegistrySnapshot;

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps, int count) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

/// Replays `ops` sequentially on a fresh FdRms with the service's per-op
/// semantics: a rejected operation is skipped, the rest keep going.
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

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
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

/// Turns on versioned persistence for a standalone service: saves land at
/// `<base>.g<gen>.b<batches>`, and the newest file lands in `*last_file`
/// (written on the writer thread; read it after Stop()).
void PersistVersioned(FdRmsServiceOptions* sopt, const std::string& base,
                      size_t every, std::string* last_file) {
  sopt->persist_every_batches = every;
  sopt->persist_version_path = [base](long long gen, long long batches) {
    return base + ".g" + std::to_string(gen) + ".b" + std::to_string(batches);
  };
  sopt->on_persist = [last_file](const PersistEvent& ev) {
    *last_file = ev.file;
  };
}

uint64_t CounterValue(const obs::MetricRegistry& reg, const std::string& name) {
  for (const MetricSnapshot& m : reg.Snapshot().metrics) {
    if (m.name == name && m.type == MetricType::kCounter) {
      return m.counter_value;
    }
  }
  return 0;
}

double GaugeValue(const obs::MetricRegistry& reg, const std::string& name) {
  for (const MetricSnapshot& m : reg.Snapshot().metrics) {
    if (m.name == name && m.type == MetricType::kGauge) return m.gauge_value;
  }
  return 0.0;
}

/// Every suite below arms process-global fault state; start and end clean
/// so a failing test can't poison its neighbors.
class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("FDRMS_FAULT");
    FaultPoints::Reset();
  }
  void TearDown() override {
    ::unsetenv("FDRMS_FAULT");
    FaultPoints::Reset();
  }
};

// ---------------------------------------------------------------------------
// FaultPoints framework unit tests.
// ---------------------------------------------------------------------------

using FaultPointTest = FaultFixture;

TEST_F(FaultPointTest, UnarmedHitIsNone) {
  FaultAction act = FaultPoints::Hit("nobody", "armed");
  EXPECT_TRUE(act.none());
  EXPECT_FALSE(act.error());
  EXPECT_FALSE(act.die());
  EXPECT_EQ(FaultPoints::injected(), 0u);
}

TEST_F(FaultPointTest, ErrorIsOneShot) {
  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("unit.err", err);
  FaultAction first = FaultPoints::Hit("unit", "err");
  EXPECT_TRUE(first.error());
  EXPECT_EQ(first.ToStatus().code(), StatusCode::kInternal);
  // The arming was consumed: later hits proceed.
  EXPECT_TRUE(FaultPoints::Hit("unit", "err").none());
  EXPECT_EQ(FaultPoints::injected(), 1u);
}

TEST_F(FaultPointTest, StickyErrorKeepsFiring) {
  FaultSpec sticky;
  sticky.kind = FaultKind::kStickyError;
  FaultPoints::Arm("unit.sticky", sticky);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(FaultPoints::Hit("unit", "sticky").error()) << i;
  }
  EXPECT_EQ(FaultPoints::injected(), 3u);
}

TEST_F(FaultPointTest, SkipHitsDefersTheAction) {
  FaultSpec err;
  err.kind = FaultKind::kError;
  err.skip_hits = 2;
  FaultPoints::Arm("unit.skip", err);
  EXPECT_TRUE(FaultPoints::Hit("unit", "skip").none());
  EXPECT_TRUE(FaultPoints::Hit("unit", "skip").none());
  EXPECT_TRUE(FaultPoints::Hit("unit", "skip").error());  // 3rd hit fires
  EXPECT_TRUE(FaultPoints::Hit("unit", "skip").none());   // one-shot consumed
}

TEST_F(FaultPointTest, DelayProceedsEveryHit) {
  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.delay_us = 100;
  FaultPoints::Arm("unit.delay", delay);
  for (int i = 0; i < 2; ++i) {
    FaultAction act = FaultPoints::Hit("unit", "delay");
    EXPECT_EQ(act.kind, FaultKind::kDelay) << i;
    EXPECT_FALSE(act.error());
    EXPECT_FALSE(act.die());
  }
  EXPECT_EQ(FaultPoints::injected(), 2u);
}

TEST_F(FaultPointTest, DieIsOneShotAndReportsDie) {
  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("unit.die", die);
  EXPECT_TRUE(FaultPoints::Hit("unit", "die").die());
  EXPECT_TRUE(FaultPoints::Hit("unit", "die").none());
}

TEST_F(FaultPointTest, ArmReplacesPriorArming) {
  FaultSpec err;
  err.kind = FaultKind::kStickyError;
  FaultPoints::Arm("unit.replace", err);
  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.delay_us = 1;
  FaultPoints::Arm("unit.replace", delay);
  EXPECT_EQ(FaultPoints::Hit("unit", "replace").kind, FaultKind::kDelay);
}

TEST_F(FaultPointTest, ResetDisarmsEverything) {
  FaultSpec sticky;
  sticky.kind = FaultKind::kStickyError;
  FaultPoints::Arm("unit.reset", sticky);
  EXPECT_TRUE(FaultPoints::Hit("unit", "reset").error());
  FaultPoints::Reset();
  EXPECT_TRUE(FaultPoints::Hit("unit", "reset").none());
  EXPECT_EQ(FaultPoints::injected(), 0u);  // counter restarts with the arm set
}

TEST_F(FaultPointTest, EnvDirectivesParse) {
  ::setenv("FDRMS_FAULT",
           "env.one=error,env.two=delay:50,env.three=die@1,env.four=crash@2",
           1);
  FaultPoints::Reset();  // re-probe the env on the next Hit
  EXPECT_TRUE(FaultPoints::Hit("env", "one").error());
  EXPECT_TRUE(FaultPoints::Hit("env", "one").none());  // one-shot
  EXPECT_EQ(FaultPoints::Hit("env", "two").kind, FaultKind::kDelay);
  EXPECT_EQ(FaultPoints::Hit("env", "two").kind, FaultKind::kDelay);
  EXPECT_TRUE(FaultPoints::Hit("env", "three").none());  // skipped hit
  EXPECT_TRUE(FaultPoints::Hit("env", "three").die());
  // An env-armed crash exits the process (see the death test below), so
  // only its skipped hits are observable here.
  EXPECT_TRUE(FaultPoints::Hit("env", "four").none());
  EXPECT_TRUE(FaultPoints::Hit("env", "four").none());
  EXPECT_FALSE(FaultPoints::crashed());
  EXPECT_TRUE(FaultPoints::Hit("env", "unarmed").none());
}

TEST_F(FaultPointTest, EnvCrashExitsTheProcessWith137) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("FDRMS_FAULT", "env.crash=crash@1", 1);
        FaultPoints::Reset();
        (void)FaultPoints::Hit("env", "crash");  // skipped
        (void)FaultPoints::Hit("env", "crash");  // _Exit(137)
        std::exit(0);
      },
      ::testing::ExitedWithCode(137), "");
}

TEST_F(FaultPointTest, ApiCrashLatchesCrashedAndIsOneShot) {
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.skip_hits = 1;
  FaultPoints::Arm("unit.crash", crash);
  EXPECT_TRUE(FaultPoints::Hit("unit", "crash").none());  // skipped
  EXPECT_FALSE(FaultPoints::crashed());
  FaultAction act = FaultPoints::Hit("unit", "crash");
  EXPECT_TRUE(act.crash());
  EXPECT_FALSE(act.error());
  EXPECT_FALSE(act.die());
  EXPECT_TRUE(FaultPoints::crashed());
  // Other sites keep answering as before; the flag stays until Reset.
  EXPECT_TRUE(FaultPoints::Hit("unit", "crash").none());
  EXPECT_TRUE(FaultPoints::Hit("unit", "other").none());
  EXPECT_TRUE(FaultPoints::crashed());
  FaultPoints::Reset();
  EXPECT_FALSE(FaultPoints::crashed());
}

TEST_F(FaultPointTest, ToStatusNamesTheSite) {
  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("unit.named", err);
  FaultAction act = FaultPoints::Hit("unit", "named");
  EXPECT_NE(act.ToStatus().message().find("unit.named"), std::string::npos);
}

// ---------------------------------------------------------------------------
// retry.h unit tests.
// ---------------------------------------------------------------------------

TEST(FaultRetryTest, TransientCodesAreExactlyExhaustedAndUnavailable) {
  EXPECT_TRUE(IsTransient(Status::ResourceExhausted("full")));
  EXPECT_TRUE(IsTransient(Status::Unavailable("dead")));
  EXPECT_FALSE(IsTransient(Status::OK()));
  EXPECT_FALSE(IsTransient(Status::Internal("boom")));
  EXPECT_FALSE(IsTransient(Status::FailedPrecondition("not running")));
}

TEST(FaultRetryTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.initial_backoff_us = 1;
  policy.max_backoff_us = 10;
  uint64_t retries = 0;
  int calls = 0;
  Status st = RetryTransient(policy, &retries, [&] {
    ++calls;
    return calls < 3 ? Status::ResourceExhausted("full") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(FaultRetryTest, GivesUpOnceTheBackoffBudgetIsSpent) {
  RetryPolicy policy;
  policy.initial_backoff_us = 10;
  policy.max_backoff_us = 50;
  policy.max_total_backoff_us = 200;
  uint64_t retries = 0;
  int calls = 0;
  Status st = RetryTransient(policy, &retries, [&] {
    ++calls;
    return Status::Unavailable("dead shard");
  });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_GE(retries, 1u);
  // Bounded: 10+20+40+50+50+... caps the attempt count near the budget.
  EXPECT_LE(retries, 10u);
  EXPECT_EQ(calls, static_cast<int>(retries) + 1);
}

TEST(FaultRetryTest, PermanentErrorReturnsImmediately) {
  RetryPolicy policy;
  uint64_t retries = 0;
  int calls = 0;
  Status st = RetryTransient(policy, &retries, [&] {
    ++calls;
    return Status::Invalid("bad op");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(FaultRetryTest, NullRetryCounterIsAccepted) {
  RetryPolicy policy;
  policy.initial_backoff_us = 1;
  int calls = 0;
  Status st = RetryTransient(policy, nullptr, [&] {
    ++calls;
    return calls < 2 ? Status::Unavailable("x") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
}

// ---------------------------------------------------------------------------
// Writer-loop fault sites on a single FdRmsService.
// ---------------------------------------------------------------------------

using FaultWriterTest = FaultFixture;

TEST_F(FaultWriterTest, InjectedApplyErrorDegradesHealthButStateStaysCorrect) {
  PointSet ps = GenerateIndep(200, 3, 31);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.record_journal = true;
  FdRmsService service(3, sopt);
  const auto initial = AsTuples(ps, 120);
  ASSERT_TRUE(service.Start(initial).ok());

  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("writer.apply.pre", err);
  for (int id = 120; id < 160; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(service.health(), FdRmsService::Health::kDegraded);
  EXPECT_GE(service.writer_faults(), 1u);
  ASSERT_TRUE(service.Stop().ok());

  // The error was surfaced, not swallowed into the data path: the final
  // state equals a sequential replay of the consumed journal.
  auto replay = SequentialReplay(3, sopt.algo, initial, service.journal());
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->ids, replay->Result());
  EXPECT_EQ(service.algorithm().Result(), replay->Result());
}

TEST_F(FaultWriterTest, InjectedDelayStallsWithoutDegrading) {
  PointSet ps = GenerateIndep(100, 3, 32);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());

  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.delay_us = 2000;
  FaultPoints::Arm("writer.drain.post", delay);
  for (int id = 60; id < 70; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(service.health(), FdRmsService::Health::kRunning);
  EXPECT_GE(service.writer_faults(), 1u);
  ASSERT_TRUE(service.Stop().ok());
}

TEST_F(FaultWriterTest, InjectedPersistErrorCountsFailureAndKeepsServing) {
  PointSet ps = GenerateIndep(100, 3, 33);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  std::string last_file;
  PersistVersioned(&sopt, CleanBase("fault_persist_err.snapshot"), 1,
                   &last_file);
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());

  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("writer.persist.pre", err);
  for (int id = 60; id < 70; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_GE(service.persist_failures(), 1u);
  EXPECT_EQ(service.health(), FdRmsService::Health::kDegraded);

  // The site disarmed itself (one-shot): later saves land.
  for (int id = 70; id < 80; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_GE(service.persists(), 1u);
  EXPECT_FALSE(last_file.empty());
}

TEST_F(FaultWriterTest, DieAtDrainStashesTheWholeBacklogAsDeadLetter) {
  PointSet ps = GenerateIndep(120, 3, 34);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 80)).ok());
  ASSERT_TRUE(service.Flush().ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.drain.post", die);
  // The first non-empty drain triggers the death, so later submits may
  // already be refused kUnavailable — only the *acknowledged* prefix is
  // owed back.
  std::vector<int> accepted;
  for (int id = 80; id < 90; ++id) {
    Status st = service.SubmitInsert(id, ps.Get(id));
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable);
      break;
    }
    accepted.push_back(id);
  }
  ASSERT_FALSE(accepted.empty());
  ASSERT_TRUE(WaitFor(
      [&] { return service.health() == FdRmsService::Health::kDead; }));

  // Nothing applied: every acknowledged op comes back, in submission order
  // (the stashed dead-letter batch first, then the queue remnants).
  std::vector<FdRms::BatchOp> backlog;
  ASSERT_TRUE(service.DrainDeadBacklog(&backlog).ok());
  ASSERT_EQ(backlog.size(), accepted.size());
  for (size_t i = 0; i < backlog.size(); ++i) {
    EXPECT_EQ(backlog[i].id, accepted[i]);
  }
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);  // last published snapshot keeps serving
  ASSERT_TRUE(service.Stop().ok());
}

TEST_F(FaultWriterTest, DieAtApplyFailsFastEverywhere) {
  PointSet ps = GenerateIndep(100, 3, 35);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
  ASSERT_TRUE(service.Flush().ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  ASSERT_TRUE(service.SubmitInsert(60, ps.Get(60)).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return service.health() == FdRmsService::Health::kDead; }));

  EXPECT_EQ(service.SubmitInsert(61, ps.Get(61)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service.Flush().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Inspect([](const FdRms&) {}).code(),
            StatusCode::kUnavailable);

  std::vector<FdRms::BatchOp> backlog;
  ASSERT_TRUE(service.DrainDeadBacklog(&backlog).ok());
  ASSERT_EQ(backlog.size(), 1u);
  EXPECT_EQ(backlog[0].id, 60);

  // Reads degrade, they do not fail.
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  ASSERT_TRUE(service.Stop().ok());
}

TEST_F(FaultWriterTest, DieAtPublishPreservesAppliedStateInTheExitSave) {
  PointSet ps = GenerateIndep(120, 3, 36);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  std::string last_file;  // interval 1000: only the death epilogue's save
  PersistVersioned(&sopt, CleanBase("fault_publish_die.snapshot"), 1000,
                   &last_file);
  FdRmsService service(3, sopt);
  const auto initial = AsTuples(ps, 80);
  ASSERT_TRUE(service.Start(initial).ok());
  ASSERT_TRUE(service.Flush().ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.publish.pre", die);
  std::vector<FdRms::BatchOp> submitted;
  for (int id = 80; id < 100; ++id) {
    FdRms::BatchOp op{FdRms::BatchOp::Kind::kInsert, id, ps.Get(id)};
    submitted.push_back(op);
    ASSERT_TRUE(service.Submit(op).ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return service.health() == FdRmsService::Health::kDead; }));

  // The killed batch applied but never published: the snapshot is stale...
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  // ...and it is NOT in the dead letter (no double-apply on revive).
  std::vector<FdRms::BatchOp> backlog;
  ASSERT_TRUE(service.DrainDeadBacklog(&backlog).ok());
  EXPECT_LT(backlog.size(), submitted.size());
  ASSERT_TRUE(service.Stop().ok());

  // Cold restart from the death epilogue's force save + backlog replay
  // reproduces the unfaulted state exactly.
  FdRmsServiceOptions ropt = sopt;
  ropt.resume_path = last_file;
  FdRmsService revived(3, ropt);
  ASSERT_TRUE(revived.Start({}).ok());
  EXPECT_TRUE(revived.resumed());
  for (const FdRms::BatchOp& op : backlog) {
    ASSERT_TRUE(revived.Submit(op).ok());
  }
  ASSERT_TRUE(revived.Flush().ok());
  auto replay = SequentialReplay(3, sopt.algo, initial, submitted);
  auto rsnap = revived.Query();
  ASSERT_NE(rsnap, nullptr);
  EXPECT_EQ(rsnap->ids, replay->Result());
  ASSERT_TRUE(revived.Stop().ok());
}

TEST_F(FaultWriterTest, ParkedFlushReturnsInsteadOfHangingWhenWriterDies) {
  PointSet ps = GenerateIndep(80, 3, 37);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.batch_delay_us_for_test = 30000;  // park the flusher against the batch
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 50)).ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  ASSERT_TRUE(service.SubmitInsert(50, ps.Get(50)).ok());
  Status flush_status;
  std::thread flusher([&] { flush_status = service.Flush(); });
  flusher.join();  // regression: this used to hang forever
  EXPECT_EQ(flush_status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(service.Stop().ok());
}

TEST_F(FaultWriterTest, ParkedInspectReturnsInsteadOfHangingWhenWriterDies) {
  PointSet ps = GenerateIndep(80, 3, 38);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.batch_delay_us_for_test = 30000;
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 50)).ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  ASSERT_TRUE(service.SubmitInsert(50, ps.Get(50)).ok());
  Status inspect_status;
  std::thread inspector(
      [&] { inspect_status = service.Inspect([](const FdRms&) {}); });
  inspector.join();  // regression: this used to hang forever
  // A request already parked when the writer exits is either served against
  // the final state (the epilogue drains pending inspections first) or
  // refused kUnavailable — never left hanging.
  EXPECT_TRUE(inspect_status.ok() ||
              inspect_status.code() == StatusCode::kUnavailable)
      << inspect_status.ToString();
  ASSERT_TRUE(service.Stop().ok());
}

TEST_F(FaultWriterTest, BlockedSubmitIsWokenUnavailableWhenWriterDies) {
  PointSet ps = GenerateIndep(80, 3, 39);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.queue_capacity = 4;
  sopt.max_batch = 1;
  sopt.overflow = FdRmsServiceOptions::Overflow::kBlock;
  sopt.batch_delay_us_for_test = 50000;  // hold the writer in its first batch
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());

  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  // Op 40 is popped (the writer then sleeps and dies applying it); ops
  // 41..44 fill the 4-slot queue; op 45 parks in the blocking Push until
  // the death epilogue closes the queue.
  for (int id = 40; id < 45; ++id) {
    ASSERT_TRUE(service.SubmitInsert(id, ps.Get(id)).ok());
  }
  Status parked;
  std::thread submitter([&] { parked = service.SubmitInsert(45, ps.Get(45)); });
  submitter.join();  // regression: this used to park forever
  EXPECT_EQ(parked.code(), StatusCode::kUnavailable) << parked.ToString();
  EXPECT_EQ(service.health(), FdRmsService::Health::kDead);
  ASSERT_TRUE(service.Stop().ok());
}

// ---------------------------------------------------------------------------
// Sharded fault domain: degraded merged reads, fail-fast submits, revive
// (seeded from the dead instance, with and without persistence), health
// tracker, control-plane fault sites.
// ---------------------------------------------------------------------------

using FaultShardedTest = FaultFixture;

ShardedServiceOptions TwoShardOptions() {
  ShardedServiceOptions o;
  o.num_shards = 2;
  o.shard.algo.r = 6;
  o.shard.algo.max_utilities = 128;
  o.shard.max_batch = 16;
  o.health_poll_every_ms = 0;  // deterministic: health read off the topology
  o.manifest_commit_every_ms = 0;
  return o;
}

int FindOwnedId(const ShardedFdRmsService& svc, int lo, int hi, int shard) {
  for (int id = lo; id < hi; ++id) {
    if (svc.router().Route(id) == shard) return id;
  }
  ADD_FAILURE() << "no id in [" << lo << "," << hi << ") routes to shard "
                << shard;
  return -1;
}

/// Arms a one-shot writer death and feeds shard `victim` one op so its
/// writer (and only its writer — everything else must be quiescent) dies.
void KillShard(ShardedFdRmsService* svc, int victim, int kill_id,
               const Point& p) {
  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  ASSERT_EQ(svc->router().Route(kill_id), victim);
  ASSERT_TRUE(svc->SubmitInsert(kill_id, p).ok());
  ASSERT_TRUE(WaitFor([&] {
    return svc->shard(victim).health() == FdRmsService::Health::kDead;
  }));
}

TEST_F(FaultShardedTest, DeadShardDegradesReadsFailsFastAndRevivesByHarvest) {
  PointSet ps = GenerateIndep(500, 3, 77);
  ShardedFdRmsService svc(3, TwoShardOptions());
  const auto initial = AsTuples(ps, 300);
  ASSERT_TRUE(svc.Start(initial).ok());
  ASSERT_TRUE(svc.Flush().ok());
  auto before = svc.Query();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->degraded_shards, 0);

  const int victim = 0;
  const int kill_id = FindOwnedId(svc, 400, 500, victim);
  KillShard(&svc, victim, kill_id, ps.Get(kill_id));
  EXPECT_EQ(svc.num_unhealthy(), 1);
  EXPECT_EQ(svc.unhealthy_shards(), std::vector<int>{victim});

  // Dead-shard submits fail fast kUnavailable; the healthy shard's accept.
  std::vector<std::pair<int, Point>> failed;
  for (int id = 300; id < 380; ++id) {
    Status st = svc.SubmitInsert(id, ps.Get(id));
    if (svc.router().Route(id) == victim) {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << id;
      failed.emplace_back(id, ps.Get(id));
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  ASSERT_FALSE(failed.empty());
  // Flush fails fast on the outage instead of hanging — but still drains
  // the healthy shard on the way.
  EXPECT_EQ(svc.Flush().code(), StatusCode::kUnavailable);

  // Degraded merge annotation + staleness oracle: the dead component's
  // version is frozen while the healthy one advanced.
  auto degraded = svc.Query();
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->degraded_shards, 1);
  ASSERT_EQ(degraded->degraded.size(), 2u);
  EXPECT_TRUE(degraded->degraded[victim]);
  EXPECT_FALSE(degraded->degraded[1 - victim]);
  EXPECT_EQ(degraded->versions[victim], before->versions[victim]);
  EXPECT_GT(degraded->versions[1 - victim], before->versions[1 - victim]);
  EXPECT_GE(svc.degraded_reads(), 1u);

  // Revive: the successor is seeded from the dead instance's state.
  ASSERT_TRUE(svc.ReviveShard(victim).ok());
  EXPECT_EQ(svc.num_unhealthy(), 0);
  EXPECT_EQ(svc.writer_restarts(), 1u);
  EXPECT_EQ(svc.shard(victim).health(), FdRmsService::Health::kRunning);
  EXPECT_FALSE(svc.shard(victim).resumed());

  // Client-side retry of the failed submits completes the stream.
  for (const auto& [id, p] : failed) {
    ASSERT_TRUE(svc.SubmitInsert(id, p).ok());
  }
  ASSERT_TRUE(svc.Flush().ok());
  auto after = svc.Query();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->degraded_shards, 0);
  // Version continuity across the revive: strictly monotone per component.
  EXPECT_GT(after->versions[victim], before->versions[victim]);

  // Revive-then-flush equivalence: identical to an unfaulted run that saw
  // the same per-shard operation sequences.
  ShardedFdRmsService ref(3, TwoShardOptions());
  ASSERT_TRUE(ref.Start(initial).ok());
  ASSERT_TRUE(ref.SubmitInsert(kill_id, ps.Get(kill_id)).ok());
  for (int id = 300; id < 380; ++id) {
    ASSERT_TRUE(ref.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(ref.Flush().ok());
  auto ref_snap = ref.Query();
  ASSERT_NE(ref_snap, nullptr);
  EXPECT_EQ(after->ids, ref_snap->ids);
  ASSERT_TRUE(svc.Stop().ok());
  ASSERT_TRUE(ref.Stop().ok());
}

TEST_F(FaultShardedTest, ConcurrentReadsStayCoherentThroughDeathReviveAndAddShard) {
  // Readers hammer Query() while a random stream runs, one shard writer
  // dies and is revived, and the constellation grows 2 -> 4. Every reader
  // must see epochs that never go back and, within an epoch, versions that
  // never go back component-wise.
  PointSet ps = GenerateIndep(1200, 3, 91);
  ShardedFdRmsService svc(3, TwoShardOptions());
  ASSERT_TRUE(svc.Start(AsTuples(ps, 300)).ok());

  std::atomic<bool> stop_stream{false};
  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> incoherent{0};
  std::atomic<uint64_t> reads{0};
  std::thread submitter([&] {
    Rng rng(17);
    for (int n = 1; !stop_stream.load(); ++n) {
      if (n % 32 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const int id = rng.UniformInt(ps.size());
      FdRms::BatchOp op{FdRms::BatchOp::Kind::kInsert, id, ps.Get(id)};
      const int coin = rng.UniformInt(3);
      if (coin == 1) op = {FdRms::BatchOp::Kind::kDelete, id, Point{}};
      if (coin == 2) op.kind = FdRms::BatchOp::Kind::kUpdate;
      (void)svc.Submit(std::move(op));  // kUnavailable while a shard is dead
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::shared_ptr<const MergedSnapshot> prev = svc.Query();
      while (!stop_readers.load()) {
        std::shared_ptr<const MergedSnapshot> cur = svc.Query();
        reads.fetch_add(1);
        bool ok = cur != nullptr && cur->epoch >= prev->epoch;
        if (ok && cur->epoch == prev->epoch) {
          ok = cur->versions.size() == prev->versions.size();
          for (size_t s = 0; ok && s < cur->versions.size(); ++s) {
            ok = cur->versions[s] >= prev->versions[s];
          }
        }
        if (!ok) {
          incoherent.fetch_add(1);
          if (cur == nullptr) continue;
        }
        prev = std::move(cur);
      }
    });
  }

  // Kill whichever writer applies next; the read after the death is seen
  // must flag it.
  FaultSpec die;
  die.kind = FaultKind::kDie;
  FaultPoints::Arm("writer.apply.pre", die);
  int victim = -1;
  ASSERT_TRUE(WaitFor([&] {
    for (int s = 0; s < svc.num_shards(); ++s) {
      if (svc.shard(s).health() == FdRmsService::Health::kDead) victim = s;
    }
    return victim >= 0;
  }));
  auto degraded = svc.Query();
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->degraded[static_cast<size_t>(victim)]);
  EXPECT_EQ(degraded->degraded_shards, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(svc.ReviveShard(victim).ok());
  EXPECT_EQ(svc.Query()->degraded_shards, 0);

  ASSERT_TRUE(svc.AddShard().ok());
  ASSERT_TRUE(svc.AddShard().ok());
  EXPECT_EQ(svc.num_shards(), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  stop_stream.store(true);
  submitter.join();
  ASSERT_TRUE(svc.Flush().ok());
  // Flushed and quiescent: the merged view is every shard's newest.
  auto last = svc.Query();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->epoch, svc.epoch());
  ASSERT_EQ(last->versions.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(last->versions[static_cast<size_t>(s)],
              svc.shard(s).published_version()) << s;
    EXPECT_EQ(last->versions[static_cast<size_t>(s)],
              svc.shard(s).Query()->version) << s;
  }
  stop_readers.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(svc.Stop().ok());
}

TEST_F(FaultShardedTest, ReviveUnderPersistenceMatchesAnUnfaultedRun) {
  PointSet ps = GenerateIndep(400, 3, 78);
  ShardedServiceOptions opt = TwoShardOptions();
  opt.shard.persist_every_batches = 1;
  opt.shard.persist_path = CleanBase("fault_revive_store");
  ShardedFdRmsService svc(3, opt);
  const auto initial = AsTuples(ps, 200);
  ASSERT_TRUE(svc.Start(initial).ok());
  // Durable work on every shard before the kill.
  for (int id = 200; id < 240; ++id) {
    ASSERT_TRUE(svc.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(svc.Flush().ok());

  const int victim = 0;
  const int kill_id = FindOwnedId(svc, 300, 400, victim);
  KillShard(&svc, victim, kill_id, ps.Get(kill_id));

  ASSERT_TRUE(svc.ReviveShard(victim).ok());
  EXPECT_EQ(svc.writer_restarts(), 1u);
  ASSERT_TRUE(svc.Flush().ok());
  auto after = svc.Query();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->degraded_shards, 0);

  ShardedFdRmsService ref(3, TwoShardOptions());
  ASSERT_TRUE(ref.Start(initial).ok());
  for (int id = 200; id < 240; ++id) {
    ASSERT_TRUE(ref.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(ref.SubmitInsert(kill_id, ps.Get(kill_id)).ok());
  ASSERT_TRUE(ref.Flush().ok());
  auto ref_snap = ref.Query();
  ASSERT_NE(ref_snap, nullptr);
  EXPECT_EQ(after->ids, ref_snap->ids);
  ASSERT_TRUE(svc.Stop().ok());
  ASSERT_TRUE(ref.Stop().ok());
}

TEST_F(FaultShardedTest, ReviveKeepsAcknowledgedWritesWhenSavesFail) {
  // Regression: with every save failing, the newest durable snapshot of
  // the victim predates the inserts it acknowledged. A revive that seeded
  // from it lost them; the dead instance's own state has them all.
  PointSet ps = GenerateIndep(400, 3, 83);
  ShardedServiceOptions opt = TwoShardOptions();
  opt.shard.persist_every_batches = 1;
  opt.shard.persist_path = CleanBase("fault_revive_sticky_store");
  ShardedFdRmsService svc(3, opt);
  const auto initial = AsTuples(ps, 200);
  ASSERT_TRUE(svc.Start(initial).ok());
  ASSERT_TRUE(svc.Flush().ok());

  const int victim = 0;
  FaultSpec sticky;
  sticky.kind = FaultKind::kStickyError;
  FaultPoints::Arm("writer.persist.pre", sticky);
  std::vector<int> acked;
  for (int id = 200; id < 300 && acked.size() < 16; ++id) {
    if (svc.router().Route(id) != victim) continue;
    ASSERT_TRUE(svc.SubmitInsert(id, ps.Get(id)).ok());
    acked.push_back(id);
  }
  ASSERT_EQ(acked.size(), 16u);
  ASSERT_TRUE(svc.Flush().ok());
  EXPECT_GE(svc.shard(victim).persist_failures(), 1u);

  const int kill_id = FindOwnedId(svc, 300, 400, victim);
  KillShard(&svc, victim, kill_id, ps.Get(kill_id));
  ASSERT_TRUE(svc.ReviveShard(victim).ok());
  ASSERT_TRUE(svc.Flush().ok());
  auto after = svc.Query();
  ASSERT_NE(after, nullptr);

  // The unfaulted reference applies the same per-shard operations: the
  // successor continues from a copy of the dead instance's state (P_0 plus
  // every acknowledged insert) before replaying the backlog, so its Q_t
  // matches this incremental run.
  ShardedFdRmsService ref(3, TwoShardOptions());
  ASSERT_TRUE(ref.Start(initial).ok());
  for (int id : acked) ASSERT_TRUE(ref.SubmitInsert(id, ps.Get(id)).ok());
  ASSERT_TRUE(ref.SubmitInsert(kill_id, ps.Get(kill_id)).ok());
  ASSERT_TRUE(ref.Flush().ok());
  auto ref_snap = ref.Query();
  ASSERT_NE(ref_snap, nullptr);
  EXPECT_EQ(svc.shard(victim).Query()->live_tuples,
            ref.shard(victim).Query()->live_tuples);
  EXPECT_EQ(after->ids, ref_snap->ids);
  ASSERT_TRUE(svc.Stop().ok());
  ASSERT_TRUE(ref.Stop().ok());
  for (int id : acked) {
    EXPECT_TRUE(svc.shard(victim).algorithm().topk().tree().Contains(id))
        << "acknowledged insert " << id << " lost by the revive";
  }
}

TEST_F(FaultShardedTest, HealthTrackerCountsDeathsAndRestoresTheGauge) {
  PointSet ps = GenerateIndep(300, 3, 80);
  ShardedServiceOptions opt = TwoShardOptions();
  opt.health_poll_every_ms = 5;
  ShardedFdRmsService svc(3, opt);
  ASSERT_TRUE(svc.Start(AsTuples(ps, 200)).ok());
  ASSERT_TRUE(svc.Flush().ok());
  const obs::MetricRegistry& reg = *svc.registry();
  EXPECT_EQ(CounterValue(reg, "fdrms_shard_deaths_total"), 0u);

  const int victim = 0;
  const int kill_id = FindOwnedId(svc, 200, 300, victim);
  KillShard(&svc, victim, kill_id, ps.Get(kill_id));
  ASSERT_TRUE(WaitFor([&] {
    return CounterValue(reg, "fdrms_shard_deaths_total") >= 1 &&
           GaugeValue(reg, "fdrms_shards_unhealthy") >= 1.0;
  }));

  ASSERT_TRUE(svc.ReviveShard(victim).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return GaugeValue(reg, "fdrms_shards_unhealthy") == 0.0; }));
  // Per-shard health gauge followed the revive too.
  EXPECT_EQ(svc.shard(victim).health(), FdRmsService::Health::kRunning);
  ASSERT_TRUE(svc.Stop().ok());
}

TEST_F(FaultShardedTest, MigrationFaultSitesAbortCleanly) {
  PointSet ps = GenerateIndep(300, 3, 81);
  ShardedFdRmsService svc(3, TwoShardOptions());
  ASSERT_TRUE(svc.Start(AsTuples(ps, 200)).ok());
  ASSERT_TRUE(svc.Flush().ok());
  const uint64_t epoch0 = svc.epoch();
  // Two disjoint batches of shard 0's slots: the first for the pre-move
  // sites, the second for the post-replay site.
  const std::vector<int> owned = svc.routing_table()->SlotsOwnedBy(0);
  ASSERT_GE(owned.size(), 48u);
  const std::vector<int> first(owned.begin(), owned.begin() + 32);
  const std::vector<int> second(owned.begin() + 32, owned.begin() + 48);

  // Pre-move sites: the injected failure rejects (freeze) or unwinds
  // (drain/replay) the migration; ownership and serving are untouched.
  for (const char* site :
       {"migration.freeze.pre", "migration.drain.pre",
        "migration.replay.pre"}) {
    FaultSpec err;
    err.kind = FaultKind::kError;
    FaultPoints::Arm(site, err);
    Status st = svc.Migrate(MigrationPlan::Slots(first, 1));
    EXPECT_EQ(st.code(), StatusCode::kInternal) << site;
    EXPECT_EQ(svc.epoch(), epoch0) << site;
    ASSERT_TRUE(svc.SubmitInsert(200, ps.Get(200)).ok()) << site;
    ASSERT_TRUE(svc.SubmitDelete(200).ok()) << site;
    ASSERT_TRUE(svc.Flush().ok()) << site;
  }
  // Every site disarmed itself: the same plan now completes.
  ASSERT_TRUE(svc.Migrate(MigrationPlan::Slots(first, 1)).ok());
  const uint64_t epoch1 = svc.epoch();
  EXPECT_GT(epoch1, epoch0);

  // Post-replay site: tuples already moved, so the failure is noted and
  // reported but the cutover still publishes the next epoch — aborting
  // would strand the moved slots.
  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("migration.cutover.pre", err);
  Status st = svc.Migrate(MigrationPlan::Slots(second, 1));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_GT(svc.epoch(), epoch1);
  ASSERT_TRUE(svc.Flush().ok());
  auto snap = svc.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->degraded_shards, 0);
  ASSERT_TRUE(svc.Stop().ok());
}

TEST_F(FaultShardedTest, ManifestCommitFaultIsCountedAndTheStoreRecovers) {
  PointSet ps = GenerateIndep(300, 3, 82);
  ShardedServiceOptions opt = TwoShardOptions();
  opt.shard.persist_every_batches = 1;
  opt.shard.persist_path = CleanBase("fault_manifest_store");
  ShardedFdRmsService svc(3, opt);
  ASSERT_TRUE(svc.Start(AsTuples(ps, 200)).ok());
  ASSERT_TRUE(svc.Flush().ok());
  const uint64_t fails0 = svc.manifest_commit_failures();

  // The cutover's commit eats the injected failure (counted, not fatal —
  // the ledger stays dirty so a later commit retries), and the migration
  // itself still completes.
  FaultSpec err;
  err.kind = FaultKind::kError;
  FaultPoints::Arm("manifest.commit.pre", err);
  ASSERT_TRUE(svc.AddShard().ok());
  EXPECT_EQ(svc.num_shards(), 3);
  EXPECT_GE(svc.manifest_commit_failures(), fails0 + 1);

  for (int id = 200; id < 220; ++id) {
    ASSERT_TRUE(svc.SubmitInsert(id, ps.Get(id)).ok());
  }
  ASSERT_TRUE(svc.Flush().ok());
  ASSERT_TRUE(svc.Stop().ok());  // final commit succeeds (site disarmed)

  // The store is self-describing and reflects the post-AddShard topology.
  ShardedServiceOptions ropt = opt;
  ropt.shard.resume_path = opt.shard.persist_path;
  ropt.num_shards = 1;  // ignored: the manifest decides
  ShardedFdRmsService revived(3, ropt);
  ASSERT_TRUE(revived.Start({}).ok());
  EXPECT_TRUE(revived.resumed());
  EXPECT_EQ(revived.num_shards(), 3);
  ASSERT_TRUE(revived.Stop().ok());
}

// ---------------------------------------------------------------------------
// SLO controller fault-domain gate (deterministic, fake actuator).
// ---------------------------------------------------------------------------

class FaultFakeActuator : public control::SloActuator {
 public:
  int num_shards() const override { return shards_; }
  Status AddShard() override {
    ++add_calls_;
    ++shards_;
    return Status::OK();
  }
  Status RemoveShard() override {
    ++remove_calls_;
    --shards_;
    return Status::OK();
  }
  size_t SetBatchBound(size_t bound) override {
    bound_ = bound;
    return bound_;
  }
  size_t batch_bound() const override { return bound_; }
  size_t queue_capacity() const override { return 1024; }
  uint64_t last_topology_change_us() const override { return 0; }
  int num_unhealthy() const override { return unhealthy_; }
  int ReviveDeadShards() override {
    ++revive_calls_;
    const int revived = unhealthy_;
    unhealthy_ = 0;
    return revived;
  }

  int shards_ = 2;
  size_t bound_ = 64;
  int unhealthy_ = 0;
  int add_calls_ = 0;
  int remove_calls_ = 0;
  int revive_calls_ = 0;
};

/// Fabricated registry snapshot where every shard has been busy `util` of
/// the wall since the start (only the series the controller reads).
RegistrySnapshot FaultUniformLoad(double t, int shards, double util) {
  RegistrySnapshot s;
  s.uptime_seconds = t;
  for (int shard = 0; shard < shards; ++shard) {
    MetricSnapshot busy;
    busy.name = "fdrms_writer_busy_seconds";
    busy.type = MetricType::kGauge;
    busy.labels = {{"shard", std::to_string(shard)}};
    busy.gauge_value = util * t;
    s.metrics.push_back(busy);
    MetricSnapshot depth;
    depth.name = "fdrms_queue_depth";
    depth.type = MetricType::kGauge;
    depth.labels = {{"shard", std::to_string(shard)}};
    depth.gauge_value = 0.0;
    s.metrics.push_back(depth);
  }
  return s;
}

SloControllerOptions FaultControlOptions() {
  SloControllerOptions o;
  o.publish_p99_slo_us = 20000.0;
  o.high_utilization = 0.85;
  o.low_utilization = 0.25;
  o.sustain_ticks = 2;
  o.cooldown_us = 1000000;
  o.min_shards = 1;
  o.max_shards = 4;
  return o;
}

uint64_t Us(double seconds) { return static_cast<uint64_t>(seconds * 1e6); }

TEST(FaultControlTest, UnhealthyShardPausesTopologyScaling) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FaultFakeActuator act;
  SloController ctl(reg, &act, FaultControlOptions());
  ctl.Tick(FaultUniformLoad(0.0, 2, 0.0), 0);  // prime the baseline

  // Sustained scale-up pressure, but a shard is dead: topology holds.
  act.unhealthy_ = 1;
  for (int t = 1; t <= 4; ++t) {
    SloDecision d =
        ctl.Tick(FaultUniformLoad(t, 2, 0.95), Us(static_cast<double>(t)));
    EXPECT_EQ(d.unhealthy_shards, 1) << t;
    EXPECT_FALSE(d.scaled_up) << t;
    EXPECT_FALSE(d.scaled_down) << t;
  }
  EXPECT_EQ(act.add_calls_, 0);

  // Recovery: the gate also reset the hysteresis streaks, so the breach
  // must re-sustain from scratch before the controller acts.
  act.unhealthy_ = 0;
  SloDecision first = ctl.Tick(FaultUniformLoad(5.0, 2, 0.95), Us(5.0));
  EXPECT_EQ(first.unhealthy_shards, 0);
  EXPECT_FALSE(first.scaled_up);
  SloDecision second = ctl.Tick(FaultUniformLoad(6.0, 2, 0.95), Us(6.0));
  EXPECT_TRUE(second.scaled_up);
  EXPECT_EQ(act.add_calls_, 1);
}

TEST(FaultControlTest, ReviveOptionHealsTheFleet) {
  auto reg = std::make_shared<obs::MetricRegistry>();
  FaultFakeActuator act;
  SloControllerOptions opt = FaultControlOptions();
  opt.revive_unhealthy = true;
  SloController ctl(reg, &act, opt);
  ctl.Tick(FaultUniformLoad(0.0, 2, 0.0), 0);

  act.unhealthy_ = 2;
  SloDecision d = ctl.Tick(FaultUniformLoad(1.0, 2, 0.5), Us(1.0));
  EXPECT_EQ(d.unhealthy_shards, 2);
  EXPECT_EQ(d.revived, 2);
  EXPECT_EQ(act.revive_calls_, 1);

  SloDecision next = ctl.Tick(FaultUniformLoad(2.0, 2, 0.5), Us(2.0));
  EXPECT_EQ(next.unhealthy_shards, 0);
  EXPECT_EQ(next.revived, 0);
}

// ---------------------------------------------------------------------------
// End-to-end kill-a-shard-writer drill through the sharded load driver.
// ---------------------------------------------------------------------------

using FaultDriverTest = FaultFixture;

TEST_F(FaultDriverTest, FaultDrillKillsDegradesAndRevives) {
  PointSet ps = GenerateIndep(400, 3, 91);
  Workload wl(&ps, 23);
  ShardedLoadOptions lopt;
  lopt.num_readers = 2;
  lopt.num_submitters = 2;
  lopt.service.num_shards = 2;
  lopt.service.shard.algo.r = 6;
  lopt.service.shard.algo.max_utilities = 128;
  lopt.service.shard.max_batch = 16;
  lopt.service.health_poll_every_ms = 5;
  // No pacing: RunShardedLoad holds the stream past the kill point until
  // the death lands, and keeps the shard dead until a submit to it was
  // refused and a reader saw the degraded view, so the outage is observed
  // however the threads are scheduled.
  lopt.retry_submits = true;
  lopt.submit_retry.initial_backoff_us = 50;
  lopt.submit_retry.max_backoff_us = 500;
  lopt.submit_retry.max_total_backoff_us = 1000;
  lopt.fault.enabled = true;
  lopt.fault.kill_at_fraction = 0.1;
  lopt.fault.revive_at_fraction = -1.0;  // outage persists to end of stream

  ShardedLoadResult res = RunShardedLoad(wl, lopt);
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.null_queries, 0u);  // reads never failed during the outage
  EXPECT_GE(res.shards_killed, 1);
  EXPECT_GE(res.writer_restarts, 1u);
  EXPECT_TRUE(res.revive_ok);
  EXPECT_GE(res.shards_revived, 1);
  EXPECT_GT(res.degraded_queries, 0u);
  EXPECT_GE(res.max_degraded_shards, 1);
  EXPECT_GT(res.unavailable_submits, 0u);
  EXPECT_EQ(res.final_num_shards, 2);
  EXPECT_FALSE(res.fault_trace.empty());
}

}  // namespace
}  // namespace fdrms
