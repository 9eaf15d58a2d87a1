#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/periodic_task.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace fdrms {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "Invalid: bad dim");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_FALSE(Status::Invalid("a") == Status::Invalid("b"));
  EXPECT_FALSE(Status::Invalid("a") == Status::NotFound("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::NotFound("gone"); };
  auto outer = [&]() -> Status {
    FDRMS_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Invalid("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.UniformInt(5)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StopwatchTest, AccumulatorMeans) {
  TimeAccumulator acc;
  EXPECT_EQ(acc.MeanMillis(), 0.0);
  acc.Add(0.001);
  acc.Add(0.003);
  EXPECT_EQ(acc.count(), 2);
  EXPECT_NEAR(acc.MeanMillis(), 2.0, 1e-9);
}

TEST(TablePrinterTest, AlignsColumnsAndCountsRows) {
  TablePrinter table({"name", "value"});
  table.BeginRow();
  table.AddCell("alpha");
  table.AddNumber(1.23456, 2);
  table.BeginRow();
  table.AddCell("b");
  table.AddInt(42);
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream oss;
  table.Print(oss);
  std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(EnvTest, FallsBackOnMissing) {
  EXPECT_EQ(GetEnvDouble("FDRMS_DEFINITELY_UNSET_VAR", 3.5), 3.5);
  EXPECT_EQ(GetEnvLong("FDRMS_DEFINITELY_UNSET_VAR", 7), 7);
}

// PeriodicTask suites are named PeriodicTask* on purpose: the `tsan` CMake
// test preset selects them alongside the serving-stack suites.

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(PeriodicTaskTest, RunsOncePerIntervalNeverImmediately) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kInterval = std::chrono::milliseconds(5);
  std::mutex mu;
  std::vector<Clock::time_point> calls;
  PeriodicTask task;
  const Clock::time_point start = Clock::now();
  task.Start(kInterval, [&] {
    std::lock_guard<std::mutex> lock(mu);
    calls.push_back(Clock::now());
  });
  EXPECT_TRUE(task.running());
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return calls.size() >= 4;
  }));
  EXPECT_TRUE(task.Stop());
  EXPECT_FALSE(task.running());
  std::lock_guard<std::mutex> lock(mu);
  // Every call waits a full interval after Start or after the previous
  // call returned (1 ms slack for clock granularity).
  Clock::time_point prev = start;
  for (const Clock::time_point& t : calls) {
    EXPECT_GE(t - prev, kInterval - std::chrono::milliseconds(1));
    prev = t;
  }
}

TEST(PeriodicTaskTest, StopBeforeStartIsANoOp) {
  PeriodicTask task;
  EXPECT_FALSE(task.running());
  EXPECT_FALSE(task.Stop());
  EXPECT_FALSE(task.Stop());
  std::atomic<int> calls{0};
  task.Start(std::chrono::milliseconds(1), [&] { ++calls; });
  ASSERT_TRUE(WaitFor([&] { return calls.load() > 0; }));
  EXPECT_TRUE(task.Stop());
}

TEST(PeriodicTaskTest, DestructorStopsTheTask) {
  std::atomic<int> calls{0};
  {
    PeriodicTask task;
    task.Start(std::chrono::milliseconds(1), [&] { ++calls; });
    ASSERT_TRUE(WaitFor([&] { return calls.load() > 0; }));
  }
  const int after = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), after);
}

TEST(PeriodicTaskTest, StopInterruptsTheWaitAndTheTaskRestarts) {
  std::atomic<int> calls{0};
  PeriodicTask task;
  task.Start(std::chrono::hours(1), [&] { ++calls; });
  // A second Start while running is a no-op: this fn never runs.
  task.Start(std::chrono::milliseconds(1), [&] { calls += 1000000; });
  EXPECT_TRUE(task.Stop());  // returns without waiting out the hour
  EXPECT_EQ(calls.load(), 0);
  task.Start(std::chrono::milliseconds(1), [&] { ++calls; });
  ASSERT_TRUE(WaitFor([&] { return calls.load() > 0; }));
  EXPECT_TRUE(task.Stop());
  EXPECT_LT(calls.load(), 1000000);
}

TEST(PeriodicTaskTest, RacingStopJoinsExactlyOnce) {
  std::atomic<int> calls{0};
  PeriodicTask task;
  task.Start(std::chrono::milliseconds(1), [&] { ++calls; });
  ASSERT_TRUE(WaitFor([&] { return calls.load() > 0; }));
  // All callers race Stop; exactly one may join the thread (a double join
  // is std::terminate), the rest must return at once.
  std::atomic<int> joined{0};
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] {
      if (task.Stop()) ++joined;
    });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(joined.load(), 1);
  EXPECT_FALSE(task.Stop());  // still idempotent afterwards
}

}  // namespace
}  // namespace fdrms
