#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "obs/pow2_hist.h"
#include "obs/registry.h"
#include "serve/fdrms_service.h"
#include "serve/mpsc_ring_queue.h"

// All suites here are named Serve* on purpose: the `tsan` CMake test preset
// (and the CI ThreadSanitizer job) selects them with the regex ^Serve.

namespace fdrms {
namespace {

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps, int count) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < count; ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

/// Turns on versioned persistence: saves land at `<base>.g<gen>.b<batches>`,
/// and the newest file lands in `*last_file` (written on the writer thread;
/// read it after Stop()).
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

// Queue-contract suite (mpsc_ring_queue.h states the contract). Typed so a
// candidate replacement queue can be added to QueueTypes and held to the
// same semantics.
template <typename Q>
class ServeQueueTest : public ::testing::Test {};
using QueueTypes = ::testing::Types<MpscRingQueue<int>>;
TYPED_TEST_SUITE(ServeQueueTest, QueueTypes);

TYPED_TEST(ServeQueueTest, PushPopPreservesFifoOrder) {
  TypeParam q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> got;
  ASSERT_TRUE(q.PopBatch(3, &got));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  ASSERT_TRUE(q.PopBatch(16, &got));
  EXPECT_EQ(got, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(ServeQueueTest, TryPushRefusesWhenFull) {
  TypeParam q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  std::vector<int> got;
  ASSERT_TRUE(q.PopBatch(1, &got));
  EXPECT_TRUE(q.TryPush(3));  // room again
}

TYPED_TEST(ServeQueueTest, CloseWakesBlockedProducerAndDrainsConsumer) {
  TypeParam q(1);
  ASSERT_TRUE(q.Push(7));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = q.Push(8);  // queue full: blocks until Close
    push_returned = true;
  });
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned);
  EXPECT_FALSE(push_result);     // gave up, element not enqueued
  EXPECT_FALSE(q.TryPush(9));    // closed refuses new work
  std::vector<int> got;
  EXPECT_TRUE(q.PopBatch(4, &got));  // drains what was accepted
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_FALSE(q.PopBatch(4, &got));  // closed + empty: end of stream
}

TYPED_TEST(ServeQueueTest, ClearReportsDroppedElements) {
  TypeParam q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.Push(i));
  EXPECT_EQ(q.Clear(), 6u);
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(ServeQueueTest, KickWakesConsumerWithEmptyBatch) {
  TypeParam q(4);
  std::atomic<bool> popped{false};
  std::atomic<bool> batch_empty{false};
  std::atomic<bool> pop_result{false};
  std::thread consumer([&] {
    std::vector<int> got;
    pop_result = q.PopBatch(4, &got);  // empty queue: blocks until the kick
    batch_empty = got.empty();
    popped = true;
  });
  while (!popped.load()) {
    q.Kick();
    std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(pop_result);   // kicked, not closed: keep consuming
  EXPECT_TRUE(batch_empty);  // woken without elements
  // Elements still flow normally afterwards, and Close still ends the
  // stream even with a stale kick pending.
  ASSERT_TRUE(q.Push(42));
  std::vector<int> got;
  ASSERT_TRUE(q.PopBatch(4, &got));
  EXPECT_EQ(got, (std::vector<int>{42}));
  q.Kick();
  q.Close();
  EXPECT_FALSE(q.PopBatch(4, &got));  // closed and drained: end of stream
}

TYPED_TEST(ServeQueueTest, TotalPushedCountsOnlyAcceptedElements) {
  TypeParam q(2);
  EXPECT_EQ(q.total_pushed(), 0u);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: not counted
  EXPECT_EQ(q.total_pushed(), 2u);
  q.Close();
  EXPECT_FALSE(q.TryPush(4));  // closed: not counted
  EXPECT_EQ(q.total_pushed(), 2u);
}

// Ring-specific coverage: wraparound bookkeeping, the logical (non-power-
// of-two) capacity gate, and destruction with elements still queued.
TEST(ServeRingQueueTest, WraparoundPreservesFifoAcrossManyCycles) {
  MpscRingQueue<int> q(4);  // forces index wrap every 4 elements
  std::vector<int> got;
  int next_push = 0, next_pop = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    // Vary the fill level so the head/tail indices cross every cell
    // alignment, including full and empty transitions.
    const int burst = 1 + cycle % 4;
    for (int i = 0; i < burst; ++i) ASSERT_TRUE(q.Push(next_push++));
    ASSERT_TRUE(q.PopBatch(static_cast<size_t>(burst), &got));
    for (int v : got) EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.total_pushed(), static_cast<uint64_t>(next_push));
}

TEST(ServeRingQueueTest, LogicalCapacityHonoredBeyondPowerOfTwoCells) {
  MpscRingQueue<int> q(5);  // physical cell count rounds up to 8
  EXPECT_EQ(q.capacity(), 5u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(5));  // logical bound, not the cell count
  EXPECT_EQ(q.size(), 5u);
  std::vector<int> got;
  ASSERT_TRUE(q.PopBatch(2, &got));
  EXPECT_TRUE(q.TryPush(5));
  EXPECT_TRUE(q.TryPush(6));
  EXPECT_FALSE(q.TryPush(7));  // full again at exactly 5
}

TEST(ServeRingQueueTest, DestructionReleasesUnconsumedElements) {
  // Heap-owning payloads left in the ring must be destroyed (ASan-visible
  // if not).
  auto q = std::make_unique<MpscRingQueue<std::vector<int>>>(8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q->Push(std::vector<int>(100, i)));
  }
  q.reset();  // drops 6 live vectors with the queue
}

// Concurrency stress suite (also in the TSan stress lane, see
// CMakePresets.json tsan-stress): full/empty races under real
// multi-producer churn.
TEST(ServeRingStressTest, MultiProducerChurnKeepsPerProducerOrderAndCounts) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MpscRingQueue<int> q(64);  // small: constant full/empty transitions
  std::vector<int> consumed;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (q.PopBatch(16, &batch)) {
      consumed.insert(consumed.end(), batch.begin(), batch.end());
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(t * kPerProducer + i));
      }
    });
  }
  for (std::thread& th : producers) th.join();
  q.Close();
  consumer.join();
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(q.total_pushed(), static_cast<uint64_t>(kProducers * kPerProducer));
  // Each producer's elements arrive in its own submission order, and every
  // element arrives exactly once.
  std::vector<int> next(kProducers, 0);
  for (int v : consumed) {
    const int t = v / kPerProducer;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kProducers);
    EXPECT_EQ(v % kPerProducer, next[t]);
    ++next[t];
  }
  for (int t = 0; t < kProducers; ++t) EXPECT_EQ(next[t], kPerProducer);
}

TEST(ServeRingStressTest, TryPushSheddingConservesAcceptedElements) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 4000;
  MpscRingQueue<int> q(32);
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> consumed_count{0};
  std::atomic<uint64_t> consumed_sum{0};
  std::atomic<uint64_t> accepted_sum{0};
  std::thread consumer([&] {
    std::vector<int> batch;
    while (q.PopBatch(8, &batch)) {
      consumed_count.fetch_add(batch.size(), std::memory_order_relaxed);
      for (int v : batch) {
        consumed_sum.fetch_add(static_cast<uint64_t>(v),
                               std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = t * kPerProducer + i + 1;
        if (q.TryPush(v)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          accepted_sum.fetch_add(static_cast<uint64_t>(v),
                                 std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : producers) th.join();
  q.Close();
  consumer.join();
  // Load shedding must lose exactly the rejected elements: whatever was
  // accepted is consumed, element for element.
  EXPECT_EQ(consumed_count.load(), accepted.load());
  EXPECT_EQ(consumed_sum.load(), accepted_sum.load());
  EXPECT_EQ(q.total_pushed(), accepted.load());
  EXPECT_GT(accepted.load(), 0u);
}

TEST(ServeRingStressTest, CloseRaceNeverLosesOrInventsAcceptedPushes) {
  // Close() racing a hot producer: every Push that reported success must
  // be drained, and every Push the close beat must report failure — the
  // ring enforces that with the post-claim re-check (dead cells).
  for (int iter = 0; iter < 200; ++iter) {
    MpscRingQueue<int> q(8);
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> consumed{0};
    std::thread producer([&] {
      int i = 0;
      while (q.Push(i++)) accepted.fetch_add(1, std::memory_order_relaxed);
    });
    std::thread consumer([&] {
      std::vector<int> batch;
      while (q.PopBatch(4, &batch)) {
        consumed.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
    if (iter % 2 == 0) std::this_thread::yield();  // vary the close timing
    q.Close();
    producer.join();
    consumer.join();
    EXPECT_EQ(consumed.load(), accepted.load()) << "iter " << iter;
    EXPECT_EQ(q.total_pushed(), accepted.load()) << "iter " << iter;
  }
}

/// Payload whose move takes ~50 us and reports whether its source changed
/// meanwhile: it holds a cell hand-over open long enough for a producer that
/// refills the slot too early to land mid-move.
std::atomic<int> g_torn_moves{0};
struct SlowMove {
  std::atomic<int> v{-1};
  SlowMove() = default;
  explicit SlowMove(int x) : v(x) {}
  SlowMove(SlowMove&& o) noexcept : v(o.v.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (o.v.load() != v.load()) ++g_torn_moves;
  }
  SlowMove& operator=(SlowMove&& o) noexcept {
    v = o.v.load();
    return *this;
  }
};

TEST(ServeRingStressTest, CapacityOneNeverRefillsASlotMidHandOver) {
  // A one-slot queue (the serving layer's kReject tests use one) against a
  // producer spinning on TryPush: no element may be overwritten while the
  // consumer moves it out, none lost, none reordered.
  constexpr int kOps = 1000;
  g_torn_moves = 0;
  MpscRingQueue<SlowMove> q(1);
  std::vector<int> got;
  std::atomic<bool> give_up{false};
  std::atomic<bool> consumer_done{false};
  std::thread consumer([&] {
    std::vector<SlowMove> batch;
    while (got.size() < static_cast<size_t>(kOps) && !give_up.load()) {
      q.PopBatch(1, &batch);
      for (const SlowMove& m : batch) got.push_back(m.v.load());
    }
    consumer_done = true;
  });
  // A wedged queue refuses every push; give up instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool wedged = false;
  for (int i = 0; i < kOps && !wedged; ++i) {
    while (!q.TryPush(SlowMove(i))) {
      if (std::chrono::steady_clock::now() > deadline) {
        wedged = true;
        break;
      }
    }
  }
  if (wedged) give_up = true;
  while (!consumer_done.load()) {
    q.Kick();  // release a consumer parked on a wedged queue
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumer.join();
  EXPECT_FALSE(wedged) << "queue refused pushes after " << got.size();
  EXPECT_EQ(g_torn_moves.load(), 0);
  ASSERT_EQ(got.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) ASSERT_EQ(got[i], i);
}

TEST(ServeRingStressTest, KickStormWhilePushingNeverLosesElements) {
  constexpr int kOps = 3000;
  MpscRingQueue<int> q(16);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> empty_wakes{0};
  std::thread consumer([&] {
    std::vector<int> batch;
    while (q.PopBatch(4, &batch)) {
      if (batch.empty()) {
        empty_wakes.fetch_add(1, std::memory_order_relaxed);
      } else {
        consumed.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    }
  });
  std::thread kicker([&] {
    // Kick for as long as the pushes run, then on (bounded) until one kick
    // has woken an empty pop: a loaded host may never schedule the
    // consumer on an empty queue while the pushes are running.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done.load(std::memory_order_acquire) ||
           (empty_wakes.load(std::memory_order_relaxed) == 0 &&
            std::chrono::steady_clock::now() < deadline)) {
      q.Kick();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kOps; ++i) ASSERT_TRUE(q.Push(i));
  done.store(true, std::memory_order_release);
  kicker.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(consumed.load(), static_cast<uint64_t>(kOps));
  EXPECT_GT(empty_wakes.load(), 0u);  // the kicks really did wake the pop
}

TEST(ServeServiceTest, StartPublishesInitialSnapshot) {
  PointSet ps = GenerateIndep(120, 3, 1);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 8;
  sopt.algo.max_utilities = 128;
  FdRmsService service(3, sopt);
  EXPECT_EQ(service.Query(), nullptr);  // nothing published pre-Start
  ASSERT_TRUE(service.Start(AsTuples(ps, 120)).ok());
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->ops_applied, 0u);
  EXPECT_EQ(snap->live_tuples, 120);
  EXPECT_LE(static_cast<int>(snap->ids.size()), 8);
  EXPECT_EQ(snap->ids.size(), snap->points.size());
  // The published state is exactly what a direct instance computes.
  FdRms direct(3, sopt.algo);
  ASSERT_TRUE(direct.Initialize(AsTuples(ps, 120)).ok());
  EXPECT_EQ(snap->ids, direct.Result());
  EXPECT_EQ(snap->sample_size_m, direct.current_m());
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeServiceTest, StartFromAdoptsTheInstanceAndChecksItsOptions) {
  PointSet ps = GenerateIndep(160, 3, 2);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 8;
  sopt.algo.max_utilities = 128;
  // An instance with history: P_0 plus inserts and deletes.
  FdRms direct(3, sopt.algo);
  ASSERT_TRUE(direct.Initialize(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 160; ++i) {
    ASSERT_TRUE(direct.Insert(i, ps.Get(i)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(direct.Delete(i - 100).ok());
    }
  }
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.StartFrom(direct).ok());
  EXPECT_EQ(service.StartFrom(direct).code(), StatusCode::kFailedPrecondition);
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->ids, direct.Result());
  EXPECT_EQ(snap->sample_size_m, direct.current_m());
  EXPECT_EQ(snap->live_tuples, direct.size());
  // It keeps serving from the adopted state, in step with the original.
  ASSERT_TRUE(service.SubmitDelete(1).ok());
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  ASSERT_TRUE(direct.Delete(1).ok());
  EXPECT_EQ(service.algorithm().Result(), direct.Result());
  EXPECT_TRUE(service.algorithm().Validate().ok());

  // Another budget or dimension would misreport the guarantee: refuse.
  FdRmsServiceOptions other = sopt;
  other.algo.r = 9;
  FdRmsService mismatched(3, other);
  EXPECT_EQ(mismatched.StartFrom(direct).code(), StatusCode::kInvalidArgument);
  FdRmsService wrong_dim(2, sopt);
  EXPECT_EQ(wrong_dim.StartFrom(direct).code(), StatusCode::kInvalidArgument);
}

TEST(ServeServiceTest, SubmitBeforeStartOrAfterStopFails) {
  FdRmsServiceOptions sopt;
  sopt.algo.max_utilities = 32;
  FdRmsService service(2, sopt);
  EXPECT_EQ(service.SubmitDelete(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stop().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Start({{0, {0.3, 0.4}}, {1, {0.5, 0.2}}}).ok());
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_TRUE(service.Stop().ok());  // idempotent
  EXPECT_EQ(service.SubmitInsert(9, {0.1, 0.1}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServeServiceTest, FlushedStreamMatchesDirectApplication) {
  PointSet ps = GenerateAntiCor(200, 3, 2);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 10;
  sopt.algo.max_utilities = 128;
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  FdRms direct(3, sopt.algo);
  ASSERT_TRUE(direct.Initialize(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    ASSERT_TRUE(direct.Insert(i, ps.Get(i)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(service.SubmitDelete(i).ok());
    ASSERT_TRUE(direct.Delete(i).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->ops_applied, 150u);
  EXPECT_EQ(snap->ops_rejected, 0u);
  EXPECT_EQ(snap->live_tuples, 150);
  EXPECT_EQ(snap->ids, direct.Result());
  EXPECT_EQ(snap->sample_size_m, direct.current_m());
  // Points are resolved against the same live tuples.
  for (size_t i = 0; i < snap->ids.size(); ++i) {
    EXPECT_EQ(snap->points[i], ps.Get(snap->ids[i]));
  }
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeServiceTest, RejectedOperationDoesNotEatTheBatchTail) {
  PointSet ps = GenerateIndep(60, 2, 3);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 5;
  sopt.algo.max_utilities = 64;
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
  ASSERT_TRUE(service.SubmitInsert(3, ps.Get(3)).ok());   // duplicate: rejected
  ASSERT_TRUE(service.SubmitDelete(999).ok());            // absent: rejected
  ASSERT_TRUE(service.SubmitInsert(40, ps.Get(40)).ok()); // fine
  ASSERT_TRUE(service.SubmitDelete(0).ok());              // fine
  ASSERT_TRUE(service.Flush().ok());
  auto snap = service.Query();
  EXPECT_EQ(snap->ops_applied, 2u);
  EXPECT_EQ(snap->ops_rejected, 2u);
  EXPECT_EQ(snap->live_tuples, 40);  // -1 +1
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_TRUE(service.algorithm().topk().tree().Contains(40));
  EXPECT_FALSE(service.algorithm().topk().tree().Contains(0));
}

TEST(ServeServiceTest, RejectPolicySurfacesResourceExhausted) {
  PointSet ps = GenerateIndep(80, 2, 4);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 5;
  sopt.algo.max_utilities = 64;
  sopt.queue_capacity = 1;
  sopt.max_batch = 1;
  sopt.overflow = FdRmsServiceOptions::Overflow::kReject;
  sopt.batch_delay_us_for_test = 2000;  // writer lags: the queue stays full
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 40)).ok());
  int accepted = 0, shed = 0;
  for (int i = 40; i < 80; ++i) {
    Status st = service.SubmitInsert(i, ps.Get(i));
    if (st.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      ++shed;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(shed, 0);  // a 2ms-per-op writer cannot keep up with a tight loop
  ASSERT_TRUE(service.Flush().ok());
  auto snap = service.Query();
  EXPECT_EQ(snap->ops_applied, static_cast<uint64_t>(accepted));
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeServiceTest, StopAbortDropsBacklogAndFailsFlush) {
  PointSet ps = GenerateIndep(300, 2, 5);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 5;
  sopt.algo.max_utilities = 64;
  sopt.max_batch = 1;
  sopt.batch_delay_us_for_test = 3000;
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 300; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Stop(FdRmsService::StopPolicy::kAbort).ok());
  // 200 ops at >= 3ms each would take >= 600ms; submission took far less,
  // so aborting must have found a backlog to drop.
  EXPECT_GT(service.ops_dropped(), 0u);
  auto snap = service.Query();
  EXPECT_EQ(snap->ops_applied + service.ops_dropped(), 200u);
  EXPECT_EQ(service.Flush().code(), StatusCode::kFailedPrecondition);
  // The published state is still a consistent prefix of the stream.
  EXPECT_EQ(snap->live_tuples, 100 + static_cast<int>(snap->ops_applied));
}

TEST(ServeServiceTest, DrainStopAppliesEverythingQueued) {
  PointSet ps = GenerateIndep(200, 2, 6);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.max_batch = 4;
  sopt.batch_delay_us_for_test = 500;
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Stop(FdRmsService::StopPolicy::kDrain).ok());
  auto snap = service.Query();
  EXPECT_EQ(snap->ops_applied, 100u);
  EXPECT_EQ(snap->live_tuples, 200);
  EXPECT_EQ(service.ops_dropped(), 0u);
}

// The acceptance scenario: 4 readers + 3 submitters over a mixed
// insert/delete stream. Readers assert internal consistency of every
// snapshot they observe; afterwards the drained final snapshot must equal a
// sequential replay of the journaled operation order.
TEST(ServeServiceTest, ConcurrentChurnIsConsistentAndMatchesSequentialReplay) {
  constexpr int kReaders = 4;
  constexpr int kSubmitters = 3;
  PointSet ps = GenerateAntiCor(240, 3, 7);
  Workload wl(&ps, 31);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 10;
  sopt.algo.max_utilities = 256;
  sopt.max_batch = 16;
  sopt.record_journal = true;
  FdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  ASSERT_TRUE(service.Start(initial).ok());

  std::atomic<bool> stop_readers{false};
  struct ReaderLog {
    uint64_t queries = 0;
    uint64_t distinct_versions = 0;
    std::string failure;  // first violation seen, empty if none
  };
  std::vector<ReaderLog> logs(kReaders);
  // Submitting starts once every reader has queried, so each one reads
  // while the writer churns however the threads are scheduled.
  std::atomic<int> readers_started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderLog& log = logs[t];
      uint64_t last_version = 0;
      uint64_t last_consumed = 0;
      bool first = true;
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto snap = service.Query();
        if (log.queries++ == 0) readers_started.fetch_add(1);
        auto fail = [&](const std::string& what) {
          if (log.failure.empty()) log.failure = what;
        };
        if (snap == nullptr) {
          fail("null snapshot");
          break;
        }
        if (!first && snap->version < last_version) fail("version regressed");
        if (first || snap->version != last_version) ++log.distinct_versions;
        uint64_t consumed = snap->ops_applied + snap->ops_rejected;
        if (!first && consumed < last_consumed) fail("op counter regressed");
        if (static_cast<int>(snap->ids.size()) > sopt.algo.r) {
          fail("|Q| exceeds r");
        }
        if (snap->ids.size() != snap->points.size()) {
          fail("ids/points not parallel");
        }
        if (!std::is_sorted(snap->ids.begin(), snap->ids.end()) ||
            std::adjacent_find(snap->ids.begin(), snap->ids.end()) !=
                snap->ids.end()) {
          fail("ids not sorted unique");
        }
        for (const Point& p : snap->points) {
          if (static_cast<int>(p.size()) != 3) fail("point dim mismatch");
        }
        last_version = snap->version;
        last_consumed = consumed;
        first = false;
        std::this_thread::yield();
      }
    });
  }

  while (readers_started.load() < kReaders) std::this_thread::yield();
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
  for (std::thread& th : submitters) th.join();
  ASSERT_TRUE(service.Flush().ok());
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  ASSERT_TRUE(service.Stop().ok());

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(logs[t].failure.empty())
        << "reader " << t << ": " << logs[t].failure;
    EXPECT_GT(logs[t].queries, 0u);
  }

  // Accounting: every submitted op was consumed exactly once.
  auto final_snap = service.Query();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->ops_applied + final_snap->ops_rejected, ops.size());
  const std::vector<FdRms::BatchOp>& journal = service.journal();
  ASSERT_EQ(journal.size(), ops.size());

  // The drained snapshot equals a sequential replay of the journaled order.
  auto replay = SequentialReplay(3, sopt.algo, initial, journal);
  EXPECT_EQ(final_snap->ids, replay->Result());
  EXPECT_EQ(final_snap->sample_size_m, replay->current_m());
  EXPECT_EQ(final_snap->live_tuples, replay->size());
  EXPECT_EQ(final_snap->ids, service.algorithm().Result());
  ASSERT_TRUE(service.algorithm().Validate().ok());
}

TEST(ServeServiceTest, CollectRangeReadsLiveTuplesWhileRunning) {
  PointSet ps = GenerateIndep(150, 3, 12);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  FdRmsService service(3, sopt);
  std::vector<std::pair<int, Point>> out;
  // Not running yet: the writer cannot serve an inspection.
  EXPECT_EQ(service.CollectRange([](int) { return true; }, &out).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 150; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  // The writer stays running: the range is read out of the live state.
  ASSERT_TRUE(service.CollectRange([](int id) { return id < 30; }, &out).ok());
  EXPECT_TRUE(service.running());
  ASSERT_EQ(out.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].first, i);  // sorted by id
    EXPECT_EQ(out[static_cast<size_t>(i)].second, ps.Get(i));
  }
  ASSERT_TRUE(service.CollectRange([](int id) { return id >= 140; }, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(service.CollectRange([](int) { return true; }, &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServeResumeTest, ResumeFromSnapshotSkipsHistory) {
  PointSet ps = GenerateIndep(200, 3, 13);
  std::string path;
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  PersistVersioned(&sopt, ::testing::TempDir() + "serve_resume.snapshot", 1,
                   &path);
  {
    FdRmsService service(3, sopt);
    ASSERT_TRUE(service.Start(AsTuples(ps, 120)).ok());
    for (int i = 120; i < 200; ++i) {
      ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(service.SubmitDelete(i).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.Stop().ok());  // exit save captures the final state
  }
  FdRmsServiceOptions ropt = sopt;
  ropt.persist_every_batches = 0;  // resume-only this time
  ropt.resume_path = path;
  FdRmsService service(3, ropt);
  // The resumed service needs no P_0 and no history replay.
  ASSERT_TRUE(service.Start({}).ok());
  EXPECT_TRUE(service.resumed());
  auto snap = service.Query();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->live_tuples, 160);  // 120 - 40 + 80
  // The restored state keeps serving mutations on top of the snapshot.
  ASSERT_TRUE(service.SubmitDelete(100).ok());
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(service.Query()->ops_rejected, 0u);
  EXPECT_EQ(service.Query()->live_tuples, 159);
  ASSERT_TRUE(service.Stop().ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(service.algorithm().topk().tree().Contains(i)) << i;
  }
  for (int i = 120; i < 200; ++i) {
    EXPECT_TRUE(service.algorithm().topk().tree().Contains(i)) << i;
  }
  ASSERT_TRUE(service.algorithm().Validate().ok());
}

TEST(ServeResumeTest, MissingSnapshotFallsBackToInitial) {
  PointSet ps = GenerateIndep(60, 2, 14);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.resume_path = ::testing::TempDir() + "serve_resume_never_written";
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());  // first boot: fresh
  EXPECT_FALSE(service.resumed());
  EXPECT_EQ(service.Query()->live_tuples, 60);
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeResumeTest, OptionMismatchFailsStart) {
  PointSet ps = GenerateIndep(80, 2, 15);
  std::string path;
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  PersistVersioned(&sopt, ::testing::TempDir() + "serve_resume_mismatch", 1,
                   &path);
  {
    FdRmsService service(2, sopt);
    ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
    for (int i = 60; i < 80; ++i) {
      ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    ASSERT_TRUE(service.Stop().ok());
    ASSERT_GE(service.persists(), 1u);  // the snapshot to resume from exists
  }
  // A different result budget changes the restored guarantee: refuse.
  FdRmsServiceOptions ropt = sopt;
  ropt.persist_every_batches = 0;
  ropt.resume_path = path;
  ropt.algo.r = 8;
  FdRmsService mismatched(2, ropt);
  EXPECT_EQ(mismatched.Start({}).code(), StatusCode::kInvalidArgument);
  // A corrupt snapshot is an error too, not a silent fresh start.
  const std::string bad = ::testing::TempDir() + "serve_resume_corrupt";
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "not a snapshot\n";
  }
  FdRmsServiceOptions copt = sopt;
  copt.persist_every_batches = 0;
  copt.resume_path = bad;
  FdRmsService corrupt(2, copt);
  EXPECT_FALSE(corrupt.Start({}).ok());
}

TEST(ServePersistTest, WriterPersistsPeriodicallyAndFinalStateOnDrainStop) {
  PointSet ps = GenerateIndep(200, 3, 9);
  std::string path;
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 64;
  sopt.max_batch = 8;
  PersistVersioned(&sopt, ::testing::TempDir() + "serve_persist.snapshot", 2,
                   &path);
  FdRmsService service(3, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 120)).ok());
  for (int i = 120; i < 200; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(service.SubmitDelete(i).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop(FdRmsService::StopPolicy::kDrain).ok());
  // Periodic saves happened while serving, and the exit save captured the
  // fully drained state.
  EXPECT_GE(service.persists(), 1u);
  EXPECT_EQ(service.persist_failures(), 0u);
  // The persist counter rides the snapshot: >= 120 ops at max_batch 8 means
  // >= 15 batches, so with an interval of 2 a periodic save completed
  // before the last publication (the exit save may add one more).
  EXPECT_GE(service.Query()->persisted, 1u);
  EXPECT_LE(service.Query()->persisted, service.persists());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no snapshot at " << path;
  auto loaded = LoadSnapshot(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const FdRms& restored = **loaded;
  EXPECT_EQ(restored.size(), service.algorithm().size());
  EXPECT_EQ(restored.current_m(), service.algorithm().current_m());
  ASSERT_TRUE(restored.Validate().ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(restored.topk().tree().Contains(i)) << i;
  }
  for (int i = 120; i < 200; ++i) {
    EXPECT_TRUE(restored.topk().tree().Contains(i)) << i;
  }
}

TEST(ServePersistTest, PersistFailuresAreCountedNotFatal) {
  PointSet ps = GenerateIndep(120, 2, 10);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 4;
  std::string path;
  PersistVersioned(&sopt, ::testing::TempDir() + "no_such_dir/serve.snapshot",
                   1, &path);
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 60)).ok());
  for (int i = 60; i < 120; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  // The serving path kept going; only the persistence attempts failed.
  EXPECT_EQ(service.Query()->ops_applied, 60u);
  EXPECT_GT(service.persist_failures(), 0u);
  EXPECT_EQ(service.persists(), 0u);
  EXPECT_TRUE(path.empty());  // on_persist only reports successful saves
}

TEST(ServePersistTest, PersistenceWithoutVersionPathFailsStart) {
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.persist_every_batches = 1;  // no persist_version_path
  FdRmsService service(2, sopt);
  EXPECT_EQ(service.Start({}).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(service.running());
}

/// Parks the service's writer inside Inspect until Release(), so a test can
/// queue a backlog the writer has not drained any of yet.
class WriterHold {
 public:
  explicit WriterHold(FdRmsService* service)
      : thread_([this, service] {
          bool ran = false;
          status_ = service->Inspect([&](const FdRms&) {
            ran = true;
            entered_.set_value();
            released_.wait();
          });
          if (!ran) entered_.set_value();  // Inspect refused: don't hang
        }) {
    entered_future_.wait();
  }
  ~WriterHold() { (void)Release(); }
  WriterHold(const WriterHold&) = delete;
  WriterHold& operator=(const WriterHold&) = delete;

  Status Release() {
    if (thread_.joinable()) {
      release_.set_value();
      thread_.join();
    }
    return status_;
  }

 private:
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::future<void> released_ = release_.get_future();
  Status status_;
  std::thread thread_;  ///< last: its lambda uses the members above
};

/// Records the size of every batch the writer applies. Read the sizes only
/// after Stop() joined the writer.
void RecordBatchSizes(FdRmsServiceOptions* sopt, std::vector<size_t>* sizes) {
  sopt->on_apply = [sizes](const std::vector<FdRms::BatchOp>& batch) {
    sizes->push_back(batch.size());
  };
}

TEST(ServeBatchingTest, BatchesStayInBoundAndHistogramsAccount) {
  PointSet ps = GenerateIndep(400, 2, 21);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 32;
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  // Burst phase: push far more than max_batch; then one-op batches.
  for (int i = 100; i < 400; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.SubmitDelete(i).ok());
    ASSERT_TRUE(service.Flush().ok());  // one-op batches: observed depth ~ 1
  }
  EXPECT_EQ(service.batch_bound(), sopt.max_batch);
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* sizes = scrape.Find("fdrms_batch_size_pow2");
  const obs::MetricSnapshot* depths = scrape.Find("fdrms_queue_depth_pow2");
  ASSERT_NE(sizes, nullptr);
  ASSERT_NE(depths, nullptr);
  ASSERT_EQ(sizes->buckets.size(), obs::kPow2HistBuckets);
  ASSERT_EQ(depths->buckets.size(), obs::kPow2HistBuckets);
  // Every applied batch was histogrammed and no batch exceeded the bound.
  for (size_t b = 0; b < sizes->buckets.size(); ++b) {
    if (sizes->buckets[b] > 0) {
      EXPECT_LE(obs::Pow2HistBucketFloor(b), sopt.max_batch);
    }
  }
  EXPECT_EQ(sizes->count, service.Query()->batches);
  EXPECT_EQ(sizes->buckets[0], 0u);  // batch size 0 is never applied
  EXPECT_GT(depths->count, 0u);
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeServiceTest, HealthGaugesTrackTheCoverAndTheIncidence) {
  PointSet ps = GenerateIndep(260, 3, 23);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 128;
  FdRmsService service(3, sopt);
  FdRms direct(3, sopt.algo);
  ASSERT_TRUE(service.Start(AsTuples(ps, 200)).ok());
  ASSERT_TRUE(direct.Initialize(AsTuples(ps, 200)).ok());
  for (int i = 200; i < 260; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    ASSERT_TRUE(direct.Insert(i, ps.Get(i)).ok());
    ASSERT_TRUE(service.SubmitDelete(i - 200).ok());
    ASSERT_TRUE(direct.Delete(i - 200).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  size_t entries = 0;
  for (int u = 0; u < direct.topk().num_utilities(); ++u) {
    entries += direct.topk().ApproxTopK(u).size();
  }
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* cover = scrape.Find("fdrms_cover_size");
  const obs::MetricSnapshot* incidence =
      scrape.Find("fdrms_incidence_entries");
  ASSERT_NE(cover, nullptr);
  ASSERT_NE(incidence, nullptr);
  EXPECT_EQ(cover->gauge_value, static_cast<double>(direct.Result().size()));
  EXPECT_EQ(incidence->gauge_value, static_cast<double>(entries));
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeServiceTest, InsertScanSkipsRiseOnAnIndepStream) {
  // Q_t ε-dominates most of an Indep stream's tuples, so their inserts
  // skip the utility scan; the counter adds each batch's skips and ends at
  // the count of a directly driven FdRms (Initialize never skips).
  PointSet ps = GenerateIndep(600, 3, 24);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 6;
  sopt.algo.max_utilities = 128;
  FdRmsService service(3, sopt);
  FdRms direct(3, sopt.algo);
  ASSERT_TRUE(service.Start(AsTuples(ps, 300)).ok());
  ASSERT_TRUE(direct.Initialize(AsTuples(ps, 300)).ok());
  auto skips = [&service] {
    const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
    const obs::MetricSnapshot* counter =
        scrape.Find("fdrms_insert_scan_skips_total");
    EXPECT_NE(counter, nullptr);
    return counter == nullptr ? uint64_t{0} : counter->counter_value;
  };
  EXPECT_EQ(skips(), 0u);
  for (int i = 300; i < 600; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    ASSERT_TRUE(direct.Insert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_GT(skips(), 100u);
  EXPECT_EQ(skips(), direct.topk().insert_scan_skips());
  ASSERT_TRUE(service.Stop().ok());
}

TEST(ServeBatchingTest, ConfiguredBoundIsInForceAndCapsBatches) {
  PointSet ps = GenerateIndep(200, 2, 22);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 16;
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* bound = scrape.Find("fdrms_batch_bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->gauge_value, 16.0);
  const obs::MetricSnapshot* sizes = scrape.Find("fdrms_batch_size_pow2");
  ASSERT_NE(sizes, nullptr);
  for (size_t b = 0; b < sizes->buckets.size(); ++b) {
    if (sizes->buckets[b] > 0) {
      EXPECT_LE(obs::Pow2HistBucketFloor(b), 16u);
    }
  }
  ASSERT_TRUE(service.Stop().ok());
}

// A backlog that is already queued when the writer wakes drains in full
// max_batch batches from the first one: there is no warm-up ramp.
TEST(ServeBatchingTest, QueuedBacklogDrainsInMaxBatchBatches) {
  PointSet ps = GenerateIndep(164, 2, 23);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 32;
  std::vector<size_t> batch_sizes;
  RecordBatchSizes(&sopt, &batch_sizes);
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  WriterHold hold(&service);
  for (int i = 100; i < 164; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(hold.Release().ok());
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{32, 32}));
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* sizes = scrape.Find("fdrms_batch_size_pow2");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 2u);
  EXPECT_EQ(sizes->buckets[obs::Pow2HistBucket(32)], 2u);
  EXPECT_EQ(service.Query()->ops_applied, 64u);
}

TEST(ServeBatchingTest, SetBatchBoundCapsEveryLaterBatch) {
  PointSet ps = GenerateIndep(140, 2, 24);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 32;
  std::vector<size_t> batch_sizes;
  RecordBatchSizes(&sopt, &batch_sizes);
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 100)).ok());
  // Out-of-range asks clamp into [1, max_batch].
  EXPECT_EQ(service.SetBatchBound(0), 1u);
  EXPECT_EQ(service.SetBatchBound(1000), 32u);
  EXPECT_EQ(service.SetBatchBound(4), 4u);
  EXPECT_EQ(service.batch_bound(), 4u);
  WriterHold hold(&service);
  for (int i = 100; i < 140; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
  }
  ASSERT_TRUE(hold.Release().ok());
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());
  ASSERT_EQ(batch_sizes.size(), 10u);  // 40 queued ops, 4 per batch
  for (size_t size : batch_sizes) EXPECT_EQ(size, 4u);
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* bound = scrape.Find("fdrms_batch_bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->gauge_value, 4.0);
}

TEST(ServeLatencyTest, SnapshotCarriesPublicationLatencyQuantiles) {
  PointSet ps = GenerateIndep(160, 2, 11);
  FdRmsServiceOptions sopt;
  sopt.algo.r = 4;
  sopt.algo.max_utilities = 32;
  sopt.max_batch = 4;
  sopt.batch_delay_us_for_test = 1000;  // every batch takes >= 1ms
  FdRmsService service(2, sopt);
  ASSERT_TRUE(service.Start(AsTuples(ps, 80)).ok());
  // The registry snapshot carries the latency histogram; ResultSnapshot
  // carries only the result and its counters.
  const obs::RegistrySnapshot initial = service.registry()->Snapshot();
  const obs::MetricSnapshot* initial_lat =
      initial.Find("fdrms_publish_latency_us");
  ASSERT_NE(initial_lat, nullptr);
  EXPECT_EQ(initial_lat->count, 0u);  // no batch completed yet
  EXPECT_EQ(initial_lat->Quantile(0.50), 0.0);
  EXPECT_EQ(service.Query()->writer_busy_seconds, 0.0);
  for (int i = 80; i < 160; ++i) {
    ASSERT_TRUE(service.SubmitInsert(i, ps.Get(i)).ok());
    if (i % 4 == 3) {
      ASSERT_TRUE(service.Flush().ok());  // force many batches
    }
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());  // every batch's latency is recorded
  const obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  const obs::MetricSnapshot* lat = scrape.Find("fdrms_publish_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, service.Query()->batches);
  EXPECT_GE(lat->Quantile(0.50), 1000.0);
  EXPECT_GE(lat->Quantile(0.99), lat->Quantile(0.50));
  EXPECT_GT(service.Query()->writer_busy_seconds, 0.0);
}

TEST(ServeDriverTest, LoadRunDrainsWorkloadAndStaysConsistent) {
  PointSet ps = GenerateIndep(200, 3, 8);
  Workload wl(&ps, 17);
  ServiceLoadOptions lopt;
  lopt.num_readers = 4;
  lopt.num_submitters = 2;
  lopt.service.algo.r = 8;
  lopt.service.algo.max_utilities = 128;
  lopt.service.max_batch = 32;
  ServiceLoadResult res = RunServiceLoad(wl, lopt);
  EXPECT_TRUE(res.consistent);
  EXPECT_EQ(res.ops_submitted, wl.operations().size());
  EXPECT_EQ(res.ops_applied + res.ops_rejected, res.ops_submitted);
  EXPECT_EQ(res.submit_failures, 0u);
  EXPECT_GT(res.queries, 0u);
  EXPECT_GT(res.batches, 0u);
  EXPECT_GT(res.update_throughput, 0.0);
  EXPECT_GT(res.query_throughput, 0.0);
  EXPECT_LE(res.final_result_size, 8);
  EXPECT_GE(res.mean_staleness_ops, 0.0);
  EXPECT_GE(res.max_staleness_ops, res.mean_staleness_ops);
}

// Submitters split the stream by id, so an id's delete never overtakes its
// insert: every op of a paper-protocol stream applies.
TEST(ServeDriverTest, IdPartitionedSubmittersApplyEveryOp) {
  PointSet ps = GenerateIndep(4000, 3, 23);
  Workload wl(&ps, 29);
  ServiceLoadOptions lopt;
  lopt.num_readers = 1;
  lopt.num_submitters = 4;
  lopt.service.algo.r = 8;
  lopt.service.algo.max_utilities = 64;
  lopt.service.max_batch = 32;
  ServiceLoadResult res = RunServiceLoad(wl, lopt);
  EXPECT_EQ(res.ops_submitted, wl.operations().size());
  EXPECT_EQ(res.ops_rejected, 0u);
  EXPECT_EQ(res.ops_applied, wl.operations().size());
  EXPECT_EQ(res.submit_failures, 0u);
}

}  // namespace
}  // namespace fdrms
