#ifndef FDRMS_SERVE_MPSC_RING_QUEUE_H_
#define FDRMS_SERVE_MPSC_RING_QUEUE_H_

/// \file mpsc_ring_queue.h
/// The serving layer's update queue: a bounded lock-free multi-producer/
/// single-consumer ring. Producers are request threads submitting
/// mutations; the single consumer (the writer) drains up to a batch per
/// wakeup so it amortizes wakeup and publication cost across many
/// operations.
///
/// Design (Vyukov-style bounded queue):
///  - Power-of-two cell array; each cell carries its own sequence counter,
///    so producers claiming a slot and the consumer releasing one never
///    touch a shared "size" — the per-cell counter both publishes the
///    element and detects wrap-around.
///  - Producers claim cells with a CAS on `enqueue_pos_`; the consumer
///    advances `dequeue_pos_` the same way (CAS rather than a plain store
///    only so the shutdown path's Clear() may drain from a second thread).
///  - The two indices live on separate cache lines, and producers enforce
///    the *logical* capacity through `dequeue_cache_` — a producer-side
///    cached copy of the consumer index that is refreshed only when the
///    cached value says "full", so the common-case push reads no
///    consumer-written line at all.
///  - Blocking (`Push` on full, `PopBatch` on empty) spins briefly and then
///    parks on a condvar — the mutex guards only the parking protocol,
///    never the data path. Waiters use a bounded wait so a lost wakeup
///    costs at most one timeout, not a hang.
///
/// Contract (backpressure and shutdown):
///  - `Push` blocks while full and returns false only when the queue
///    closes first (the element is then not enqueued).
///  - `TryPush` returns false when full or closed (kReject load-shedding).
///  - `PopBatch` blocks for the first element, drains up to a batch,
///    returns true with an empty batch on a `Kick`, and returns false only
///    once the queue is closed *and* every accepted element has been
///    consumed (end of stream).
///  - `Clear` discards the backlog and reports how many were dropped.
///  - `Close` is idempotent, wakes blocked producers, and lets the consumer
///    drain.
///
/// The push-vs-close race is resolved with a seq_cst post-claim re-check:
/// a producer whose claim lands after the close publishes a *dead* cell (no
/// element, push reports failure) that consumers skip, so a close can
/// neither lose an accepted element nor let one slip in after the
/// consumer's final drain. `total_pushed()` is incremented between
/// claiming a cell and publishing it, so any observer that saw an element
/// consumed reads a count that already includes it — the serving layer's
/// backlog arithmetic stays underflow-free.
///
/// T must be movable and default-constructible (cells construct elements
/// in place; PopBatch moves them out through a stack temporary).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fdrms {

template <typename T>
class MpscRingQueue {
 public:
  explicit MpscRingQueue(size_t capacity) : capacity_(capacity) {
    FDRMS_CHECK(capacity > 0);
    // At least two cells: with one, the consumer's "free" sequence value
    // (pos + cells) equals the producer's "published" value (pos + 1), so
    // the next producer could claim the cell while the consumer is still
    // moving the previous element out of it.
    size_t cells = 2;
    while (cells < capacity) cells <<= 1;
    mask_ = cells - 1;
    cells_ = std::make_unique<Cell[]>(cells);
    for (size_t i = 0; i < cells; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  ~MpscRingQueue() {
    // Destroy whatever was accepted but never consumed.
    T discard;
    while (TryPop(&discard)) {
    }
  }

  MpscRingQueue(const MpscRingQueue&) = delete;
  MpscRingQueue& operator=(const MpscRingQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns true if
  /// the element was enqueued, false if the queue closed first.
  bool Push(T value) {
    for (;;) {
      PushOutcome r = TryPushOnce(&value);
      if (r == PushOutcome::kOk) return true;
      if (r == PushOutcome::kClosed) return false;
      // Full. Spin briefly — the consumer frees a whole batch at a time,
      // so room tends to appear in bursts — then park on the slow path.
      // Spinning only pays when the consumer can run concurrently, so a
      // single-core host parks immediately instead of burning its only
      // core's quantum on yields.
      for (int spin = 0; spin < SpinIters(); ++spin) {
        std::this_thread::yield();
        r = TryPushOnce(&value);
        if (r == PushOutcome::kOk) return true;
        if (r == PushOutcome::kClosed) return false;
      }
      std::unique_lock<std::mutex> lock(park_mutex_);
      producers_parked_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (size() >= capacity_ && !closed_.load(std::memory_order_relaxed)) {
        // Bounded wait: the consumer notifies after freeing room, and the
        // timeout caps the cost of any wakeup lost to the benign race
        // between our recheck and its notify.
        not_full_.wait_for(lock, std::chrono::milliseconds(1));
      }
      producers_parked_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Non-blocking push: false when full or closed.
  bool TryPush(T value) {
    return TryPushOnce(&value) == PushOutcome::kOk;
  }

  /// Consumer side: blocks until at least one element is available, then
  /// moves up to `max_batch` elements into `out` (cleared first). Returns
  /// false only when the queue is closed *and* fully drained — end of
  /// stream. A Kick() wakes the wait early: the call then returns true with
  /// an empty batch so the consumer can run out-of-band work (e.g. a state
  /// inspection) and loop back.
  bool PopBatch(size_t max_batch, std::vector<T>* out) {
    out->clear();
    for (;;) {
      while (out->size() < max_batch &&
             TryPopMany(max_batch - out->size(), out) > 0) {
      }
      if (!out->empty()) {
        WakeParkedProducers();
        return true;
      }
      if (closed_.load(std::memory_order_seq_cst)) {
        // End of stream only once nothing is queued *or in flight*: a
        // producer that claimed a cell just before the close will still
        // publish it (live or dead, see TryPushOnce's post-claim check),
        // and an accepted element must never be lost. A stale kick does
        // not outrank the close (see the contract above). seq_cst pairs with
        // the producer's post-claim re-check: a claim this load misses
        // implies the producer's re-check saw the close and refused the
        // element.
        if (enqueue_pos_.load(std::memory_order_seq_cst) ==
            dequeue_pos_.load(std::memory_order_relaxed)) {
          return false;
        }
        std::this_thread::yield();  // let the claimed cell land
        continue;
      }
      if (kicked_.exchange(false, std::memory_order_acq_rel)) return true;
      // Empty and open: park until a producer publishes (or Close/Kick).
      std::unique_lock<std::mutex> lock(park_mutex_);
      consumer_parked_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (enqueue_pos_.load(std::memory_order_acquire) ==
              dequeue_pos_.load(std::memory_order_relaxed) &&
          !closed_.load(std::memory_order_relaxed) &&
          !kicked_.load(std::memory_order_relaxed)) {
        not_empty_.wait_for(lock, std::chrono::milliseconds(1));
      }
      consumer_parked_.store(false, std::memory_order_relaxed);
    }
  }

  /// Discards everything queued; returns how many elements were dropped.
  /// Uses the same CAS dequeue protocol as the consumer, so the shutdown
  /// path may call it while the consumer is still popping.
  size_t Clear() {
    size_t dropped = 0;
    T discard;
    while (TryPop(&discard)) ++dropped;
    WakeParkedProducers();
    return dropped;
  }

  /// Wakes the consumer even when nothing is queued: the next (or a
  /// currently blocked) PopBatch returns true with an empty batch instead
  /// of waiting for elements. One kick wakes one PopBatch; used to hand the
  /// consumer out-of-band control work without enqueuing sentinel elements.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      kicked_.store(true, std::memory_order_release);
    }
    not_empty_.notify_all();
  }

  /// Closes the queue: subsequent pushes fail, blocked pushes give up, the
  /// consumer drains what remains. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Elements currently queued (racy snapshot, exact when quiescent). Also
  /// the queue depth the writer records at each wakeup.
  size_t size() const {
    uint64_t tail = dequeue_pos_.load(std::memory_order_acquire);
    uint64_t head = enqueue_pos_.load(std::memory_order_acquire);
    return head > tail ? static_cast<size_t>(head - tail) : 0;
  }

  /// Elements ever accepted (monotone). Incremented between claiming a cell
  /// and publishing it, so for any observer that saw an element consumed,
  /// total_pushed() >= the count of consumed elements — the serving layer
  /// leans on this to make backlog arithmetic underflow-free.
  uint64_t total_pushed() const {
    return total_pushed_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  enum class PushOutcome { kOk, kFull, kClosed };

  struct Cell {
    std::atomic<uint64_t> seq;
    /// True when the slot was claimed but the close won the race: no
    /// element was constructed, consumers skip it. Written before the seq
    /// publish store and read after the seq acquire load, so a plain bool
    /// is properly synchronized.
    bool dead = false;
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
  };

  static int SpinIters() {
    static const int iters =
        std::thread::hardware_concurrency() > 1 ? 32 : 0;
    return iters;
  }

  PushOutcome TryPushOnce(T* value) {
    if (closed_.load(std::memory_order_acquire)) return PushOutcome::kClosed;
    uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      // Logical-capacity gate through the cached consumer index. The cache
      // only ever lags the true dequeue position, so the check is
      // conservative: it can spuriously refresh, never over-admit.
      if (pos - dequeue_cache_.load(std::memory_order_relaxed) >= capacity_) {
        dequeue_cache_.store(dequeue_pos_.load(std::memory_order_acquire),
                             std::memory_order_relaxed);
        if (pos - dequeue_cache_.load(std::memory_order_relaxed) >=
            capacity_) {
          return PushOutcome::kFull;
        }
      }
      Cell& cell = cells_[pos & mask_];
      uint64_t seq = cell.seq.load(std::memory_order_acquire);
      int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_seq_cst)) {
          // Close/claim race check, after the claim. The consumer ends the
          // stream only when it reads closed_ *then* sees the positions
          // equal; both its loads, this claim's CAS, this re-check, and
          // Close()'s store are seq_cst, so exactly one of two outcomes is
          // possible: (a) this load reads closed — the claim may have
          // landed after the consumer's final look, so the element is NOT
          // accepted and the slot is published as a dead cell consumers
          // skip; (b) this load reads open — then the claim precedes the
          // consumer's position check in the seq_cst order, the consumer
          // sees the in-flight slot and waits for it. Either way no
          // accepted element is ever lost to a racing close.
          if (closed_.load(std::memory_order_seq_cst)) {
            cell.dead = true;
            cell.seq.store(pos + 1, std::memory_order_release);
            WakeParkedConsumer();
            return PushOutcome::kClosed;
          }
          // Count before publishing (see total_pushed() contract).
          total_pushed_.fetch_add(1, std::memory_order_relaxed);
          cell.dead = false;
          new (cell.storage) T(std::move(*value));
          cell.seq.store(pos + 1, std::memory_order_release);
          // The consumer only parks when it observed the queue empty, and
          // the producer filling the slot the consumer is waiting at is
          // the one responsible for waking it — every later producer sees
          // an older element still queued and skips the (fenced) wake
          // protocol entirely.
          if (pos == dequeue_pos_.load(std::memory_order_acquire)) {
            WakeParkedConsumer();
          }
          return PushOutcome::kOk;
        }
        // CAS failure reloaded `pos`; retry with the new value.
      } else if (dif < 0) {
        return PushOutcome::kFull;  // physically wrapped (gate was raced)
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryPop(T* out) {
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      uint64_t seq = cell.seq.load(std::memory_order_acquire);
      int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          const bool dead = cell.dead;
          if (!dead) {
            T* stored = std::launder(reinterpret_cast<T*>(cell.storage));
            *out = std::move(*stored);
            stored->~T();
          }
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          if (dead) {
            pos = dequeue_pos_.load(std::memory_order_relaxed);
            continue;  // tombstone from a close-raced claim: skip it
          }
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty, or the next element is not yet published
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Claims a run of up to `max` already-published cells with a single CAS
  /// and appends their elements to `out` — the consumer's batch drain pays
  /// one contended RMW per chunk instead of one per element. Returns the
  /// number of elements taken (0 when nothing is published at the head).
  size_t TryPopMany(size_t max, std::vector<T>* out) {
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      size_t run = 0;
      while (run < max &&
             cells_[(pos + run) & mask_].seq.load(std::memory_order_acquire) ==
                 pos + run + 1) {
        ++run;
      }
      if (run == 0) return 0;
      if (!dequeue_pos_.compare_exchange_weak(pos, pos + run,
                                              std::memory_order_relaxed)) {
        continue;  // Clear() raced us; pos was reloaded
      }
      for (size_t i = 0; i < run; ++i) {
        Cell& cell = cells_[(pos + i) & mask_];
        if (!cell.dead) {
          T* stored = std::launder(reinterpret_cast<T*>(cell.storage));
          out->push_back(std::move(*stored));
          stored->~T();
        }
        cell.seq.store(pos + i + mask_ + 1, std::memory_order_release);
      }
      return run;
    }
  }

  void WakeParkedConsumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (consumer_parked_.load(std::memory_order_relaxed)) {
      { std::lock_guard<std::mutex> lock(park_mutex_); }
      not_empty_.notify_all();
    }
  }

  void WakeParkedProducers() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producers_parked_.load(std::memory_order_relaxed) > 0) {
      { std::lock_guard<std::mutex> lock(park_mutex_); }
      not_full_.notify_all();
    }
  }

  const size_t capacity_;  ///< logical bound (what backpressure enforces)
  size_t mask_ = 0;        ///< physical cell count - 1 (power of two)
  std::unique_ptr<Cell[]> cells_;

  // Hot indices on their own cache lines: producers share the first, the
  // consumer owns the second, and the third keeps producer-side capacity
  // checks off the consumer's line in the common case.
  alignas(64) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_cache_{0};

  alignas(64) std::atomic<uint64_t> total_pushed_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> kicked_{false};

  // Parking slow path only; never taken on the data fast path.
  std::mutex park_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::atomic<bool> consumer_parked_{false};
  std::atomic<int> producers_parked_{0};
};

}  // namespace fdrms

#endif  // FDRMS_SERVE_MPSC_RING_QUEUE_H_
