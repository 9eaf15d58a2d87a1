#ifndef FDRMS_COMMON_PERIODIC_TASK_H_
#define FDRMS_COMMON_PERIODIC_TASK_H_

/// \file periodic_task.h
/// The one background loop of the serving stack: a thread that calls a
/// function every `interval` until stopped. The manifest ticker, the shard
/// health tracker, the metrics dumper, and the SLO controller all run on
/// it, so there is exactly one place where wall-clock time drives work.
///
///   PeriodicTask task;
///   task.Start(std::chrono::milliseconds(50), [&] { Poll(); });
///   ...
///   task.Stop();  // wakes the thread at once; no further calls after this
///
/// The first call happens one interval after Start (never immediately), and
/// a Stop during the wait wakes the thread without running `fn` again.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace fdrms {

class PeriodicTask {
 public:
  PeriodicTask() = default;
  ~PeriodicTask();  // stops if still running
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Spawns the thread running `fn` every `interval`. No-op while running.
  void Start(std::chrono::milliseconds interval, std::function<void()> fn);

  /// Wakes and joins the thread. Idempotent and safe for concurrent
  /// callers: exactly one caller joins and gets true; every other caller
  /// (including one that finds the task never started) returns false at
  /// once, possibly before the join completes.
  bool Stop();

  bool running() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  /// Bumped by every Start, so a thread whose Stop is still joining exits
  /// even if a new Start has already cleared running_'s stop signal.
  uint64_t run_ = 0;
  std::thread thread_;
};

}  // namespace fdrms

#endif  // FDRMS_COMMON_PERIODIC_TASK_H_
