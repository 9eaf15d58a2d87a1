#include "common/periodic_task.h"

#include <utility>

namespace fdrms {

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start(std::chrono::milliseconds interval,
                         std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  const uint64_t run = ++run_;
  thread_ = std::thread([this, interval, run, fn = std::move(fn)] {
    std::unique_lock<std::mutex> lk(mu_);
    const auto stopped = [this, run] { return !running_ || run_ != run; };
    while (!cv_.wait_for(lk, interval, stopped)) {
      lk.unlock();
      fn();
      lk.lock();
    }
  });
}

bool PeriodicTask::Stop() {
  // Take the thread handle under the lock: exactly one caller sees
  // running_ flip, so concurrent Stop() calls can never double-join.
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return false;
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  to_join.join();
  return true;
}

bool PeriodicTask::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

}  // namespace fdrms
