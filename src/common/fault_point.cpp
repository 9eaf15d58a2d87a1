#include "common/fault_point.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fdrms {

std::atomic<FaultPoints::State> FaultPoints::state_{
    FaultPoints::State::kUninit};
std::atomic<bool> FaultPoints::crashed_{false};

namespace {

std::mutex& Mu() {
  static std::mutex mu;
  return mu;
}

// Guarded by Mu().
struct ArmedSite {
  FaultSpec spec;
  bool consumed = false;  // one-shot kinds (kError, kDie, kCrash) fire once
  bool from_env = false;  // an env-armed kCrash exits the process
};

std::unordered_map<std::string, ArmedSite>& Sites() {
  static std::unordered_map<std::string, ArmedSite> m;
  return m;
}

std::atomic<uint64_t>& InjectedCount() {
  static std::atomic<uint64_t> n{0};
  return n;
}

// Parses one "<site>=<action>[:<arg>][@<skip>]" directive into Sites().
// Malformed directives are ignored (an env typo must not take down
// production; the smoke gates assert injected() > 0 instead).
void ParseDirective(const std::string& directive) {
  const size_t eq = directive.find('=');
  if (eq == std::string::npos || eq == 0) return;
  std::string site = directive.substr(0, eq);
  std::string action = directive.substr(eq + 1);
  FaultSpec spec;
  const size_t at = action.find('@');
  if (at != std::string::npos) {
    spec.skip_hits = std::atoi(action.c_str() + at + 1);
    action.resize(at);
  }
  const size_t colon = action.find(':');
  std::string arg;
  if (colon != std::string::npos) {
    arg = action.substr(colon + 1);
    action.resize(colon);
  }
  if (action == "delay") {
    spec.kind = FaultKind::kDelay;
    spec.delay_us = arg.empty() ? 1000 : std::strtoull(arg.c_str(), nullptr, 10);
  } else if (action == "error") {
    spec.kind = FaultKind::kError;
  } else if (action == "sticky_error") {
    spec.kind = FaultKind::kStickyError;
  } else if (action == "die") {
    spec.kind = FaultKind::kDie;
  } else if (action == "crash") {
    spec.kind = FaultKind::kCrash;
  } else {
    return;
  }
  Sites()[site] = ArmedSite{spec, false, /*from_env=*/true};
}

// Guarded by Mu(). Probes FDRMS_FAULT (comma-separated directives).
void ProbeEnv() {
  const char* env = std::getenv("FDRMS_FAULT");
  if (env == nullptr || env[0] == '\0') return;
  std::string all = env;
  size_t pos = 0;
  while (pos <= all.size()) {
    size_t comma = all.find(',', pos);
    if (comma == std::string::npos) comma = all.size();
    if (comma > pos) ParseDirective(all.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

}  // namespace

void FaultPoints::Arm(const std::string& name, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(Mu());
  // Make sure a later env probe cannot wipe an API arming: force the probe
  // now so kUninit never follows an Arm.
  if (state_.load(std::memory_order_relaxed) == State::kUninit) ProbeEnv();
  Sites()[name] = ArmedSite{spec, false};
  state_.store(State::kArmed, std::memory_order_release);
}

void FaultPoints::Reset() {
  std::lock_guard<std::mutex> lock(Mu());
  Sites().clear();
  InjectedCount().store(0, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_release);
  // Back to kUninit, not kIdle: the env var is re-probed on the next Hit so
  // a Reset inside a test cannot mask an env arming for the process.
  state_.store(State::kUninit, std::memory_order_release);
}

uint64_t FaultPoints::injected() {
  return InjectedCount().load(std::memory_order_relaxed);
}

FaultAction FaultPoints::HitSlow(const char* prefix, const char* step) {
  FaultAction act;
  uint64_t delay_us = 0;
  {
    std::lock_guard<std::mutex> lock(Mu());
    if (state_.load(std::memory_order_relaxed) == State::kUninit) {
      ProbeEnv();
      state_.store(Sites().empty() ? State::kIdle : State::kArmed,
                   std::memory_order_release);
      if (Sites().empty()) return act;
    }
    std::string name = prefix;
    name += '.';
    name += step;
    auto it = Sites().find(name);
    if (it == Sites().end()) return act;
    ArmedSite& armed = it->second;
    if (armed.consumed) return act;
    if (armed.spec.skip_hits > 0) {
      --armed.spec.skip_hits;
      return act;
    }
    act.kind = armed.spec.kind;
    act.site = std::move(name);
    delay_us = armed.spec.delay_us;
    if (act.kind == FaultKind::kError || act.kind == FaultKind::kDie ||
        act.kind == FaultKind::kCrash) {
      armed.consumed = true;
    }
    InjectedCount().fetch_add(1, std::memory_order_relaxed);
    if (act.crash()) {
      // SIGKILL semantics: no atexit handlers, no stream flushes, no stack
      // unwinding — the file system sees exactly what was durable.
      if (armed.from_env) std::_Exit(137);
      crashed_.store(true, std::memory_order_release);
    }
  }
  // Sleep outside the registry lock so a delayed site cannot stall every
  // other thread's fast path.
  if (act.kind == FaultKind::kDelay && delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  return act;
}

}  // namespace fdrms
