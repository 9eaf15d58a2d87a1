#ifndef FDRMS_COMMON_FAULT_POINT_H_
#define FDRMS_COMMON_FAULT_POINT_H_

/// \file fault_point.h
/// Named fault-injection sites compiled into the hot paths and the
/// persistence paths: the one framework for "misbehave here" and "die here".
///
/// Every fault-prone step names itself before proceeding:
///
///   FaultAction act = FaultPoints::Hit("writer.apply", "pre");
///   if (act.kind == FaultKind::kError) return act.ToStatus();
///
/// In production the call is a single relaxed atomic load (nothing armed,
/// env empty) and returns `kNone`. Sites can be armed two ways:
///
///  * **Env mode** (process granularity, used by the CI fault-smoke job):
///    `FDRMS_FAULT=<prefix>.<step>=<action>[:<arg>][@<skip>]`, e.g.
///      FDRMS_FAULT=writer.apply.pre=die            # kill the writer thread
///      FDRMS_FAULT=writer.drain.post=delay:5000    # 5ms stall, every hit
///      FDRMS_FAULT=serve.persist.pre=error         # one-shot kInternal
///      FDRMS_FAULT=shard.replay.pre=sticky_error@2 # skip 2 hits, then fail
///                                                  # that hit and all later
///      FDRMS_FAULT=shard.cutover.committed=crash   # _Exit(137) right there
///    Multiple directives are comma-separated. Probed once, on first Hit.
///  * **API mode** (in-process fault matrix, used by tests/fault_test):
///    `FaultPoints::Arm("writer.apply.pre", {FaultKind::kError})`. Replaces
///    any previous arming of that site; `Reset()` disarms everything and
///    re-probes the env on the next Hit.
///
/// Actions:
///  * `kDelay`  — the site sleeps `delay_us` and proceeds (every hit).
///  * `kError`  — the site fails once with `Status::Internal` (the arming
///                is consumed); later hits proceed normally.
///  * `kStickyError` — the site fails this hit and every later one.
///  * `kDie`    — the *thread* reaching the site must terminate as if the
///                writer had crashed: the service's writer loop exits
///                through its death epilogue (queue closed, rendezvous
///                failed, health = kDead). One-shot, like kError.
///  * `kCrash`  — the whole *process* dies at the site, for the durability
///                story. Env-armed, Hit() calls `_Exit(137)`: no
///                destructors, no flushes, exactly like a SIGKILL at that
///                instant (the CI kill-and-resume smoke). API-armed (the
///                in-process crash matrix, tests/manifest_test), Hit()
///                latches the sticky `crashed()` flag and returns kCrash;
///                the durable-write helpers and the manifest commit consult
///                `crashed()` and refuse to touch disk once it is set, so
///                nothing after the "crash" lands and a second instance can
///                resume against what made it to disk. One-shot; Reset()
///                clears the flag.
///
/// `skip` hits are skipped before the action applies, so a site that fires
/// once per batch (or once per shard) can be faulted on hit k specifically.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace fdrms {

enum class FaultKind : int {
  kNone = 0,         ///< proceed normally
  kDelay = 1,        ///< sleep delay_us, then proceed
  kError = 2,        ///< fail once with kInternal
  kStickyError = 3,  ///< fail this hit and every later hit
  kDie = 4,          ///< the hitting thread must die (writer-death epilogue)
  kCrash = 5,        ///< the process dies here (see crashed())
};

/// What an armed site told the caller to do. `kind == kNone` on the fast
/// path. For kDelay the sleep already happened inside Hit(); the action is
/// returned anyway so call sites can count injected stalls if they care.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  /// The full "<prefix>.<step>" site name, for error messages.
  std::string site;

  bool none() const { return kind == FaultKind::kNone; }
  bool error() const {
    return kind == FaultKind::kError || kind == FaultKind::kStickyError;
  }
  bool die() const { return kind == FaultKind::kDie; }
  bool crash() const { return kind == FaultKind::kCrash; }

  /// Canonical Status for an injected error at this site.
  Status ToStatus() const {
    return Status::Internal("fault injected at " + site);
  }
};

/// Arming descriptor for API mode.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  uint64_t delay_us = 0;  ///< kDelay only
  int skip_hits = 0;      ///< hits to let pass before the action applies
};

class FaultPoints {
 public:
  /// Names a fault site. The fast path — nothing armed, env unset — is one
  /// relaxed atomic load returning kNone. kDelay sleeps before returning.
  static FaultAction Hit(const char* prefix, const char* step) {
    if (state_.load(std::memory_order_relaxed) == State::kIdle) return {};
    return HitSlow(prefix, step);
  }

  /// Arms `name` ("<prefix>.<step>") with `spec`. Replaces any previous
  /// arming of that site; other sites stay armed.
  static void Arm(const std::string& name, const FaultSpec& spec);

  /// Disarms every site (API- and env-armed) and clears crashed(). The env
  /// var is re-probed on the next Hit.
  static void Reset();

  /// True once an API-armed kCrash site has been reached. Persistence paths
  /// treat this as "the process is dead": they stop writing.
  static bool crashed() { return crashed_.load(std::memory_order_acquire); }

  /// Total actions injected (delays, errors, deaths, crashes) since the
  /// last Reset. Smoke runs assert this is nonzero when a fault was
  /// supposed to fire.
  static uint64_t injected();

 private:
  enum class State : int {
    kUninit = 0,  ///< env var not probed yet
    kIdle = 1,    ///< nothing armed, env empty: Hit is a no-op
    kArmed = 2,
  };

  static FaultAction HitSlow(const char* prefix, const char* step);

  static std::atomic<State> state_;
  static std::atomic<bool> crashed_;
};

}  // namespace fdrms

#endif  // FDRMS_COMMON_FAULT_POINT_H_
