#ifndef FDRMS_OBS_PHASE_SPAN_H_
#define FDRMS_OBS_PHASE_SPAN_H_

/// \file phase_span.h
/// PhaseSpan: RAII scoped timer in the PhaseRecorder tradition — construct
/// at phase entry, and on destruction the measured duration lands in a
/// latency histogram and (optionally) as a trace event in the registry's
/// ring. The phase name must be a string literal (the trace ring stores the
/// pointer). Lifecycle phases (a migration's steps) pass
/// `lifecycle = true` to land in the registry's lifecycle ring.
///
///   {
///     obs::PhaseSpan span(registry, metrics_.apply_us, "writer.apply");
///     ...work...
///     span.set_args(batch.size(), version);
///   }  // <- records here

#include <cstdint>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace fdrms {
namespace obs {

class PhaseSpan {
 public:
  /// `registry` may be null (histogram only, no trace event) and `hist`
  /// may be null (trace event only); both null makes the span inert.
  PhaseSpan(MetricRegistry* registry, LatencyHistogram* hist,
            const char* trace_name, bool lifecycle = false)
      : registry_(registry),
        hist_(hist),
        trace_name_(trace_name),
        lifecycle_(lifecycle),
        start_us_(registry ? registry->NowMicros() : 0) {}

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  ~PhaseSpan() { Finish(); }

  /// Attach event-specific payload (e.g. epoch, op count) to the trace
  /// event this span will emit.
  void set_args(uint64_t arg0, uint64_t arg1 = 0) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

  /// Record now instead of at scope exit; subsequent Finish() calls are
  /// no-ops. Returns the measured duration in microseconds.
  double Finish() {
    if (finished_) return elapsed_us_;
    finished_ = true;
    elapsed_us_ = watch_.ElapsedMicros();
    if (hist_ != nullptr) hist_->Record(elapsed_us_);
    if (registry_ != nullptr && trace_name_ != nullptr) {
      TraceRing& ring =
          lifecycle_ ? registry_->lifecycle() : registry_->trace();
      ring.Record(trace_name_, start_us_, static_cast<uint64_t>(elapsed_us_),
                  arg0_, arg1_);
    }
    return elapsed_us_;
  }

 private:
  MetricRegistry* registry_;
  LatencyHistogram* hist_;
  const char* trace_name_;
  bool lifecycle_;
  uint64_t start_us_;
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
  bool finished_ = false;
  double elapsed_us_ = 0.0;
  Stopwatch watch_;
};

}  // namespace obs
}  // namespace fdrms

#endif  // FDRMS_OBS_PHASE_SPAN_H_
