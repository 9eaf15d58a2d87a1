#ifndef FDRMS_OBS_PERIODIC_DUMPER_H_
#define FDRMS_OBS_PERIODIC_DUMPER_H_

/// \file periodic_dumper.h
/// Background task (common/periodic_task.h) that scrapes a MetricRegistry
/// on a fixed cadence and writes the Prometheus exposition (and optionally
/// a JSON sidecar) to disk with atomic tmp+rename, so external scrapers /
/// the CI metrics-smoke step always read a complete document. A final dump
/// is flushed on Stop(), guaranteeing the last scrape reflects end-of-run
/// totals.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/periodic_task.h"
#include "obs/registry.h"

namespace fdrms {
namespace obs {

struct PeriodicDumperOptions {
  std::string prometheus_path;  ///< empty = no Prometheus file
  std::string json_path;        ///< empty = no JSON file
  int interval_ms = 1000;
};

class PeriodicDumper {
 public:
  PeriodicDumper(std::shared_ptr<MetricRegistry> registry,
                 PeriodicDumperOptions options);
  ~PeriodicDumper();  // stops if still running
  PeriodicDumper(const PeriodicDumper&) = delete;
  PeriodicDumper& operator=(const PeriodicDumper&) = delete;

  void Start();
  /// Idempotent and safe for concurrent callers: the one caller whose
  /// PeriodicTask::Stop joined the dump thread writes the final dump; the
  /// others return immediately (possibly before that final dump lands).
  void Stop();

  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  uint64_t dump_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  void DumpOnce();

  std::shared_ptr<MetricRegistry> registry_;
  PeriodicDumperOptions options_;
  std::atomic<uint64_t> dumps_{0};
  std::atomic<uint64_t> failures_{0};
  PeriodicTask task_;  // last: stopped before the members it reads die
};

}  // namespace obs
}  // namespace fdrms

#endif  // FDRMS_OBS_PERIODIC_DUMPER_H_
