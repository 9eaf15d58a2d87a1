#ifndef FDRMS_OBS_REGISTRY_H_
#define FDRMS_OBS_REGISTRY_H_

/// \file registry.h
/// MetricRegistry: the one pipe every layer reports through. Get-or-create
/// named series (name + label set) returns a stable pointer valid for the
/// registry's lifetime; the handle's write path is lock-free (see
/// metrics.h), the registry mutex guards only series creation and
/// snapshotting. One registry is shared across all shards of a
/// ShardedFdRmsService (shards are told apart by a {"shard","i"} label);
/// standalone services own a private one.
///
/// A Snapshot() is a consistent-enough scrape: every counter value is a
/// sum of monotone stripes read at one instant, so values never decrease
/// across scrapes, and histogram count/sum pairs come from the same pass.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fdrms {
namespace obs {

/// Read-only view of one metric series at scrape time.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  uint64_t counter_value = 0;       ///< kCounter
  double gauge_value = 0.0;         ///< kGauge
  std::vector<double> bounds;       ///< kLatencyHistogram boundaries (µs)
  std::vector<uint64_t> buckets;    ///< histogram per-bucket counts
  uint64_t count = 0;               ///< histogram observation count
  double sum = 0.0;                 ///< kLatencyHistogram sum (µs)

  /// Histogram quantile (interpolated for latency, bucket floor for pow2).
  double Quantile(double q) const;
};

struct RegistrySnapshot {
  double uptime_seconds = 0.0;
  /// Sorted by (name, labels) so same-name series are contiguous — the
  /// Prometheus exporter relies on this to emit one TYPE block per family.
  std::vector<MetricSnapshot> metrics;
  /// Both trace rings (lifecycle and high-rate), ordered by start time.
  std::vector<TraceEvent> trace;

  /// First series matching name (+ labels if given); nullptr if absent.
  const MetricSnapshot* Find(const std::string& name,
                             const Labels& labels = {}) const;
};

class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create. Re-registering an existing (name, labels) series
  /// returns the original handle; `help` from the first registration wins.
  /// Registering the same metric NAME under a different type — even with
  /// different labels — is a programming error (FDRMS_CHECK): a Prometheus
  /// family has exactly one type.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Pow2Histogram* GetPow2Histogram(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels = {});
  /// Empty `bounds_us` uses DefaultLatencyBoundsUs().
  LatencyHistogram* GetLatencyHistogram(const std::string& name,
                                        const std::string& help,
                                        const Labels& labels = {},
                                        std::vector<double> bounds_us = {});

  /// High-rate events (per batch, per merge, per manifest tick); the
  /// oldest are overwritten first.
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }

  /// Lifecycle events: migration phases, scale decisions, shard deaths and
  /// revives. A ring of their own, so no amount of per-batch tracing can
  /// evict the record of a topology or health change from a scrape.
  TraceRing& lifecycle() { return lifecycle_; }

  /// Microseconds since registry construction, on the steady clock — the
  /// timestamp base for every trace event in this registry.
  uint64_t NowMicros() const;

  RegistrySnapshot Snapshot() const;

  /// Exporters over a fresh Snapshot(); see exporters.h for the formats.
  std::string PrometheusText() const;
  std::string JsonText() const;
  std::string DebugString() const;

 private:
  struct Entry;
  Entry* GetOrCreate(const std::string& name, const std::string& help,
                     const Labels& labels, MetricType type,
                     std::vector<double> bounds_us);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, size_t> index_;  // series key -> entries_
  std::unordered_map<std::string, MetricType> types_by_name_;  // family type
  TraceRing trace_;
  TraceRing lifecycle_{1024};
  Stopwatch uptime_;
};

}  // namespace obs
}  // namespace fdrms

#endif  // FDRMS_OBS_REGISTRY_H_
