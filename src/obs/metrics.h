#ifndef FDRMS_OBS_METRICS_H_
#define FDRMS_OBS_METRICS_H_

/// \file metrics.h
/// Metric primitives behind the registry: counters, gauges, and two
/// histogram flavors (power-of-two and explicit-boundary latency buckets).
///
/// Write-path contract: one relaxed fetch_add on a per-thread stripe, no
/// locks, no allocation. Each metric owns kMetricStripes cache-line-padded
/// rows of relaxed atomics; threads pick a stripe once (round-robin at
/// first touch) and stay on it, so concurrent writers almost never share a
/// line. Reads aggregate across stripes — each stripe is monotone for
/// counters/histograms, so aggregated values never decrease across scrapes
/// even while writers race the reader.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/pow2_hist.h"

namespace fdrms {
namespace obs {

/// Label set stamped on a metric series (e.g. {{"shard", "3"}}). Order is
/// preserved and significant for series identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Stripe fan-out per metric. 16 padded slots comfortably cover the thread
/// counts this system runs (1 writer per shard + a handful of readers and
/// submitters); collisions just mean two threads share a cache line, never
/// a correctness problem.
inline constexpr size_t kMetricStripes = 16;

/// Stable per-thread stripe index, assigned round-robin at first use.
inline size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return stripe;
}

enum class MetricType { kCounter, kGauge, kPow2Histogram, kLatencyHistogram };

inline const char* MetricTypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kPow2Histogram: return "pow2_histogram";
    case MetricType::kLatencyHistogram: return "latency_histogram";
  }
  return "unknown";
}

/// Monotone counter. Increment is one relaxed fetch_add on the calling
/// thread's stripe; Value() sums the stripes (each monotone, so the sum
/// never goes backwards even under concurrent increments).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    stripes_[ThreadStripe()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell stripes_[kMetricStripes];
};

/// Last-writer-wins gauge. Single atomic double — gauges are set from one
/// owner thread (writer loop, migration admin) and only read elsewhere, so
/// striping would buy nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two histogram over integer values (queue depths, batch sizes):
/// kPow2HistBuckets buckets, bucket 0 = value 0, bucket i = [2^(i-1), 2^i),
/// last bucket open-ended. Record = bit_width + one relaxed fetch_add.
class Pow2Histogram {
 public:
  Pow2Histogram() = default;
  Pow2Histogram(const Pow2Histogram&) = delete;
  Pow2Histogram& operator=(const Pow2Histogram&) = delete;

  void Record(uint64_t v) {
    stripes_[ThreadStripe()].buckets[Pow2HistBucket(v)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Per-bucket counts summed across stripes (bucket b as in
  /// Pow2HistBucket) — the layout a registry scrape carries.
  std::vector<uint64_t> BucketSums() const {
    std::vector<uint64_t> out(kPow2HistBuckets, 0);
    for (const auto& s : stripes_) {
      for (size_t b = 0; b < kPow2HistBuckets; ++b) {
        out[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) {
      for (size_t b = 0; b < kPow2HistBuckets; ++b) {
        total += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

  double Quantile(double q) const { return Pow2HistQuantile(BucketSums(), q); }

 private:
  struct alignas(64) Row {
    std::atomic<uint64_t> buckets[kPow2HistBuckets] = {};
  };
  Row stripes_[kMetricStripes];
};

/// Default geometric boundary ladder for latency histograms, in
/// microseconds: 1µs · 1.5^i up to 10s, 41 finite buckets plus overflow.
/// Ratio 1.5 bounds quantile quantization error to ~±25% — far inside the
/// 2x p99 inflation the perf-smoke gate tolerates.
std::vector<double> DefaultLatencyBoundsUs();

/// Explicit-boundary histogram for durations, recorded in microseconds.
/// Bucket i counts values v <= bounds[i] (first such i); the trailing
/// overflow bucket catches everything past the last boundary. Quantiles
/// interpolate linearly inside the crossing bucket, giving real
/// p50/p90/p99/p999 instead of the pow2 bucket floors.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> bounds_us)
      : bounds_(std::move(bounds_us)),
        stripes_(new Row[kMetricStripes]) {
    for (size_t s = 0; s < kMetricStripes; ++s) {
      stripes_[s].buckets.reset(new std::atomic<uint64_t>[bounds_.size() + 1]);
      for (size_t b = 0; b <= bounds_.size(); ++b) {
        stripes_[s].buckets[b].store(0, std::memory_order_relaxed);
      }
    }
  }
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(double us) {
    if (us < 0) us = 0;
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), us) -
        bounds_.begin());
    Row& row = stripes_[ThreadStripe()];
    row.buckets[b].fetch_add(1, std::memory_order_relaxed);
    row.sum_ns.fetch_add(static_cast<uint64_t>(us * 1e3),
                         std::memory_order_relaxed);
  }

  const std::vector<double>& bounds_us() const { return bounds_; }

  /// Per-bucket counts summed across stripes; size() == bounds size + 1
  /// (last entry is the overflow bucket).
  std::vector<uint64_t> BucketSums() const {
    std::vector<uint64_t> out(bounds_.size() + 1, 0);
    for (size_t s = 0; s < kMetricStripes; ++s) {
      for (size_t b = 0; b <= bounds_.size(); ++b) {
        out[b] += stripes_[s].buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (uint64_t c : BucketSums()) total += c;
    return total;
  }

  /// Total of recorded values in microseconds.
  double SumUs() const {
    uint64_t ns = 0;
    for (size_t s = 0; s < kMetricStripes; ++s) {
      ns += stripes_[s].sum_ns.load(std::memory_order_relaxed);
    }
    return static_cast<double>(ns) / 1e3;
  }

  double Quantile(double q) const {
    return QuantileFromBuckets(bounds_, BucketSums(), q);
  }

  /// Quantile over a frozen bucket snapshot: walk the cumulative counts to
  /// the crossing bucket and interpolate between its boundaries. Empty
  /// histograms report 0; overflow-bucket hits report the last boundary
  /// (a conservative floor, mirroring the pow2 convention).
  static double QuantileFromBuckets(const std::vector<double>& bounds,
                                    const std::vector<uint64_t>& buckets,
                                    double q) {
    uint64_t total = 0;
    for (uint64_t c : buckets) total += c;
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(total);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      const uint64_t before = seen;
      seen += buckets[b];
      if (static_cast<double>(seen) < target) continue;
      if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const double frac =
          (target - static_cast<double>(before)) /
          static_cast<double>(buckets[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }

 private:
  struct alignas(64) Row {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<uint64_t> sum_ns{0};
  };
  std::vector<double> bounds_;
  std::unique_ptr<Row[]> stripes_;
};

}  // namespace obs
}  // namespace fdrms

#endif  // FDRMS_OBS_METRICS_H_
