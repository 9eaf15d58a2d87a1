#ifndef FDRMS_OBS_POW2_HIST_H_
#define FDRMS_OBS_POW2_HIST_H_

/// \file pow2_hist.h
/// Power-of-two bucketing vocabulary of the metric registry's integer
/// histograms (queue depths, batch sizes) and of their scrapes: bucket 0
/// counts the value 0, bucket i >= 1 counts values in [2^(i-1), 2^i), and
/// the last bucket is open-ended (everything >= 2^(kPow2HistBuckets-2)
/// saturates into it).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fdrms {
namespace obs {

/// Bucket count of every power-of-two histogram in the system.
inline constexpr size_t kPow2HistBuckets = 17;

/// Bucket index of `v` in a kPow2HistBuckets-wide power-of-two histogram.
inline size_t Pow2HistBucket(uint64_t v) {
  const size_t width = static_cast<size_t>(std::bit_width(v));
  return width < kPow2HistBuckets ? width : kPow2HistBuckets - 1;
}

/// Lower bound of bucket `b` (the value the quantile helper reports).
inline uint64_t Pow2HistBucketFloor(size_t b) {
  return b == 0 ? 0 : (uint64_t{1} << (b - 1));
}

/// Inclusive upper bound of bucket `b` — the `le` boundary the Prometheus
/// exporter emits. The last bucket is open-ended (+Inf in exposition); this
/// reports its floor, which only the status page prints.
inline uint64_t Pow2HistBucketCeil(size_t b) {
  if (b + 1 >= kPow2HistBuckets) return uint64_t{1} << (kPow2HistBuckets - 2);
  return b == 0 ? 0 : (uint64_t{1} << b) - 1;
}

/// Quantile over a power-of-two histogram, reported as the lower bound of
/// the bucket where the cumulative count crosses q * total. Coarse by
/// construction — good enough to size a queue and spot regressions.
///
/// Edge cases are pinned by tests/obs_test.cpp: an empty or all-zero
/// histogram reports 0 (never a bucket floor), q is clamped into [0, 1],
/// and counts saturated into the open-ended last bucket report that
/// bucket's floor.
inline double Pow2HistQuantile(const std::vector<uint64_t>& hist, double q) {
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  if (total == 0) return 0.0;  // empty or all-zero: no observations, no floor
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(Pow2HistBucketFloor(b));
    }
  }
  // Unreachable with q clamped (seen reaches total >= target), but keep the
  // last populated bucket's floor as a defensive answer.
  return static_cast<double>(Pow2HistBucketFloor(hist.size() - 1));
}

}  // namespace obs
}  // namespace fdrms

#endif  // FDRMS_OBS_POW2_HIST_H_
