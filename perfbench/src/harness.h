#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file harness.h
/// Small shared pieces of the benchmark: the clock, seed streams, sample
/// statistics, the ordered metric sink the report is printed from, and the
/// phase recorder every workload runs its Reset -> Build -> Run -> Verify
/// protocol under.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds; the single time base of every sample.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Independent stream `stream` of the workload seed (splitmix64 finalizer),
/// so data, op order and held-out directions never share a generator.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed streams of one run.
enum SeedStream : uint64_t { kDataStream = 1, kOrderStream = 2, kHeldOutStream = 3 };

/// Nearest-rank quantile of an already sorted sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(pos + 0.5)];
}

/// The highest of p99.9 / p99 / p90 that still has at least ten of `n`
/// samples beyond it (the median when none has).
inline double TailQuantileFor(size_t n) {
  for (double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

/// A sample summarized the way the report states timings: median, p99,
/// and the highest percentile with ten samples beyond it, with the count.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail = 0.0;  ///< at TailQuantileFor(count)
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  s.p50 = SortedQuantile(v, 0.5);
  s.p99 = SortedQuantile(v, 0.99);
  s.tail = SortedQuantile(v, TailQuantileFor(v.size()));
  return s;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metrics in the order they were added; the report prints them by name
/// with their unit and the final JSON line carries them all.
class MetricSink {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Accumulates wall time per named phase (Reset, Build, Run, Verify, ...).
class PhaseRecorder {
 public:
  class Scope {
   public:
    Scope(PhaseRecorder* rec, std::string name)
        : rec_(rec), name_(std::move(name)), start_(NowNs()) {}
    ~Scope() { rec_->Add(name_, static_cast<double>(NowNs() - start_) * 1e-9); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseRecorder* rec_;
    std::string name_;
    int64_t start_;
  };

  Scope Scoped(std::string name) { return Scope(this, std::move(name)); }

  void Add(const std::string& name, double seconds) {
    auto it = std::find_if(phases_.begin(), phases_.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == phases_.end()) {
      phases_.emplace_back(name, seconds);
    } else {
      it->second += seconds;
    }
  }
  const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

 private:
  std::vector<std::pair<std::string, double>> phases_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
