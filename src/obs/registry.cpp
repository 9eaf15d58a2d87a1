#include "obs/registry.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "obs/exporters.h"

namespace fdrms {
namespace obs {

std::vector<double> DefaultLatencyBoundsUs() {
  std::vector<double> bounds;
  // 1µs · 1.5^i ladder whose last finite bucket crosses 10 seconds (41
  // finite buckets). Covers the full observed range of publish/apply/
  // migration-phase durations with ~±25% worst-case quantile quantization.
  for (double b = 1.0;; b *= 1.5) {
    bounds.push_back(b);
    if (b >= 1e7) break;
  }
  return bounds;
}

double MetricSnapshot::Quantile(double q) const {
  switch (type) {
    case MetricType::kPow2Histogram:
      return Pow2HistQuantile(buckets, q);
    case MetricType::kLatencyHistogram:
      return LatencyHistogram::QuantileFromBuckets(bounds, buckets, q);
    default:
      return 0.0;
  }
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const Labels& labels) const {
  for (const auto& m : metrics) {
    if (m.name != name) continue;
    if (!labels.empty() && m.labels != labels) continue;
    return &m;
  }
  return nullptr;
}

/// One registered series: identity plus exactly one live metric object.
struct MetricRegistry::Entry {
  std::string name;
  std::string help;
  Labels labels;
  MetricType type = MetricType::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Pow2Histogram> pow2;
  std::unique_ptr<LatencyHistogram> latency;
};

namespace {

std::string SeriesKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key += k;
    key.push_back('\x1e');
    key += v;
  }
  return key;
}

}  // namespace

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry::Entry* MetricRegistry::GetOrCreate(
    const std::string& name, const std::string& help, const Labels& labels,
    MetricType type, std::vector<double> bounds_us) {
  const std::string key = SeriesKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  // Type consistency is enforced per NAME, not per series: a Prometheus
  // family carries one # TYPE line, so the same name registered with
  // different labels but a different type would render an exposition whose
  // TYPE mismatches some of its series.
  auto type_it = types_by_name_.find(name);
  if (type_it != types_by_name_.end()) {
    FDRMS_CHECK(type_it->second == type)
        << "metric '" << name << "' re-registered as "
        << MetricTypeName(type) << " but exists as "
        << MetricTypeName(type_it->second);
  } else {
    types_by_name_.emplace(name, type);
  }
  auto it = index_.find(key);
  if (it != index_.end()) return entries_[it->second].get();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kPow2Histogram:
      entry->pow2 = std::make_unique<Pow2Histogram>();
      break;
    case MetricType::kLatencyHistogram:
      entry->latency = std::make_unique<LatencyHistogram>(
          bounds_us.empty() ? DefaultLatencyBoundsUs() : std::move(bounds_us));
      break;
  }
  Entry* raw = entry.get();
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(entry));
  return raw;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const Labels& labels) {
  return GetOrCreate(name, help, labels, MetricType::kCounter, {})
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const Labels& labels) {
  return GetOrCreate(name, help, labels, MetricType::kGauge, {})->gauge.get();
}

Pow2Histogram* MetricRegistry::GetPow2Histogram(const std::string& name,
                                                const std::string& help,
                                                const Labels& labels) {
  return GetOrCreate(name, help, labels, MetricType::kPow2Histogram, {})
      ->pow2.get();
}

LatencyHistogram* MetricRegistry::GetLatencyHistogram(
    const std::string& name, const std::string& help, const Labels& labels,
    std::vector<double> bounds_us) {
  return GetOrCreate(name, help, labels, MetricType::kLatencyHistogram,
                     std::move(bounds_us))
      ->latency.get();
}

uint64_t MetricRegistry::NowMicros() const {
  return static_cast<uint64_t>(uptime_.ElapsedMicros());
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.uptime_seconds = uptime_.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.metrics.reserve(entries_.size() + 2);
    for (const auto& e : entries_) {
      MetricSnapshot m;
      m.name = e->name;
      m.help = e->help;
      m.type = e->type;
      m.labels = e->labels;
      switch (e->type) {
        case MetricType::kCounter:
          m.counter_value = e->counter->Value();
          break;
        case MetricType::kGauge:
          m.gauge_value = e->gauge->Value();
          break;
        case MetricType::kPow2Histogram:
          m.buckets = e->pow2->BucketSums();
          for (uint64_t c : m.buckets) m.count += c;
          break;
        case MetricType::kLatencyHistogram:
          m.bounds = e->latency->bounds_us();
          m.buckets = e->latency->BucketSums();
          for (uint64_t c : m.buckets) m.count += c;
          m.sum = e->latency->SumUs();
          break;
      }
      snap.metrics.push_back(std::move(m));
    }
    // Process-level series synthesized at scrape time, so every exporter
    // (and Find) sees them without any layer having to register or update
    // them: scrapes are self-describing about the process they came from.
    MetricSnapshot uptime;
    uptime.name = "process_uptime_seconds";
    uptime.help = "Seconds since this registry (and its process) started";
    uptime.type = MetricType::kGauge;
    uptime.gauge_value = snap.uptime_seconds;
    snap.metrics.push_back(std::move(uptime));
    MetricSnapshot series;
    series.name = "obs_registry_series";
    series.help = "Registered metric series in this registry";
    series.type = MetricType::kGauge;
    series.gauge_value = static_cast<double>(entries_.size());
    snap.metrics.push_back(std::move(series));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  snap.trace = lifecycle_.Collect();
  std::vector<TraceEvent> events = trace_.Collect();
  snap.trace.insert(snap.trace.end(), std::make_move_iterator(events.begin()),
                    std::make_move_iterator(events.end()));
  std::stable_sort(snap.trace.begin(), snap.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return snap;
}

std::string MetricRegistry::PrometheusText() const {
  return obs::PrometheusText(Snapshot());
}

std::string MetricRegistry::JsonText() const { return obs::JsonText(Snapshot()); }

std::string MetricRegistry::DebugString() const {
  return obs::DebugString(Snapshot());
}

}  // namespace obs
}  // namespace fdrms
