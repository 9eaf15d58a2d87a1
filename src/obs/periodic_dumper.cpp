#include "obs/periodic_dumper.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/exporters.h"

namespace fdrms {
namespace obs {

PeriodicDumper::PeriodicDumper(std::shared_ptr<MetricRegistry> registry,
                               PeriodicDumperOptions options)
    : registry_(std::move(registry)), options_(std::move(options)) {
  FDRMS_CHECK(registry_ != nullptr) << "PeriodicDumper needs a registry";
  if (options_.interval_ms < 1) options_.interval_ms = 1;
}

PeriodicDumper::~PeriodicDumper() { Stop(); }

void PeriodicDumper::Start() {
  task_.Start(std::chrono::milliseconds(options_.interval_ms),
              [this] { DumpOnce(); });
}

void PeriodicDumper::Stop() {
  if (task_.Stop()) DumpOnce();  // end-of-run totals always land on disk
}

void PeriodicDumper::DumpOnce() {
  const RegistrySnapshot snap = registry_->Snapshot();
  bool ok = true;
  if (!options_.prometheus_path.empty()) {
    ok &= WriteFileAtomic(options_.prometheus_path, PrometheusText(snap));
  }
  if (!options_.json_path.empty()) {
    ok &= WriteFileAtomic(options_.json_path, JsonText(snap));
  }
  if (ok) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace fdrms
