/// perfbench: the repository benchmark binary. Usually started through
/// run.py, which builds it; see README.md for workloads and metrics.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--workdir <dir>] [--source-id <text>]
///
/// Prints the run's metadata, phases, gates and metrics, then, as the last
/// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// Untraced runs report the end-to-end metrics, traced runs the per-layer
/// ledger. Exits 0 only when every correctness gate passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "geometry/simd_dispatch.h"
#include "workloads.h"

namespace {

using perfbench::MetricSink;

int Usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--source-id <text>]\n"
               "workloads:";
  for (const auto& w : perfbench::Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".bench_run", source_id = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      trace = value == "1";
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0.0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "# perfbench workload=" << spec->name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << "\n";
  std::cout << "# meta simd_tier="
            << fdrms::SimdTierName(fdrms::ActiveSimdTier())
            << " nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << build_type << " compiler=\"" << Compiler()
            << "\" source=" << source_id << "\n";
#ifndef NDEBUG
  std::cout << "# WARNING: assertions are enabled; timings are not comparable\n";
#endif
  if (build_type != "Release") {
    std::cout << "# WARNING: build type '" << build_type
              << "' is not Release; timings are not comparable\n";
  }
  std::cout.flush();

  perfbench::RunArgs args;
  args.seed = static_cast<uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace == 1;
  args.workdir =
      (std::filesystem::path(workdir) / (spec->name + "-" +
                                         std::to_string(seed)))
          .string();
  perfbench::Report report;
  const fdrms::Status st = perfbench::RunWorkload(*spec, args, &report);
  std::error_code ignored;
  std::filesystem::remove_all(args.workdir, ignored);
  if (!st.ok()) {
    std::cerr << "perfbench: run failed: " << st.ToString() << "\n";
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  for (const auto& [name, s] : report.phases.phases()) {
    std::cout << "# phase " << name << " " << s << " s\n";
  }
  const MetricSink& metrics = args.trace ? report.per_layer : report.end_to_end;
  bool finite = true;
  for (const auto& m : metrics.entries()) {
    finite = finite && std::isfinite(m.value);
    std::cout << m.name << " = " << JsonNumber(m.value) << " " << m.unit
              << "\n";
  }
  if (!finite) report.gates.push_back({"metrics_finite", false, "a metric is not finite"});
  for (const perfbench::Gate& g : report.gates) {
    std::cout << "gate " << g.name << ": " << (g.ok ? "PASS" : "FAIL") << " ("
              << g.detail << ")\n";
  }
  const bool correct = report.Correct();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics.entries()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(m.name) + ": {\"value\": " +
            JsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
