#ifndef FDRMS_BENCH_BENCH_COMMON_H_
#define FDRMS_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// Shared plumbing for the per-figure bench binaries, so every figure
/// scales, budgets and reports its runs the same way.
///
/// Scaling: the paper's experiments ran hours on a 256 GB server; every
/// bench here defaults to a laptop-scale fraction of the paper's dataset
/// sizes and can be scaled back up via environment variables:
///   FDRMS_BENCH_SCALE        fraction of each dataset's paper size
///                            (default 0.02)
///   FDRMS_EVAL_VECTORS       utility test-set size for mrr estimation
///                            (paper: 500000; default here: 10000)
///   FDRMS_STATIC_RUN_BUDGET_MS  per-run budget for a static baseline; a
///                            config whose single run exceeds it is
///                            reported as "timeout", mirroring the paper's
///                            "cannot provide results within one day"
///                            (default 20000)
///   FDRMS_TIME_ALL_RUNS      time every skyline-trigger recomputation
///                            instead of a sample (slow; default off)

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dmm.h"
#include "baselines/greedy.h"
#include "baselines/kernel_hs.h"
#include "baselines/rms_algorithm.h"
#include "baselines/sphere.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/fdrms.h"
#include "data/generators.h"
#include "eval/runner.h"
#include "eval/tuning.h"
#include "eval/workload.h"

namespace fdrms {
namespace bench {

inline double BenchScale() { return GetEnvDouble("FDRMS_BENCH_SCALE", 0.02); }

inline int EvalVectors(int fallback = 10000) {
  return static_cast<int>(GetEnvLong("FDRMS_EVAL_VECTORS", fallback));
}

inline double StaticRunBudgetMs() {
  return GetEnvDouble("FDRMS_STATIC_RUN_BUDGET_MS", 8000.0);
}

/// Paper size scaled to bench scale, floored to something meaningful.
inline int ScaledN(int paper_n) {
  int n = static_cast<int>(paper_n * BenchScale());
  return std::max(n, 500);
}

/// The ε/M choice of Section III-C, condensed: larger budgets want smaller
/// ε (more utility vectors, tighter top-k sets).
inline FdRmsOptions TunedFdRms(int k, int r, uint64_t seed = 97) {
  FdRmsOptions opt;
  opt.k = k;
  opt.r = r;
  opt.eps = std::min(0.08, std::max(0.005, 0.5 / r));
  opt.max_utilities =
      static_cast<int>(GetEnvLong("FDRMS_MAX_UTILITIES", 2048));
  opt.seed = seed;
  return opt;
}

/// The paper's full tuning procedure: trial-and-error ε selection on the
/// workload's initial snapshot (Section III-C), run once per configuration
/// before the timed replay.
inline FdRmsOptions AutoTunedFdRms(const Workload& wl, int k, int r,
                                   uint64_t seed = 97) {
  // Tune on a bounded subsample of the initial snapshot: the procedure is
  // offline in the paper, and ε's sweet spot is a property of the data
  // distribution, not of n.
  const size_t kTuneSample = 2000;
  std::vector<std::pair<int, Point>> tuples;
  const auto& ids = wl.initial_ids();
  size_t stride = std::max<size_t>(1, ids.size() / kTuneSample);
  for (size_t i = 0; i < ids.size(); i += stride) {
    tuples.emplace_back(ids[i], wl.data().Get(ids[i]));
  }
  FdRmsOptions base = TunedFdRms(k, r, seed);
  return AutoTuneEpsilon(tuples, wl.data().dim(), base, /*eval_directions=*/1500)
      .options;
}

/// The 1-RMS algorithm suite of Fig. 6 (everything except FD-RMS).
inline std::vector<std::unique_ptr<RmsAlgorithm>> Fig6Algorithms() {
  std::vector<std::unique_ptr<RmsAlgorithm>> algos;
  algos.push_back(std::make_unique<DmmGreedy>());
  algos.push_back(std::make_unique<DmmRrms>());
  algos.push_back(std::make_unique<EpsKernelRms>());
  algos.push_back(std::make_unique<GeoGreedyRms>());
  algos.push_back(std::make_unique<GreedyRms>());
  algos.push_back(std::make_unique<HittingSetRms>());
  algos.push_back(std::make_unique<SphereRms>());
  return algos;
}

/// The k > 1 suite of Fig. 7 (everything except FD-RMS).
inline std::vector<std::unique_ptr<RmsAlgorithm>> Fig7Algorithms() {
  std::vector<std::unique_ptr<RmsAlgorithm>> algos;
  algos.push_back(std::make_unique<GreedyStarRms>());
  algos.push_back(std::make_unique<EpsKernelRms>());
  algos.push_back(std::make_unique<HittingSetRms>());
  return algos;
}

/// Times one from-scratch run of `algo` on the workload's initial snapshot;
/// used to honor FDRMS_STATIC_RUN_BUDGET_MS before paying for a full
/// replay. Returns milliseconds.
inline double ProbeStaticMs(const RmsAlgorithm& algo, const Workload& wl,
                            int k, int r) {
  Database db;
  db.dim = wl.data().dim();
  for (int id : wl.initial_ids()) {
    db.ids.push_back(id);
    db.points.push_back(wl.data().Get(id));
  }
  Rng rng(555);
  Stopwatch watch;
  (void)algo.Compute(db, k, r, &rng);
  return watch.ElapsedMillis();
}

/// Budget gate for a static algorithm across a parameter sweep: before
/// probing at a new sweep value, extrapolates the last measured probe cost
/// (at least linearly in the value) so a config headed far past the budget
/// is skipped without paying for the run that would discover it.
class ProbeGate {
 public:
  /// True if the config is predicted or known to blow the budget.
  bool PredictSkip(int x) const {
    if (tripped_) return true;
    if (last_ms_ < 0.0) return false;  // never measured: must probe
    double predicted = last_ms_ * static_cast<double>(x) /
                       static_cast<double>(std::max(1, last_x_));
    return predicted > StaticRunBudgetMs();
  }
  /// Records a measured probe; trips the gate when over budget.
  void Record(int x, double ms) {
    last_x_ = x;
    last_ms_ = ms;
    if (ms > StaticRunBudgetMs()) tripped_ = true;
  }
  bool tripped() const { return tripped_; }

 private:
  double last_ms_ = -1.0;
  int last_x_ = 0;
  bool tripped_ = false;
};

/// Prints the standard shape-check footer line.
inline void ShapeCheck(bool ok, const std::string& claim) {
  std::cout << "# shape-check: " << (ok ? "PASS" : "FAIL") << " — " << claim
            << "\n";
}

/// Machine-readable bench output: pass `--json` to a wired bench binary and
/// it writes BENCH_<name>.json next to the working directory, one record
/// per measured case with the per-case mean/throughput numbers. Tables on
/// stdout are unchanged — the JSON is a sidecar for dashboards and
/// regression tooling.
class JsonReporter {
 public:
  /// `name` is the bench binary's short name (e.g. "bench_concurrent");
  /// argv is scanned for `--json`.
  JsonReporter(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) enabled_ = true;
    }
  }

  bool enabled() const { return enabled_; }

  /// Records one case (no-op unless --json was given). Metrics are flat
  /// name/value pairs; non-finite values serialize as null.
  void AddCase(std::string case_name,
               std::vector<std::pair<std::string, double>> metrics) {
    if (!enabled_) return;
    cases_.push_back({std::move(case_name), std::move(metrics)});
  }

  /// Writes BENCH_<name>.json; call once at the end of main. Returns true
  /// on success (and always when --json was not given).
  bool Write() const {
    if (!enabled_) return true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "# json: cannot open " << path << "\n";
      return false;
    }
    out.precision(12);
    out << "{\n  \"bench\": \"" << Escape(name_) << "\",\n  \"cases\": [";
    for (size_t c = 0; c < cases_.size(); ++c) {
      out << (c == 0 ? "" : ",") << "\n    {\"name\": \""
          << Escape(cases_[c].name) << "\", \"metrics\": {";
      for (size_t m = 0; m < cases_[c].metrics.size(); ++m) {
        const auto& [key, value] = cases_[c].metrics[m];
        out << (m == 0 ? "" : ", ") << "\"" << Escape(key) << "\": ";
        if (std::isfinite(value)) {
          out << value;
        } else {
          out << "null";
        }
      }
      out << "}}";
    }
    out << "\n  ]\n}\n";
    out.close();
    if (!out) {
      std::cerr << "# json: write to " << path << " failed\n";
      return false;
    }
    std::cout << "# json: wrote " << path << " (" << cases_.size()
              << " cases)\n";
    return true;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(ch) < 0x20) continue;  // drop control chars
      out.push_back(ch);
    }
    return out;
  }

  struct Case {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string name_;
  bool enabled_ = false;
  std::vector<Case> cases_;
};

}  // namespace bench
}  // namespace fdrms

#endif  // FDRMS_BENCH_BENCH_COMMON_H_
