#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The benchmark's workloads. Each follows the paper's protocol through
/// eval/Workload (half the data is P_0, the other half is inserted, then a
/// random half of the whole set is deleted) over in-repo generated data,
/// and runs as Reset -> Build -> Run -> Verify rounds until the run's time
/// is used up. README.md says why each one exists.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drive.h"
#include "harness.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int n = 0;       ///< generated tuples (Indep)
  int dim = 0;
  int k = 1;
  int r = 0;
  double eps = 0.0;
  int max_utilities = 0;
  int shards = 1;  ///< 1 = FdRmsService, else ShardedFdRmsService
  int merged_budget_r = 0;
  /// Resume workloads: an untimed pre-phase applies this share of the
  /// insert stream and stops with versioned persistence; every timed round
  /// restores from it and replays the rest.
  double pre_insert_share = 0.0;
  LoadSpec load;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

struct Gate {
  std::string name;
  bool ok;
  std::string detail;
};

struct Report {
  MetricSink end_to_end;
  MetricSink per_layer;
  std::vector<Gate> gates;
  std::vector<std::string> notes;  ///< printed before the metrics
  PhaseRecorder phases;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool Correct() const;
};

/// Runs `spec` for about args.seconds; fills the report (end-to-end
/// metrics untraced, per-layer metrics traced). A non-OK status means the
/// run could not complete at all.
fdrms::Status RunWorkload(const WorkloadSpec& spec, const RunArgs& args,
                          Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
