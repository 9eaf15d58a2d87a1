#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

/// \file verify.h
/// The references the benchmark checks a service against: serial FdRms
/// replays of one shard's op stream, the paper's regret oracle, and the
/// held-out maximum regret ratio of a published result.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/fdrms.h"
#include "drive.h"

namespace perfbench {

/// Applies ops[begin, end) to `algo` in order, appending each op's time to
/// `op_ns` (when not null). Any rejected op is an error.
fdrms::Status ApplyTimed(fdrms::FdRms* algo, const Ops& ops, size_t begin,
                         size_t end, std::vector<double>* op_ns);

/// A serial FdRms through one shard's stream: Initialize(initial), then
/// every op in order.
fdrms::Status ReplayFromInitialize(int dim, const fdrms::FdRmsOptions& options,
                                   const Tuples& initial, const Ops& ops,
                                   std::unique_ptr<fdrms::FdRms>* out);

/// As above, starting from LoadSnapshot(file).
fdrms::Status ReplayFromSnapshot(const std::string& file, const Ops& ops,
                                 std::unique_ptr<fdrms::FdRms>* out);

/// The live tuple set after `ops` run on `initial`, ascending by id.
Tuples LiveAfter(const Tuples& initial, const Ops& ops);

/// Regret oracle (as bench_sharded checks it): for every utility u_i with
/// i < m of `algo`, the best tuple of `result` scores at least
/// (1 - eps) * omega_k(u_i, live), with omega_k taken exactly from a fresh
/// kd-tree over `live`. Reports the worst regret 1 - best / omega_k seen.
fdrms::Status CheckRegretOracle(const fdrms::FdRms& algo, int m,
                                const std::vector<fdrms::Point>& result,
                                const Tuples& live, double* worst_ratio);

/// Maximum k-regret ratio of `result` over `directions`, against `live`.
double MaxRegretRatio(const std::vector<fdrms::Point>& result,
                      const Tuples& live, int k,
                      const std::vector<fdrms::Point>& directions);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
