/// Bit-identity check of FD-RMS state over fixed update streams.
///
/// Replays six paper-protocol streams (Section IV-A: a random half of the
/// tuples is P_0, the other half is inserted, then a random half of all
/// tuples is deleted) over Indep data:
///   d=6, r=20, eps=0.025, M=2048, 30000 ops, seeds 1-4;
///   d=4, r=10, eps=0.05,  M=2048, 30000 ops, seeds 1-2.
/// For each stream it prints one line with two 64-bit FNV-1a hashes: of
/// (m, Q_t) after every 500th op, and of the final Φ_{k,ε} sets (each
/// utility's members in ascending id order). The SIMD tier goes to stderr,
/// so the stdout of two runs under different FDRMS_SIMD settings, or of two
/// builds, must match byte for byte:
///
///   ./bench_state_hash > a.txt
///   FDRMS_SIMD=scalar ./bench_state_hash > b.txt
///   diff a.txt b.txt

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/fdrms.h"
#include "data/generators.h"
#include "eval/workload.h"
#include "geometry/simd_dispatch.h"

using namespace fdrms;

namespace {

struct Stream {
  int dim;
  int r;
  double eps;
  uint64_t seed;
};

constexpr int kOps = 30000;
constexpr int kCheckpointEvery = 500;

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

int Run(const Stream& s) {
  // The protocol's op count equals the tuple count.
  PointSet data = GenerateIndep(kOps, s.dim, s.seed);
  Workload workload(&data, s.seed);
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = s.r;
  opt.eps = s.eps;
  opt.max_utilities = 2048;
  opt.seed = s.seed;
  FdRms algo(s.dim, opt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : workload.initial_ids()) initial.emplace_back(id, data.Get(id));
  Status st = algo.Initialize(initial);
  if (!st.ok()) {
    std::fprintf(stderr, "Initialize: %s\n", st.ToString().c_str());
    return 1;
  }
  Fnv1a states;
  const auto& ops = workload.operations();
  for (size_t i = 0; i < ops.size(); ++i) {
    st = ops[i].is_insert ? algo.Insert(ops[i].id, data.Get(ops[i].id))
                          : algo.Delete(ops[i].id);
    if (!st.ok()) {
      std::fprintf(stderr, "op %zu: %s\n", i, st.ToString().c_str());
      return 1;
    }
    if ((i + 1) % kCheckpointEvery == 0) {
      states.Add(static_cast<uint64_t>(algo.current_m()));
      const std::vector<int> q = algo.Result();
      states.Add(q.size());
      for (int id : q) states.Add(static_cast<uint32_t>(id));
    }
  }
  Fnv1a phi;
  std::vector<int> members;
  for (int u = 0; u < algo.topk().num_utilities(); ++u) {
    const auto& set = algo.topk().ApproxTopK(u);
    members.assign(set.begin(), set.end());
    std::sort(members.begin(), members.end());
    phi.Add(members.size());
    for (int id : members) phi.Add(static_cast<uint32_t>(id));
  }
  std::printf("indep d=%d r=%d eps=%g M=2048 seed=%" PRIu64
              " ops=%zu: states=%016" PRIx64 " phi=%016" PRIx64
              " m=%d q=%zu\n",
              s.dim, s.r, s.eps, s.seed, ops.size(), states.value(),
              phi.value(), algo.current_m(), algo.Result().size());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main() {
  std::fprintf(stderr, "simd tier: %s\n", SimdTierName(ActiveSimdTier()));
  const std::vector<Stream> streams = {
      {6, 20, 0.025, 1}, {6, 20, 0.025, 2}, {6, 20, 0.025, 3},
      {6, 20, 0.025, 4}, {4, 10, 0.05, 1},  {4, 10, 0.05, 2},
  };
  for (const Stream& s : streams) {
    if (Run(s) != 0) return 1;
  }
  return 0;
}
