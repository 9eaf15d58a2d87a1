#ifndef FDRMS_GEOMETRY_SIMD_DISPATCH_H_
#define FDRMS_GEOMETRY_SIMD_DISPATCH_H_

/// \file simd_dispatch.h
/// Runtime selection of the SIMD scoring kernels.
///
/// The blocked kernels in geometry/score_kernel.h have one scalar reference
/// implementation and, where the toolchain and CPU allow, AVX2 / AVX-512
/// (x86-64) and NEON (aarch64) implementations compiled into separate
/// translation units with the matching ISA flags. This header owns the
/// choice between them:
///
///  * the first kernel call resolves the active tier — the best one the
///    running CPU supports (cpuid via __builtin_cpu_supports), unless the
///    FDRMS_SIMD environment variable forces one of "scalar", "avx2",
///    "avx512", "neon", or "auto" (unknown or unsupported values warn on
///    stderr and fall back to auto);
///  * tests and benchmarks can force a tier with SetSimdTier().
///
/// Exact scores: every tier accumulates each row's inner product in the
/// same coordinate order as the scalar path (vector lanes run across
/// *rows*, never within one) with separate multiply and add, so switching
/// tiers never changes a single output bit of ScoreBlockFn/ScoreGatherFn —
/// the dispatch-matrix equivalence suite pins this down per tier.
///
/// The reached prefilter (ReachedFilterFn) is the one kernel outside that
/// contract: it scores in float, the AVX-512 tier with FMA, so its pass
/// set may differ between tiers. It is only ever a conservative superset —
/// every row whose exact double score reaches its threshold passes on
/// every tier (slack derivation in geometry/score_kernel.h) — and callers
/// decide with an exact rescoring, so no result depends on the tier.

#include <cstddef>

namespace fdrms {

/// Kernel tiers, ordered from reference to widest.
enum class SimdTier {
  kScalar = 0,  ///< portable blocked-scalar reference (always available)
  kNeon = 1,    ///< 2-lane double NEON (aarch64 baseline)
  kAvx2 = 2,    ///< 4-lane double AVX2
  kAvx512 = 3,  ///< 8-lane double AVX-512F
};

/// Stable lowercase name ("scalar", "neon", "avx2", "avx512").
const char* SimdTierName(SimdTier tier);

/// Scores `count` consecutive rows at `stride` doubles apart against `q`:
/// out[j] = <rows + j*stride, q>.
using ScoreBlockFn = void (*)(const double* rows, size_t stride, int d,
                              size_t count, const double* q, double* out);

/// Gather variant: out[j] = <base + idx[j]*stride, q>.
using ScoreGatherFn = void (*)(const double* base, size_t stride, int d,
                               const int* idx, size_t count, const double* q,
                               double* out);

/// Lane count of the reached prefilter's widest tier (16 floats, one
/// 64-byte line); the filter's `count` must be a multiple of it.
inline constexpr int kFilterLanes = 16;

/// Conservative float prefilter of the reached query over a column-major
/// float slab: coordinate k of row i sits at cols[k*col_stride + i]. Row i
/// scores s_i = sum_k cols[k][i] * q[k] in float, ascending k, fused or
/// unfused depending on the tier, and passes when s_i + slack >= tau[i]
/// (the float sum rounded to nearest). Writes the passing rows' offsets
/// (ascending) to `idx` and returns how many. `count` is a multiple of
/// kFilterLanes and `idx` needs room for `count`.
using ReachedFilterFn = size_t (*)(const float* cols, size_t col_stride,
                                   int d, size_t count, const float* q,
                                   float slack, const float* tau, int* idx);

/// One tier's kernel entry points.
struct ScoreKernels {
  ScoreBlockFn block;
  ScoreGatherFn gather;
  ReachedFilterFn filter;
  SimdTier tier;
};

/// True when `tier` was compiled in and the running CPU can execute it.
bool SimdTierSupported(SimdTier tier);

/// The widest supported tier (what "auto" resolves to).
SimdTier BestSupportedSimdTier();

/// The active kernel table; resolves FDRMS_SIMD on first use, then caches.
const ScoreKernels& ActiveScoreKernels();

/// Tier of the active kernel table.
SimdTier ActiveSimdTier();

/// Forces `tier` for subsequent kernel calls. Returns false — leaving the
/// active tier unchanged — when the tier is not supported here. Test/bench
/// hook; racing it against in-flight scoring is the caller's problem.
bool SetSimdTier(SimdTier tier);

}  // namespace fdrms

#endif  // FDRMS_GEOMETRY_SIMD_DISPATCH_H_
