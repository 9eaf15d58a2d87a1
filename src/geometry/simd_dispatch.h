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
/// Every tier accumulates each row's inner product in the same coordinate
/// order as the scalar path (vector lanes run across *rows*, never within
/// one), so switching tiers never changes a single output bit — the
/// dispatch-matrix equivalence suite pins this down per tier. The reached
/// scan, which reads a column-major slab, keeps the same contract: one lane
/// per row, coordinates in ascending order.

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

/// Lane count of the widest tier; the reached scan's `count` must be a
/// multiple of it.
inline constexpr int kScanLanes = 8;

/// Fused score-and-compare over a column-major slab: coordinate k of row i
/// sits at cols[k*col_stride + i]. Row i scores
///   s_i = ((0 + c_0[i]*q[0]) + c_1[i]*q[1]) + ...   (separate mul and add)
/// and is reached when s_i >= tau[i]. Writes the reached rows' offsets
/// (ascending) to `idx` and their scores to `scores`, and returns how many.
/// `count` is a multiple of kScanLanes; both outputs need room for `count`.
using ScanReachedFn = size_t (*)(const double* cols, size_t col_stride, int d,
                                 size_t count, const double* q,
                                 const double* tau, int* idx, double* scores);

/// One tier's kernel entry points.
struct ScoreKernels {
  ScoreBlockFn block;
  ScoreGatherFn gather;
  ScanReachedFn reached;
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
