#ifndef FDRMS_GEOMETRY_SIMD_SCORE_KERNELS_SIMD_H_
#define FDRMS_GEOMETRY_SIMD_SCORE_KERNELS_SIMD_H_

/// \file score_kernels_simd.h
/// Entry points of the per-ISA scoring kernels. Each set is defined in a
/// translation unit compiled with the matching ISA flags (CMake gates the
/// TUs on compiler support and defines FDRMS_HAVE_*_KERNEL accordingly), so
/// they must only be called after the runtime support check in
/// simd_dispatch.cpp — calling one on a CPU without the ISA is an illegal
/// instruction, not a fallback.
///
/// Contract (shared with geometry/score_kernel.h): the block and gather
/// kernels accumulate each row in ascending coordinate order with a single
/// accumulator per row and no FMA, so every tier's exact scores are
/// bit-identical to the scalar reference. The reached prefilters score in
/// float — AVX-512 fused, AVX2 unfused (its TU has no -mfma) — and are only
/// required to be conservative, which the slack in score_kernel.h
/// guarantees for either rounding.

#include <cstddef>

namespace fdrms {
namespace simd {

void ScoreBlockAvx2(const double* rows, size_t stride, int d, size_t count,
                    const double* q, double* out);
void ScoreGatherAvx2(const double* base, size_t stride, int d, const int* idx,
                     size_t count, const double* q, double* out);
size_t ReachedFilterAvx2(const float* cols, size_t col_stride, int d,
                         size_t count, const float* q, float slack,
                         const float* tau, int* idx);

void ScoreBlockAvx512(const double* rows, size_t stride, int d, size_t count,
                      const double* q, double* out);
void ScoreGatherAvx512(const double* base, size_t stride, int d,
                       const int* idx, size_t count, const double* q,
                       double* out);
size_t ReachedFilterAvx512(const float* cols, size_t col_stride, int d,
                           size_t count, const float* q, float slack,
                           const float* tau, int* idx);

void ScoreBlockNeon(const double* rows, size_t stride, int d, size_t count,
                    const double* q, double* out);
void ScoreGatherNeon(const double* base, size_t stride, int d, const int* idx,
                     size_t count, const double* q, double* out);

}  // namespace simd
}  // namespace fdrms

#endif  // FDRMS_GEOMETRY_SIMD_SCORE_KERNELS_SIMD_H_
