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
/// Contract (shared with geometry/score_kernel.h): per-row accumulation in
/// ascending coordinate order with a single accumulator per row and no FMA,
/// so every tier's output is bit-identical to the scalar reference.

#include <cstddef>

namespace fdrms {
namespace simd {

void ScoreBlockAvx2(const double* rows, size_t stride, int d, size_t count,
                    const double* q, double* out);
void ScoreGatherAvx2(const double* base, size_t stride, int d, const int* idx,
                     size_t count, const double* q, double* out);

size_t ScanReachedAvx2(const double* cols, size_t col_stride, int d,
                       size_t count, const double* q, const double* tau,
                       int* idx, double* scores);

void ScoreBlockAvx512(const double* rows, size_t stride, int d, size_t count,
                      const double* q, double* out);
void ScoreGatherAvx512(const double* base, size_t stride, int d,
                       const int* idx, size_t count, const double* q,
                       double* out);
size_t ScanReachedAvx512(const double* cols, size_t col_stride, int d,
                         size_t count, const double* q, const double* tau,
                         int* idx, double* scores);

void ScoreBlockNeon(const double* rows, size_t stride, int d, size_t count,
                    const double* q, double* out);
void ScoreGatherNeon(const double* base, size_t stride, int d, const int* idx,
                     size_t count, const double* q, double* out);

}  // namespace simd
}  // namespace fdrms

#endif  // FDRMS_GEOMETRY_SIMD_SCORE_KERNELS_SIMD_H_
