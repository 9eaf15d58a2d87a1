/// AVX2 tier of the scoring kernels (see score_kernels_simd.h for the
/// calling contract). Strategy: four rows per step, one vector lane per
/// row. The inner loop loads a 4x4 tile (four consecutive coordinates of
/// four rows), transposes it, and accumulates column-by-column into a
/// single 4-lane accumulator — so lane i computes
///   s_i = ((s_i + r_i[k]*q[k]) + r_i[k+1]*q[k+1]) + ...
/// in exactly the scalar order, with separate multiply and add (no FMA).
/// Loads are unaligned-safe (the ScoreBlock API carries no alignment
/// promise); on 32-byte-aligned ScoreMatrix rows they never split a cache
/// line. The reached prefilter reads a column-major float slab, so each
/// column load already holds one coordinate of eight rows: no transpose,
/// and separate multiply and add since this TU is built without -mfma.

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "geometry/simd/score_kernels_simd.h"

namespace fdrms {
namespace simd {
namespace {

/// Scalar-order dot of one row (tail rows below a block of four).
inline double Dot1(const double* r, const double* q, int d) {
  double s = 0.0;
  for (int k = 0; k < d; ++k) s += r[k] * q[k];
  return s;
}

/// Four rows against q, one lane per row, scalar accumulation order.
inline __m256d Dot4(const double* r0, const double* r1, const double* r2,
                    const double* r3, const double* q, int d) {
  __m256d acc = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= d; k += 4) {
    const __m256d a = _mm256_loadu_pd(r0 + k);
    const __m256d b = _mm256_loadu_pd(r1 + k);
    const __m256d c = _mm256_loadu_pd(r2 + k);
    const __m256d e = _mm256_loadu_pd(r3 + k);
    // 4x4 transpose: col_j = {r0[k+j], r1[k+j], r2[k+j], r3[k+j]}.
    const __m256d t0 = _mm256_unpacklo_pd(a, b);
    const __m256d t1 = _mm256_unpackhi_pd(a, b);
    const __m256d t2 = _mm256_unpacklo_pd(c, e);
    const __m256d t3 = _mm256_unpackhi_pd(c, e);
    const __m256d col0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d col1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d col2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d col3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(col0, _mm256_broadcast_sd(q + k)));
    acc =
        _mm256_add_pd(acc, _mm256_mul_pd(col1, _mm256_broadcast_sd(q + k + 1)));
    acc =
        _mm256_add_pd(acc, _mm256_mul_pd(col2, _mm256_broadcast_sd(q + k + 2)));
    acc =
        _mm256_add_pd(acc, _mm256_mul_pd(col3, _mm256_broadcast_sd(q + k + 3)));
  }
  for (; k < d; ++k) {
    const __m256d col = _mm256_set_pd(r3[k], r2[k], r1[k], r0[k]);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(col, _mm256_broadcast_sd(q + k)));
  }
  return acc;
}

/// kPassedLanes[m] lists the set bits of the 8-bit mask m, lowest first,
/// one lane number per byte.
constexpr std::array<uint64_t, 256> MakePassedLanes() {
  std::array<uint64_t, 256> table{};
  for (unsigned m = 0; m < 256; ++m) {
    int n = 0;
    for (unsigned b = 0; b < 8; ++b) {
      if ((m >> b) & 1) table[m] |= static_cast<uint64_t>(b) << (8 * n++);
    }
  }
  return table;
}
constexpr std::array<uint64_t, 256> kPassedLanes = MakePassedLanes();

/// Appends the rows set in `hit` (lanes of the eight rows starting at
/// `first`) to idx + n and returns the new n. Stores all eight slots from
/// the lane table: n <= first, so the tail writes stay inside the
/// caller's `count` slots.
inline size_t PackPassed(size_t first, unsigned hit, int* idx, size_t n) {
  const __m256i lanes = _mm256_cvtepu8_epi32(
      _mm_cvtsi64_si128(static_cast<long long>(kPassedLanes[hit])));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(idx + n),
      _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(first))));
  return n + static_cast<size_t>(__builtin_popcount(hit));
}

}  // namespace

void ScoreBlockAvx2(const double* rows, size_t stride, int d, size_t count,
                    const double* q, double* out) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* r0 = rows + (j + 0) * stride;
    _mm256_storeu_pd(out + j, Dot4(r0, r0 + stride, r0 + 2 * stride,
                                   r0 + 3 * stride, q, d));
  }
  for (; j < count; ++j) out[j] = Dot1(rows + j * stride, q, d);
}

void ScoreGatherAvx2(const double* base, size_t stride, int d, const int* idx,
                     size_t count, const double* q, double* out) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    _mm256_storeu_pd(
        out + j,
        Dot4(base + static_cast<size_t>(idx[j + 0]) * stride,
             base + static_cast<size_t>(idx[j + 1]) * stride,
             base + static_cast<size_t>(idx[j + 2]) * stride,
             base + static_cast<size_t>(idx[j + 3]) * stride, q, d));
  }
  for (; j < count; ++j) {
    out[j] = Dot1(base + static_cast<size_t>(idx[j]) * stride, q, d);
  }
}

size_t ReachedFilterAvx2(const float* cols, size_t col_stride, int d,
                         size_t count, const float* q, float slack,
                         const float* tau, int* idx) {
  const __m256 vslack = _mm256_set1_ps(slack);
  size_t n = 0;
  size_t i = 0;
  // Four blocks of eight rows per step: one broadcast of q[k] feeds four
  // independent accumulators.
  for (; i + 32 <= count; i += 32) {
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps()};
    for (int k = 0; k < d; ++k) {
      const float* col = cols + static_cast<size_t>(k) * col_stride + i;
      const __m256 qk = _mm256_broadcast_ss(q + k);
      for (int b = 0; b < 4; ++b) {
        acc[b] = _mm256_add_ps(
            acc[b], _mm256_mul_ps(_mm256_loadu_ps(col + 8 * b), qk));
      }
    }
    unsigned hit[4];
    for (int b = 0; b < 4; ++b) {
      hit[b] = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_add_ps(acc[b], vslack),
                        _mm256_loadu_ps(tau + i + 8 * b), _CMP_GE_OQ)));
    }
    // The common case: none of the 32 passes.
    if ((hit[0] | hit[1] | hit[2] | hit[3]) == 0) continue;
    for (int b = 0; b < 4; ++b) n = PackPassed(i + 8 * b, hit[b], idx, n);
  }
  for (; i < count; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = 0; k < d; ++k) {
      const __m256 col =
          _mm256_loadu_ps(cols + static_cast<size_t>(k) * col_stride + i);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(col, _mm256_broadcast_ss(q + k)));
    }
    const unsigned hit = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_add_ps(acc, vslack), _mm256_loadu_ps(tau + i),
                      _CMP_GE_OQ)));
    if (hit != 0) n = PackPassed(i, hit, idx, n);
  }
  return n;
}

}  // namespace simd
}  // namespace fdrms
