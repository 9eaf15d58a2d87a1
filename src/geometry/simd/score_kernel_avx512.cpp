/// AVX-512F tier of the scoring kernels (see score_kernels_simd.h for the
/// calling contract). Strategy: eight rows per step, one vector lane per
/// row. Columns are assembled from two 4x4 AVX2-style transposes (rows 0-3
/// and 4-7) glued into a 512-bit vector, then accumulated column-by-column
/// into one 8-lane accumulator — per-lane accumulation order is exactly the
/// scalar order, separate multiply and add (no FMA). Row counts below
/// eight fall to a 4-row AVX block and then scalar, so every row's result
/// stays bit-identical regardless of where it lands in the blocking.
/// The reached prefilter reads a column-major float slab, so each column
/// load already holds one coordinate of sixteen rows: no transpose, and it
/// accumulates with FMA (it only has to be conservative, not exact).

#include <immintrin.h>

#include <cstddef>

#include "geometry/simd/score_kernels_simd.h"

namespace fdrms {
namespace simd {
namespace {

/// All lanes. GCC 12 warns (-Wmaybe-uninitialized) on unmasked shuffles,
/// whose pass-through is _mm512_undefined_pd(); their zero-masked forms
/// with this mask compile to the same unmasked instructions.
constexpr __mmask8 kAllLanes = 0xFF;

inline double Dot1(const double* r, const double* q, int d) {
  double s = 0.0;
  for (int k = 0; k < d; ++k) s += r[k] * q[k];
  return s;
}

/// 4x4 transpose of rows a..e at column k: out[j] = {a[k+j], b[k+j], ...}.
inline void Transpose4(const double* a, const double* b, const double* c,
                       const double* e, int k, __m256d out[4]) {
  const __m256d va = _mm256_loadu_pd(a + k);
  const __m256d vb = _mm256_loadu_pd(b + k);
  const __m256d vc = _mm256_loadu_pd(c + k);
  const __m256d ve = _mm256_loadu_pd(e + k);
  const __m256d t0 = _mm256_unpacklo_pd(va, vb);
  const __m256d t1 = _mm256_unpackhi_pd(va, vb);
  const __m256d t2 = _mm256_unpacklo_pd(vc, ve);
  const __m256d t3 = _mm256_unpackhi_pd(vc, ve);
  out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Four rows against q (AVX sub-kernel for the 4..7-row tail).
inline __m256d Dot4(const double* r0, const double* r1, const double* r2,
                    const double* r3, const double* q, int d) {
  __m256d acc = _mm256_setzero_pd();
  int k = 0;
  __m256d cols[4];
  for (; k + 4 <= d; k += 4) {
    Transpose4(r0, r1, r2, r3, k, cols);
    for (int c = 0; c < 4; ++c) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(cols[c], _mm256_broadcast_sd(q + k + c)));
    }
  }
  for (; k < d; ++k) {
    const __m256d col = _mm256_set_pd(r3[k], r2[k], r1[k], r0[k]);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(col, _mm256_broadcast_sd(q + k)));
  }
  return acc;
}

/// Eight rows against q, one lane per row, scalar accumulation order.
/// The main loop transposes a full 8x8 tile with the three-level butterfly
/// (8 unpacks + 16 shuffle_f64x2 for 64 elements) instead of gluing 4x4
/// transposes — the kernel is shuffle-port-bound, and the butterfly cuts
/// shuffle work per element by ~2x over the 4-column scheme.
inline __m512d Dot8(const double* const r[8], const double* q, int d) {
  __m512d acc = _mm512_setzero_pd();
  int k = 0;
  for (; k + 8 <= d; k += 8) {
    // Level 0: one 8-wide load per row.
    const __m512d z0 = _mm512_loadu_pd(r[0] + k);
    const __m512d z1 = _mm512_loadu_pd(r[1] + k);
    const __m512d z2 = _mm512_loadu_pd(r[2] + k);
    const __m512d z3 = _mm512_loadu_pd(r[3] + k);
    const __m512d z4 = _mm512_loadu_pd(r[4] + k);
    const __m512d z5 = _mm512_loadu_pd(r[5] + k);
    const __m512d z6 = _mm512_loadu_pd(r[6] + k);
    const __m512d z7 = _mm512_loadu_pd(r[7] + k);
    // Level 1: interleave row pairs within 128-bit lanes (t0: cols
    // 0,2,4,6 of r0,r1; t1: cols 1,3,5,7).
    const __m512d t0 = _mm512_maskz_unpacklo_pd(kAllLanes, z0, z1);
    const __m512d t1 = _mm512_maskz_unpackhi_pd(kAllLanes, z0, z1);
    const __m512d t2 = _mm512_maskz_unpacklo_pd(kAllLanes, z2, z3);
    const __m512d t3 = _mm512_maskz_unpackhi_pd(kAllLanes, z2, z3);
    const __m512d t4 = _mm512_maskz_unpacklo_pd(kAllLanes, z4, z5);
    const __m512d t5 = _mm512_maskz_unpackhi_pd(kAllLanes, z4, z5);
    const __m512d t6 = _mm512_maskz_unpacklo_pd(kAllLanes, z6, z7);
    const __m512d t7 = _mm512_maskz_unpackhi_pd(kAllLanes, z6, z7);
    // Level 2: gather 128-bit blocks across row quads (u0..u3: cols 0,4 /
    // 2,6 / 1,5 / 3,7 of r0-3; u4..u7 the same of r4-7).
    const __m512d u0 = _mm512_maskz_shuffle_f64x2(kAllLanes, t0, t2, 0x88);
    const __m512d u1 = _mm512_maskz_shuffle_f64x2(kAllLanes, t0, t2, 0xDD);
    const __m512d u2 = _mm512_maskz_shuffle_f64x2(kAllLanes, t1, t3, 0x88);
    const __m512d u3 = _mm512_maskz_shuffle_f64x2(kAllLanes, t1, t3, 0xDD);
    const __m512d u4 = _mm512_maskz_shuffle_f64x2(kAllLanes, t4, t6, 0x88);
    const __m512d u5 = _mm512_maskz_shuffle_f64x2(kAllLanes, t4, t6, 0xDD);
    const __m512d u6 = _mm512_maskz_shuffle_f64x2(kAllLanes, t5, t7, 0x88);
    const __m512d u7 = _mm512_maskz_shuffle_f64x2(kAllLanes, t5, t7, 0xDD);
    // Level 3: full columns {r0[c], ..., r7[c]}.
    const __m512d c0 = _mm512_maskz_shuffle_f64x2(kAllLanes, u0, u4, 0x88);
    const __m512d c1 = _mm512_maskz_shuffle_f64x2(kAllLanes, u2, u6, 0x88);
    const __m512d c2 = _mm512_maskz_shuffle_f64x2(kAllLanes, u1, u5, 0x88);
    const __m512d c3 = _mm512_maskz_shuffle_f64x2(kAllLanes, u3, u7, 0x88);
    const __m512d c4 = _mm512_maskz_shuffle_f64x2(kAllLanes, u0, u4, 0xDD);
    const __m512d c5 = _mm512_maskz_shuffle_f64x2(kAllLanes, u2, u6, 0xDD);
    const __m512d c6 = _mm512_maskz_shuffle_f64x2(kAllLanes, u1, u5, 0xDD);
    const __m512d c7 = _mm512_maskz_shuffle_f64x2(kAllLanes, u3, u7, 0xDD);
    // Accumulate in ascending column order (the scalar order).
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c0, _mm512_set1_pd(q[k + 0])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c1, _mm512_set1_pd(q[k + 1])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c2, _mm512_set1_pd(q[k + 2])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c3, _mm512_set1_pd(q[k + 3])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c4, _mm512_set1_pd(q[k + 4])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c5, _mm512_set1_pd(q[k + 5])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c6, _mm512_set1_pd(q[k + 6])));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c7, _mm512_set1_pd(q[k + 7])));
  }
  __m256d lo[4], hi[4];
  for (; k + 4 <= d; k += 4) {
    Transpose4(r[0], r[1], r[2], r[3], k, lo);
    Transpose4(r[4], r[5], r[6], r[7], k, hi);
    for (int c = 0; c < 4; ++c) {
      const __m512d col = _mm512_maskz_insertf64x4(
          kAllLanes, _mm512_castpd256_pd512(lo[c]), hi[c], 1);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(col, _mm512_set1_pd(q[k + c])));
    }
  }
  for (; k < d; ++k) {
    const __m512d col =
        _mm512_set_pd(r[7][k], r[6][k], r[5][k], r[4][k], r[3][k], r[2][k],
                      r[1][k], r[0][k]);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(col, _mm512_set1_pd(q[k])));
  }
  return acc;
}

/// d == stride == 4 fast path: eight rows are 32 contiguous doubles, so
/// four 512-bit loads + four vpermt2pd + four shuffle_f64x2 yield all four
/// columns — 8 shuffles per 32 products, with the q broadcasts hoisted out
/// of the row loop entirely.
void ScoreBlock4x4(const double* rows, size_t count, const double* q,
                   double* out) {
  const __m512i idx01 = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
  const __m512i idx23 = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
  const __m512d bq0 = _mm512_set1_pd(q[0]);
  const __m512d bq1 = _mm512_set1_pd(q[1]);
  const __m512d bq2 = _mm512_set1_pd(q[2]);
  const __m512d bq3 = _mm512_set1_pd(q[3]);
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const double* p = rows + j * 4;
    const __m512d z0 = _mm512_loadu_pd(p);       // rows j, j+1
    const __m512d z1 = _mm512_loadu_pd(p + 8);   // rows j+2, j+3
    const __m512d z2 = _mm512_loadu_pd(p + 16);  // rows j+4, j+5
    const __m512d z3 = _mm512_loadu_pd(p + 24);  // rows j+6, j+7
    // a01 = {c0 of rows 0-3 | c1 of rows 0-3} as 128-bit blocks, etc.
    const __m512d a01 = _mm512_permutex2var_pd(z0, idx01, z1);
    const __m512d b01 = _mm512_permutex2var_pd(z2, idx01, z3);
    const __m512d a23 = _mm512_permutex2var_pd(z0, idx23, z1);
    const __m512d b23 = _mm512_permutex2var_pd(z2, idx23, z3);
    const __m512d c0 = _mm512_maskz_shuffle_f64x2(kAllLanes, a01, b01, 0x44);
    const __m512d c1 = _mm512_maskz_shuffle_f64x2(kAllLanes, a01, b01, 0xEE);
    const __m512d c2 = _mm512_maskz_shuffle_f64x2(kAllLanes, a23, b23, 0x44);
    const __m512d c3 = _mm512_maskz_shuffle_f64x2(kAllLanes, a23, b23, 0xEE);
    // Start from +0.0 like the scalar loop: 0.0 + (-0.0) must stay +0.0.
    __m512d acc = _mm512_add_pd(_mm512_setzero_pd(), _mm512_mul_pd(c0, bq0));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c1, bq1));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c2, bq2));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(c3, bq3));
    _mm512_storeu_pd(out + j, acc);
  }
  for (; j + 4 <= count; j += 4) {
    const double* r0 = rows + j * 4;
    _mm256_storeu_pd(out + j, Dot4(r0, r0 + 4, r0 + 8, r0 + 12, q, 4));
  }
  for (; j < count; ++j) out[j] = Dot1(rows + j * 4, q, 4);
}

/// Appends the rows set in `hit` (lanes of the sixteen rows starting at
/// `first`) to idx + n and returns the new n. Compresses the passing lanes
/// to the front and stores all sixteen: n <= first, so the tail writes
/// stay inside the caller's `count` slots.
inline size_t PackPassed(size_t first, __mmask16 hit, int* idx, size_t n) {
  const __m512i lanes =
      _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(first)),
                       _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15));
  _mm512_storeu_si512(idx + n, _mm512_maskz_compress_epi32(hit, lanes));
  return n + static_cast<size_t>(__builtin_popcount(hit));
}

}  // namespace

void ScoreBlockAvx512(const double* rows, size_t stride, int d, size_t count,
                      const double* q, double* out) {
  if (d == 4 && stride == 4) {
    ScoreBlock4x4(rows, count, q, out);
    return;
  }
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const double* r[8];
    for (int i = 0; i < 8; ++i) r[i] = rows + (j + i) * stride;
    _mm512_storeu_pd(out + j, Dot8(r, q, d));
  }
  for (; j + 4 <= count; j += 4) {
    const double* r0 = rows + j * stride;
    _mm256_storeu_pd(out + j, Dot4(r0, r0 + stride, r0 + 2 * stride,
                                   r0 + 3 * stride, q, d));
  }
  for (; j < count; ++j) out[j] = Dot1(rows + j * stride, q, d);
}

void ScoreGatherAvx512(const double* base, size_t stride, int d,
                       const int* idx, size_t count, const double* q,
                       double* out) {
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const double* r[8];
    for (int i = 0; i < 8; ++i) {
      r[i] = base + static_cast<size_t>(idx[j + i]) * stride;
    }
    _mm512_storeu_pd(out + j, Dot8(r, q, d));
  }
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

size_t ReachedFilterAvx512(const float* cols, size_t col_stride, int d,
                           size_t count, const float* q, float slack,
                           const float* tau, int* idx) {
  const __m512 vslack = _mm512_set1_ps(slack);
  size_t n = 0;
  size_t i = 0;
  // Four blocks of sixteen rows per step: one broadcast of q[k] feeds four
  // independent FMA chains.
  for (; i + 64 <= count; i += 64) {
    __m512 acc[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(),
                     _mm512_setzero_ps(), _mm512_setzero_ps()};
    for (int k = 0; k < d; ++k) {
      const float* col = cols + static_cast<size_t>(k) * col_stride + i;
      const __m512 qk = _mm512_set1_ps(q[k]);
      for (int b = 0; b < 4; ++b) {
        acc[b] = _mm512_fmadd_ps(_mm512_loadu_ps(col + 16 * b), qk, acc[b]);
      }
    }
    __mmask16 hit[4];
    for (int b = 0; b < 4; ++b) {
      hit[b] = _mm512_cmp_ps_mask(_mm512_add_ps(acc[b], vslack),
                                  _mm512_loadu_ps(tau + i + 16 * b),
                                  _CMP_GE_OQ);
    }
    // The common case: none of the 64 passes.
    if ((hit[0] | hit[1] | hit[2] | hit[3]) == 0) continue;
    for (int b = 0; b < 4; ++b) n = PackPassed(i + 16 * b, hit[b], idx, n);
  }
  for (; i < count; i += 16) {
    __m512 acc = _mm512_setzero_ps();
    for (int k = 0; k < d; ++k) {
      const __m512 col =
          _mm512_loadu_ps(cols + static_cast<size_t>(k) * col_stride + i);
      acc = _mm512_fmadd_ps(col, _mm512_set1_ps(q[k]), acc);
    }
    const __mmask16 hit = _mm512_cmp_ps_mask(
        _mm512_add_ps(acc, vslack), _mm512_loadu_ps(tau + i), _CMP_GE_OQ);
    if (hit != 0) n = PackPassed(i, hit, idx, n);
  }
  return n;
}

}  // namespace simd
}  // namespace fdrms
