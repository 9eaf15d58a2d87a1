#ifndef FDRMS_GEOMETRY_SCORE_KERNEL_H_
#define FDRMS_GEOMETRY_SCORE_KERNEL_H_

/// \file score_kernel.h
/// The scoring hot path: blocked inner-product kernels over a contiguous
/// utility/pivot matrix.
///
/// The maintained indexes score one tuple against *many* vectors on every
/// mutation — the utility index's reached scan, the kd-tree's leaf scans,
/// TopKMaintainer's insert and delete-repair loops, and the tau (admission
/// threshold) recomputation all reduce to "dot p against rows i..j".
/// Storing those rows as a `std::vector<Point>` (an array of separately
/// heap-allocated vectors) makes each dot a pointer chase; ScoreMatrix
/// flattens them into one contiguous slab (structure-of-arrays relative to
/// the old layout: all coordinates in a single allocation, rows at a fixed
/// padded stride) so the kernels below stream it.
///
/// Alignment contract: the slab base is 64-byte aligned (an aligned
/// allocation, not a plain std::vector whose base is only guaranteed
/// alignof(double)) and the stride is padded to a multiple of four doubles
/// (zero-filled), so *every row start is 32-byte aligned* and no vector
/// load of four consecutive doubles within a row straddles a cache line.
/// The SIMD tiers still issue unaligned-load instructions — ScoreBlock is
/// also used on raw caller-owned blocks with no alignment promise — but on
/// ScoreMatrix rows those loads never split a line.
///
/// Numerical contract for exact scores: every block and gather kernel —
/// the scalar reference here and the runtime-dispatched AVX2/AVX-512/NEON
/// tiers behind ScoreBlock/ScoreGather (geometry/simd_dispatch.h) —
/// accumulates each row's sum in the same coordinate order as
/// geometry/point.h `Dot`, so per-row results are bit-identical to the
/// scalar path: blocking and vectorization happen *across* rows (one
/// vector lane per row), never within a row, and none of them uses FMA
/// (the build pins -ffp-contract=off to match). Swapping kernels or tiers
/// can therefore never flip a threshold comparison relative to the
/// reference implementation.
///
/// The reached prefilter (FilterReached) is outside that contract on
/// purpose: it scores a float copy of the utilities, the AVX-512 tier with
/// FMA, and only narrows the rows that the exact double rescoring looks at.
/// It is conservative — no row whose exact score reaches its threshold is
/// dropped on any tier — by the slack derived above PrepareReachedFilter.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geometry/point.h"
#include "geometry/simd_dispatch.h"

namespace fdrms {

/// Slab base alignment in bytes (AVX-512 vector width); row starts are
/// aligned to at least half of it, see the file comment.
inline constexpr size_t kScoreSlabAlignmentBytes = 64;

/// Inner product over contiguous coordinate arrays, scalar accumulation
/// order (bit-identical to Dot on the same operands).
inline double DotContiguous(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int k = 0; k < d; ++k) s += a[k] * b[k];
  return s;
}

/// Scalar reference of the block kernel: scores `count` consecutive rows of
/// a row-contiguous block against `q`, out[j] = <rows + j*stride, q>.
/// Blocked four rows per step with independent accumulators —
/// auto-vectorization-friendly without changing any row's accumulation
/// order.
inline void ScoreBlockScalar(const double* rows, size_t stride, int d,
                             size_t count, const double* q, double* out) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* r0 = rows + (j + 0) * stride;
    const double* r1 = rows + (j + 1) * stride;
    const double* r2 = rows + (j + 2) * stride;
    const double* r3 = rows + (j + 3) * stride;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int k = 0; k < d; ++k) {
      const double qk = q[k];
      s0 += r0[k] * qk;
      s1 += r1[k] * qk;
      s2 += r2[k] * qk;
      s3 += r3[k] * qk;
    }
    out[j + 0] = s0;
    out[j + 1] = s1;
    out[j + 2] = s2;
    out[j + 3] = s3;
  }
  for (; j < count; ++j) {
    out[j] = DotContiguous(rows + j * stride, q, d);
  }
}

/// Scalar reference of the gather kernel: out[j] = <base + idx[j]*stride,
/// q>. Row starts are scattered but each row is contiguous.
inline void ScoreGatherScalar(const double* base, size_t stride, int d,
                              const int* idx, size_t count, const double* q,
                              double* out) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* r0 = base + static_cast<size_t>(idx[j + 0]) * stride;
    const double* r1 = base + static_cast<size_t>(idx[j + 1]) * stride;
    const double* r2 = base + static_cast<size_t>(idx[j + 2]) * stride;
    const double* r3 = base + static_cast<size_t>(idx[j + 3]) * stride;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int k = 0; k < d; ++k) {
      const double qk = q[k];
      s0 += r0[k] * qk;
      s1 += r1[k] * qk;
      s2 += r2[k] * qk;
      s3 += r3[k] * qk;
    }
    out[j + 0] = s0;
    out[j + 1] = s1;
    out[j + 2] = s2;
    out[j + 3] = s3;
  }
  for (; j < count; ++j) {
    out[j] = DotContiguous(base + static_cast<size_t>(idx[j]) * stride, q, d);
  }
}

/// Scalar reference of the reached prefilter (contract in
/// simd_dispatch.h): kFilterLanes rows per step, each with its own float
/// accumulator, walking the columns in ascending order, unfused.
inline size_t ReachedFilterScalar(const float* cols, size_t col_stride, int d,
                                  size_t count, const float* q, float slack,
                                  const float* tau, int* idx) {
  size_t n = 0;
  for (size_t i = 0; i < count; i += kFilterLanes) {
    float s[kFilterLanes] = {};
    for (int k = 0; k < d; ++k) {
      const float* col = cols + static_cast<size_t>(k) * col_stride + i;
      const float qk = q[k];
      for (int l = 0; l < kFilterLanes; ++l) s[l] += col[l] * qk;
    }
    // Branch-free pack: write every lane at n, advance n past the passes.
    for (int l = 0; l < kFilterLanes; ++l) {
      idx[n] = static_cast<int>(i) + l;
      n += s[l] + slack >= tau[i + l] ? 1 : 0;
    }
  }
  return n;
}

/// The largest float <= x (+inf stays +inf, a finite x above FLT_MAX maps
/// to FLT_MAX, NaN stays NaN). The prefilter's thresholds: rounding one
/// down never drops a row the double comparison would keep.
inline float FloatAtMost(double x) {
  constexpr double kMax = std::numeric_limits<float>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (x > kMax) return x == std::numeric_limits<double>::infinity()
                           ? kInf
                           : std::numeric_limits<float>::max();
  if (x < -kMax) return -kInf;
  float f = static_cast<float>(x);
  if (static_cast<double>(f) > x) f = std::nextafter(f, -kInf);
  return f;
}

/// Largest dimension and magnitude the prefilter accepts; beyond them
/// PrepareReachedFilter refuses and every row is rescored exactly.
inline constexpr int kFilterMaxDim = 256;
inline constexpr double kFilterMaxMagnitude = 0x1p100;

/// Prepares probe `p` (d coordinates) for FilterReached over utilities
/// whose largest coordinate magnitude, floored at 2^-126, is `a` (A below):
/// q[k] = p[k] rounded to float and *slack = sigma(p) rounded up to a
/// float. Returns false, leaving q and slack unset, when the filter is not
/// safe for this probe — a non-finite coordinate, d above kFilterMaxDim,
/// or A, |p|_1 or A*|p|_1 above kFilterMaxMagnitude — and the caller must
/// then rescore every row.
///
/// The slack. Let u = 2^-24 (float unit roundoff), eta = 2^-150 (float
/// underflow error), S = sum_k u_k p_k the exact score of utility u
/// against p, D = Dot(u, p) its double score and F its float score on any
/// tier. While d <= 256 and A, |p|_1 and A*|p|_1 are all <= 2^100 (no
/// float overflow anywhere):
///  * converting u_k to float errs by <= u|u_k|, or by <= eta when u_k is
///    float-subnormal; eta|p_k| <= u * 2^-126 |p_k|, so summed over k that
///    is <= u*A*|p|_1 (this is why A is floored at 2^-126);
///  * converting p_k errs by <= u|p_k| or eta, the latter costing
///    <= eta * A(1+u) per coordinate;
///  * the float product and the d float additions add relative error u
///    each (an FMA skips the product rounding, so the unfused bound covers
///    it), plus at most eta per product or fused step that lands in the
///    subnormal range (a plain float addition of subnormals is exact);
///  * D errs from S by <= d * 2^-53 * sum|u_k p_k| + d * 2^-1075.
/// With sum|u_k p_k| <= A*|p|_1 and (1+u)^(d+3) - 1 <= (d+3)u(1 + 2^-12)
/// for d <= 256, |F - S| + |D - S| <= (d+5)(1 + 2^-12) u A |p|_1 +
/// eta (d A + 4d), which
///   sigma(p) = (d+6) u A |p|_1 + (d+1)(A+1) 2^-126
/// exceeds with room to spare for the double evaluation of sigma itself.
/// So D >= tau implies F + sigma >= S - |F - S| + sigma >= tau >=
/// FloatAtMost(tau), and since rounding to nearest is monotone and
/// FloatAtMost(tau) is a float, the float sum fl(F + sigma) >=
/// FloatAtMost(tau) too: the row passes.
inline bool PrepareReachedFilter(const double* p, int d, double a, float* q,
                                 float* slack) {
  if (d > kFilterMaxDim || !(a <= kFilterMaxMagnitude)) return false;
  double norm1 = 0.0;
  for (int k = 0; k < d; ++k) norm1 += std::fabs(p[k]);
  // NaN and inf coordinates fail these comparisons too.
  if (!(norm1 <= kFilterMaxMagnitude) || !(a * norm1 <= kFilterMaxMagnitude)) {
    return false;
  }
  for (int k = 0; k < d; ++k) q[k] = static_cast<float>(p[k]);
  const double sigma =
      (d + 6) * 0x1p-24 * a * norm1 + (d + 1) * (a + 1) * 0x1p-126;
  *slack = static_cast<float>(sigma);
  if (static_cast<double>(*slack) < sigma) {
    // sigma is a positive normal float here: one ulp up is the next
    // bit pattern.
    *slack = std::bit_cast<float>(std::bit_cast<uint32_t>(*slack) + 1u);
  }
  return true;
}

/// Dispatched block kernel (see simd_dispatch.h for tier selection).
inline void ScoreBlock(const double* rows, size_t stride, int d, size_t count,
                       const double* q, double* out) {
  ActiveScoreKernels().block(rows, stride, d, count, q, out);
}

/// Dispatched gather kernel.
inline void ScoreGather(const double* base, size_t stride, int d,
                        const int* idx, size_t count, const double* q,
                        double* out) {
  ActiveScoreKernels().gather(base, stride, d, idx, count, q, out);
}

/// Dispatched reached prefilter.
inline size_t FilterReached(const float* cols, size_t col_stride, int d,
                            size_t count, const float* q, float slack,
                            const float* tau, int* idx) {
  return ActiveScoreKernels().filter(cols, col_stride, d, count, q, slack,
                                     tau, idx);
}

/// Minimal allocator handing out kScoreSlabAlignmentBytes-aligned storage,
/// so a std::vector slab (and every copy of it) starts on a cache line.
template <class T>
struct SlabAllocator {
  using value_type = T;
  SlabAllocator() = default;
  template <class U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}
  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kScoreSlabAlignmentBytes}));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{kScoreSlabAlignmentBytes});
  }
  template <class U>
  bool operator==(const SlabAllocator<U>&) const noexcept {
    return true;
  }
};

/// A set of d-dimensional vectors in one contiguous, 64-byte-aligned slab.
/// Rows keep their append order; the stride is padded to a multiple of four
/// doubles (zero-filled) so row starts stay 32-byte aligned (see the file
/// comment for the full contract). Grows by row appends (amortized
/// doubling), so dynamic indexes can use it as their point store.
class ScoreMatrix {
 public:
  ScoreMatrix() = default;

  /// Empty matrix accepting `dim`-wide row appends.
  explicit ScoreMatrix(int dim) : dim_(dim), stride_(PaddedStride(dim)) {
    FDRMS_CHECK(dim > 0);
  }

  explicit ScoreMatrix(const std::vector<Point>& rows) {
    if (rows.empty()) return;
    dim_ = static_cast<int>(rows[0].size());
    FDRMS_CHECK(dim_ > 0) << "ScoreMatrix rows need at least one coordinate";
    stride_ = PaddedStride(dim_);
    Reserve(static_cast<int>(rows.size()));
    for (const Point& r : rows) AppendRow(r);
  }

  ScoreMatrix(const ScoreMatrix& o) { *this = o; }
  ScoreMatrix& operator=(const ScoreMatrix& o) {
    if (this == &o) return *this;
    data_.reset();
    capacity_ = 0;
    rows_ = 0;
    dim_ = o.dim_;
    stride_ = o.stride_;
    if (o.rows_ > 0) {
      Reserve(o.rows_);
      std::memcpy(data_.get(), o.data_.get(),
                  static_cast<size_t>(o.rows_) * stride_ * sizeof(double));
      rows_ = o.rows_;
    }
    return *this;
  }
  ScoreMatrix(ScoreMatrix&& o) noexcept { *this = std::move(o); }
  ScoreMatrix& operator=(ScoreMatrix&& o) noexcept {
    if (this == &o) return *this;
    data_ = std::move(o.data_);
    rows_ = o.rows_;
    dim_ = o.dim_;
    stride_ = o.stride_;
    capacity_ = o.capacity_;
    o.rows_ = o.capacity_ = 0;
    return *this;
  }

  int rows() const { return rows_; }
  int dim() const { return dim_; }
  size_t stride() const { return stride_; }

  const double* row(int i) const {
    FDRMS_DCHECK(i >= 0 && i < rows_) << "row " << i << " outside [0,"
                                      << rows_ << ")";
    return data_.get() + static_cast<size_t>(i) * stride_;
  }

  /// Writable row i, for callers that update values in place.
  double* mutable_row(int i) { return const_cast<double*>(row(i)); }

  /// Grows capacity to at least `rows` (no-op when already large enough).
  void Reserve(int rows) {
    if (rows <= capacity_) return;
    FDRMS_CHECK(dim_ > 0) << "Reserve on a dimensionless ScoreMatrix";
    const size_t bytes = static_cast<size_t>(rows) * stride_ * sizeof(double);
    double* fresh = static_cast<double*>(
        ::operator new[](bytes, std::align_val_t{kScoreSlabAlignmentBytes}));
    FDRMS_CHECK(reinterpret_cast<uintptr_t>(fresh) %
                    kScoreSlabAlignmentBytes ==
                0);
    if (rows_ > 0) {
      std::memcpy(fresh, data_.get(),
                  static_cast<size_t>(rows_) * stride_ * sizeof(double));
    }
    data_.reset(fresh);
    capacity_ = rows;
  }

  /// Appends a row (the matrix's dim must match); returns its index.
  int AppendRow(const Point& p) {
    FDRMS_CHECK(static_cast<int>(p.size()) == dim_);
    return AppendRowUnchecked(p.data());
  }

  /// Appends `dim()` doubles from `src`; returns the new row's index.
  int AppendRowUnchecked(const double* src) {
    FDRMS_DCHECK(dim_ > 0);
    if (rows_ == capacity_) Reserve(capacity_ < 8 ? 8 : capacity_ * 2);
    double* dst = data_.get() + static_cast<size_t>(rows_) * stride_;
    for (int k = 0; k < dim_; ++k) dst[k] = src[k];
    for (size_t k = static_cast<size_t>(dim_); k < stride_; ++k) dst[k] = 0.0;
    return rows_++;
  }

  /// <row i, q>; bit-identical to Dot(rows[i], q).
  double RowDot(int i, const Point& q) const {
    FDRMS_DCHECK(static_cast<int>(q.size()) == dim_);
    return DotContiguous(row(i), q.data(), dim_);
  }

  /// Scores every row: out[i] = <row i, q>. Dispatched block kernel.
  void ScoreAll(const Point& q, std::vector<double>* out) const {
    FDRMS_DCHECK(static_cast<int>(q.size()) == dim_);
    out->resize(static_cast<size_t>(rows_));
    if (rows_ == 0) return;
    ScoreBlock(data_.get(), stride_, dim_, static_cast<size_t>(rows_),
               q.data(), out->data());
  }

  /// Scores a subset of rows: out[j] = <row idx[j], q>. Dispatched gather
  /// kernel. Every idx entry must be a valid row (DCHECK-enforced; an
  /// out-of-range index would silently read outside the slab in release
  /// builds otherwise).
  void ScoreSubset(const Point& q, const std::vector<int>& idx,
                   double* out) const {
    FDRMS_DCHECK(static_cast<int>(q.size()) == dim_);
#ifndef NDEBUG
    for (int i : idx) {
      FDRMS_DCHECK(i >= 0 && i < rows_)
          << "ScoreSubset index " << i << " outside [0," << rows_ << ")";
    }
#endif
    if (idx.empty()) return;
    ScoreGather(data_.get(), stride_, dim_, idx.data(), idx.size(), q.data(),
                out);
  }

 private:
  static constexpr size_t PaddedStride(int dim) {
    return static_cast<size_t>((dim + 3) & ~3);
  }

  struct AlignedDelete {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{kScoreSlabAlignmentBytes});
    }
  };

  int rows_ = 0;
  int dim_ = 0;
  size_t stride_ = 0;
  int capacity_ = 0;
  std::unique_ptr<double[], AlignedDelete> data_;
};

}  // namespace fdrms

#endif  // FDRMS_GEOMETRY_SCORE_KERNEL_H_
