// AVX2 tier of the SIMD kernel layer (256-bit). Reductions keep the 8
// logical double lanes in two 4-wide registers (lanes 0-3 / 4-7), spill
// to a double[8], and finish with the shared tail + tree helpers —
// bit-identical to the scalar tier by construction. Note: no FMA
// intrinsics and -ffp-contract=off, even though dispatch gates this
// tier on the FMA cpuid bit — see kernels.cc.

#include "math/kernels_detail.h"

#if defined(PAE_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace pae::math::kernels {
namespace {

double DotAvx2(const float* a, const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();  // lanes 0-3
  __m256d acc1 = _mm256_setzero_pd();  // lanes 4-7
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 af = _mm256_loadu_ps(a + i);
    const __m256 bf = _mm256_loadu_ps(b + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(af));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(af, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(bf));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(alo, blo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ahi, bhi));
  }
  double lanes[8];
  _mm256_storeu_pd(lanes + 0, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
  return detail::FinishDot(lanes, a, b, i, n);
}

double SumSqAvx2(const float* a, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 af = _mm256_loadu_ps(a + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(af));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(af, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(alo, alo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ahi, ahi));
  }
  double lanes[8];
  _mm256_storeu_pd(lanes + 0, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
  return detail::FinishSumSq(lanes, a, i, n);
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAvx2(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void MatVecAvx2(const float* m, size_t rows, size_t cols, const float* x,
                float* out) {
  detail::MatVecImpl(m, rows, cols, x, out, DotAvx2);
}

void MatTVecAvx2(const float* m, size_t rows, size_t cols, const float* x,
                 float* out) {
  detail::MatTVecImpl(m, rows, cols, x, out, AxpyAvx2);
}

void AddOuterAvx2(float alpha, const float* a, const float* b, float* m,
                  size_t rows, size_t cols) {
  detail::AddOuterImpl(alpha, a, b, m, rows, cols, AxpyAvx2);
}

void LstmGatePreactAvx2(const float* wx, const float* wh, const float* bias,
                        const float* x, const float* h_prev, size_t hidden,
                        size_t input_dim, float* pre) {
  detail::LstmGatePreactImpl(wx, wh, bias, x, h_prev, hidden, input_dim, pre,
                             DotAvx2);
}

/// Column-block micro-kernel: four dots of one row against the K-vectors
/// at x, x+k, x+2k, x+3k, sharing the two converted a-row registers; the
/// column data comes from the pre-widened double panel `xd` (same values
/// as x — see kernels_detail.h), so the inner loop has no b-side cvt/
/// extract chain. 4 columns × 2 accumulators + alo/ahi = 10 live ymm
/// registers; each column keeps DotAvx2's exact lane layout and finishes
/// through the shared tail, so each result is bit-equal to a standalone
/// DotAvx2.
void DotCols4Avx2(const float* a, const float* x, const double* xd, size_t k,
                  double* out) {
  __m256d acc0[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d acc1[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256 af = _mm256_loadu_ps(a + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(af));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(af, 1));
    for (size_t c = 0; c < 4; ++c) {
      const __m256d blo = _mm256_loadu_pd(xd + c * k + i);
      const __m256d bhi = _mm256_loadu_pd(xd + c * k + i + 4);
      acc0[c] = _mm256_add_pd(acc0[c], _mm256_mul_pd(alo, blo));
      acc1[c] = _mm256_add_pd(acc1[c], _mm256_mul_pd(ahi, bhi));
    }
  }
  if (i == k) {
    // No tail: reduce in registers with ReduceLanes8's exact tree —
    // hadd pairs ((l0+l1),(l4+l5),(l2+l3),(l6+l7)), the 128-bit add
    // forms (l0+l1)+(l2+l3) and (l4+l5)+(l6+l7), and the final add_sd
    // joins them. Same additions, same association, so bit-identical
    // to the spill-and-FinishDot path.
    for (size_t c = 0; c < 4; ++c) {
      const __m256d h = _mm256_hadd_pd(acc0[c], acc1[c]);
      const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(h),
                                   _mm256_extractf128_pd(h, 1));
      out[c] = _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
    }
    return;
  }
  for (size_t c = 0; c < 4; ++c) {
    double lanes[8];
    _mm256_storeu_pd(lanes + 0, acc0[c]);
    _mm256_storeu_pd(lanes + 4, acc1[c]);
    out[c] = detail::FinishDot(lanes, a, x + c * k, i, k);
  }
}

void MatMulAvx2(const float* m, size_t rows, size_t k, const float* x,
                size_t batch, const float* bias, float* out) {
  detail::MatMulImpl<4>(m, rows, k, x, batch, bias, out, DotAvx2,
                        DotCols4Avx2);
}

void MatTVecBatchAvx2(const float* m, size_t rows, size_t cols,
                      const float* x, size_t batch, float* out) {
  detail::MatTVecBatchImpl(m, rows, cols, x, batch, out, AxpyAvx2);
}

void LstmGatePreactBatchAvx2(const float* wx, const float* wh,
                             const float* bias, const float* xs,
                             const float* hs, size_t hidden, size_t input_dim,
                             size_t batch, float* pre) {
  detail::LstmGatePreactBatchImpl<4>(wx, wh, bias, xs, hs, hidden, input_dim,
                                     batch, pre, DotAvx2, DotCols4Avx2);
}

}  // namespace

namespace detail {
const KernelTable kAvx2Table = {
    DotAvx2,          SumSqAvx2,          AxpyAvx2,
    ScaleAvx2,        MatVecAvx2,         MatTVecAvx2,
    AddOuterAvx2,     LstmGatePreactAvx2, MatMulAvx2,
    MatTVecBatchAvx2, LstmGatePreactBatchAvx2,
};
}  // namespace detail

}  // namespace pae::math::kernels

#endif  // PAE_KERNELS_HAVE_AVX2
