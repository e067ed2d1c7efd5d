// SSE2 tier of the SIMD kernel layer (128-bit, the x86-64 baseline).
// Reductions keep the 8 logical double lanes in four 2-wide registers
// (lanes 0-1 / 2-3 / 4-5 / 6-7), spill to a double[8], and finish with
// the shared tail + tree helpers — bit-identical to the scalar tier by
// construction. Compiled with -ffp-contract=off (see kernels.cc).

#include "math/kernels_detail.h"

#if defined(PAE_KERNELS_HAVE_SSE2)

#include <emmintrin.h>

namespace pae::math::kernels {
namespace {

double DotSse2(const float* a, const float* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128 a0 = _mm_loadu_ps(a + i);      // a0 a1 a2 a3
    const __m128 a1 = _mm_loadu_ps(a + i + 4);  // a4 a5 a6 a7
    const __m128 b0 = _mm_loadu_ps(b + i);
    const __m128 b1 = _mm_loadu_ps(b + i + 4);
    acc01 = _mm_add_pd(acc01,
                       _mm_mul_pd(_mm_cvtps_pd(a0), _mm_cvtps_pd(b0)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(a0, a0)),
                          _mm_cvtps_pd(_mm_movehl_ps(b0, b0))));
    acc45 = _mm_add_pd(acc45,
                       _mm_mul_pd(_mm_cvtps_pd(a1), _mm_cvtps_pd(b1)));
    acc67 = _mm_add_pd(
        acc67, _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(a1, a1)),
                          _mm_cvtps_pd(_mm_movehl_ps(b1, b1))));
  }
  double lanes[8];
  _mm_storeu_pd(lanes + 0, acc01);
  _mm_storeu_pd(lanes + 2, acc23);
  _mm_storeu_pd(lanes + 4, acc45);
  _mm_storeu_pd(lanes + 6, acc67);
  return detail::FinishDot(lanes, a, b, i, n);
}

double SumSqSse2(const float* a, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128 a0 = _mm_loadu_ps(a + i);
    const __m128 a1 = _mm_loadu_ps(a + i + 4);
    const __m128d d01 = _mm_cvtps_pd(a0);
    const __m128d d23 = _mm_cvtps_pd(_mm_movehl_ps(a0, a0));
    const __m128d d45 = _mm_cvtps_pd(a1);
    const __m128d d67 = _mm_cvtps_pd(_mm_movehl_ps(a1, a1));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    acc45 = _mm_add_pd(acc45, _mm_mul_pd(d45, d45));
    acc67 = _mm_add_pd(acc67, _mm_mul_pd(d67, d67));
  }
  double lanes[8];
  _mm_storeu_pd(lanes + 0, acc01);
  _mm_storeu_pd(lanes + 2, acc23);
  _mm_storeu_pd(lanes + 4, acc45);
  _mm_storeu_pd(lanes + 6, acc67);
  return detail::FinishSumSq(lanes, a, i, n);
}

void AxpySse2(float alpha, const float* x, float* y, size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleSse2(float alpha, float* x, size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(va, _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void MatVecSse2(const float* m, size_t rows, size_t cols, const float* x,
                float* out) {
  detail::MatVecImpl(m, rows, cols, x, out, DotSse2);
}

void MatTVecSse2(const float* m, size_t rows, size_t cols, const float* x,
                 float* out) {
  detail::MatTVecImpl(m, rows, cols, x, out, AxpySse2);
}

void AddOuterSse2(float alpha, const float* a, const float* b, float* m,
                  size_t rows, size_t cols) {
  detail::AddOuterImpl(alpha, a, b, m, rows, cols, AxpySse2);
}

void LstmGatePreactSse2(const float* wx, const float* wh, const float* bias,
                        const float* x, const float* h_prev, size_t hidden,
                        size_t input_dim, float* pre) {
  detail::LstmGatePreactImpl(wx, wh, bias, x, h_prev, hidden, input_dim, pre,
                             DotSse2);
}

/// Column-block micro-kernel: two dots of one row against the K-vectors
/// at x and x+k, sharing the four converted a-row registers; the column
/// data comes from the pre-widened double panel `xd` (same values as x
/// — see kernels_detail.h), so the inner loop has no b-side converts.
/// Each column keeps the full 8-lane accumulator set of DotSse2 (2 × 4
/// registers), spills, and finishes through the shared tail — so each
/// result is bit-equal to a standalone DotSse2.
void DotCols2Sse2(const float* a, const float* x, const double* xd, size_t k,
                  double* out) {
  const float* x0 = x;
  const float* x1 = x + k;
  const double* xd0 = xd;
  const double* xd1 = xd + k;
  __m128d c0_01 = _mm_setzero_pd(), c0_23 = _mm_setzero_pd();
  __m128d c0_45 = _mm_setzero_pd(), c0_67 = _mm_setzero_pd();
  __m128d c1_01 = _mm_setzero_pd(), c1_23 = _mm_setzero_pd();
  __m128d c1_45 = _mm_setzero_pd(), c1_67 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m128 a0 = _mm_loadu_ps(a + i);
    const __m128 a1 = _mm_loadu_ps(a + i + 4);
    const __m128d a01 = _mm_cvtps_pd(a0);
    const __m128d a23 = _mm_cvtps_pd(_mm_movehl_ps(a0, a0));
    const __m128d a45 = _mm_cvtps_pd(a1);
    const __m128d a67 = _mm_cvtps_pd(_mm_movehl_ps(a1, a1));
    c0_01 = _mm_add_pd(c0_01, _mm_mul_pd(a01, _mm_loadu_pd(xd0 + i)));
    c0_23 = _mm_add_pd(c0_23, _mm_mul_pd(a23, _mm_loadu_pd(xd0 + i + 2)));
    c0_45 = _mm_add_pd(c0_45, _mm_mul_pd(a45, _mm_loadu_pd(xd0 + i + 4)));
    c0_67 = _mm_add_pd(c0_67, _mm_mul_pd(a67, _mm_loadu_pd(xd0 + i + 6)));
    c1_01 = _mm_add_pd(c1_01, _mm_mul_pd(a01, _mm_loadu_pd(xd1 + i)));
    c1_23 = _mm_add_pd(c1_23, _mm_mul_pd(a23, _mm_loadu_pd(xd1 + i + 2)));
    c1_45 = _mm_add_pd(c1_45, _mm_mul_pd(a45, _mm_loadu_pd(xd1 + i + 4)));
    c1_67 = _mm_add_pd(c1_67, _mm_mul_pd(a67, _mm_loadu_pd(xd1 + i + 6)));
  }
  double lanes0[8], lanes1[8];
  _mm_storeu_pd(lanes0 + 0, c0_01);
  _mm_storeu_pd(lanes0 + 2, c0_23);
  _mm_storeu_pd(lanes0 + 4, c0_45);
  _mm_storeu_pd(lanes0 + 6, c0_67);
  _mm_storeu_pd(lanes1 + 0, c1_01);
  _mm_storeu_pd(lanes1 + 2, c1_23);
  _mm_storeu_pd(lanes1 + 4, c1_45);
  _mm_storeu_pd(lanes1 + 6, c1_67);
  out[0] = detail::FinishDot(lanes0, a, x0, i, k);
  out[1] = detail::FinishDot(lanes1, a, x1, i, k);
}

void MatMulSse2(const float* m, size_t rows, size_t k, const float* x,
                size_t batch, const float* bias, float* out) {
  detail::MatMulImpl<2>(m, rows, k, x, batch, bias, out, DotSse2,
                        DotCols2Sse2);
}

void MatTVecBatchSse2(const float* m, size_t rows, size_t cols,
                      const float* x, size_t batch, float* out) {
  detail::MatTVecBatchImpl(m, rows, cols, x, batch, out, AxpySse2);
}

void LstmGatePreactBatchSse2(const float* wx, const float* wh,
                             const float* bias, const float* xs,
                             const float* hs, size_t hidden, size_t input_dim,
                             size_t batch, float* pre) {
  detail::LstmGatePreactBatchImpl<2>(wx, wh, bias, xs, hs, hidden, input_dim,
                                     batch, pre, DotSse2, DotCols2Sse2);
}

}  // namespace

namespace detail {
const KernelTable kSse2Table = {
    DotSse2,          SumSqSse2,          AxpySse2,
    ScaleSse2,        MatVecSse2,         MatTVecSse2,
    AddOuterSse2,     LstmGatePreactSse2, MatMulSse2,
    MatTVecBatchSse2, LstmGatePreactBatchSse2,
};
}  // namespace detail

}  // namespace pae::math::kernels

#endif  // PAE_KERNELS_HAVE_SSE2
