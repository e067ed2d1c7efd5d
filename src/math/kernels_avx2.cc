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

/// ReduceLanes8 in registers for lanes 0-3 in acc0 and 4-7 in acc1:
/// hadd pairs ((l0+l1),(l4+l5),(l2+l3),(l6+l7)), the 128-bit add forms
/// (l0+l1)+(l2+l3) and (l4+l5)+(l6+l7), and the final add_sd joins them.
/// Same additions, same association, so bit-identical to the
/// spill-and-ReduceLanes8 path.
double ReduceLanesAvx2(__m256d acc0, __m256d acc1) {
  const __m256d h = _mm256_hadd_pd(acc0, acc1);
  const __m128d s =
      _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

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
    for (size_t c = 0; c < 4; ++c) out[c] = ReduceLanesAvx2(acc0[c], acc1[c]);
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

void PairPrepareAvx2(const float* vin, size_t n, double* vin_wide,
                     float* grad) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(vin + i);
    _mm256_storeu_pd(vin_wide + i,
                     _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    _mm256_storeu_pd(vin_wide + i + 4,
                     _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
    _mm256_storeu_ps(grad + i, _mm256_setzero_ps());
  }
  for (; i < n; ++i) {
    vin_wide[i] = static_cast<double>(vin[i]);
    grad[i] = 0.0f;
  }
}

/// Dot against the widened center vector of a skip-gram pair; the
/// bootstrap's d = 32 has no tail and reduces in registers.
double DotWideAvx2(const double* a, const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();  // lanes 0-3
  __m256d acc1 = _mm256_setzero_pd();  // lanes 4-7
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 bf = _mm256_loadu_ps(b + i);
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                            _mm256_cvtps_pd(_mm256_castps256_ps128(bf))));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                            _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1))));
  }
  if (i == n) return ReduceLanesAvx2(acc0, acc1);
  double lanes[8];
  _mm256_storeu_pd(lanes + 0, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
  return detail::FinishDotWide(lanes, a, b, i, n);
}

void PairUpdateAvx2(float g, float* vout, const float* vin, float* grad,
                    size_t n) {
  const __m256 vg = _mm256_set1_ps(g);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 o = _mm256_loadu_ps(vout + i);
    _mm256_storeu_ps(grad + i, _mm256_add_ps(_mm256_loadu_ps(grad + i),
                                             _mm256_mul_ps(vg, o)));
    _mm256_storeu_ps(
        vout + i,
        _mm256_add_ps(o, _mm256_mul_ps(vg, _mm256_loadu_ps(vin + i))));
  }
  for (; i < n; ++i) {
    const float o = vout[i];
    grad[i] += g * o;
    vout[i] = o + g * vin[i];
  }
}

void SkipGramPairAvx2(float* vin, float* out, const int32_t* targets,
                      size_t num_targets, float lr, size_t d) {
  detail::SkipGramPairImpl(vin, out, targets, num_targets, lr, d,
                           PairPrepareAvx2, DotWideAvx2, PairUpdateAvx2,
                           AxpyAvx2);
}

/// One column of X against up to 16 columns of M: kGroups 4-wide
/// accumulators, one independent sum chain per column. With kPartial
/// the last group holds `tail` (1–3) columns; masked loads read nothing
/// past them. The mask is built here, not passed in: a function taking
/// a ymm argument returns without vzeroupper, and the dirty upper state
/// stalls every later SSE instruction (libm's exp and log among them).
template <size_t kGroups, bool kPartial>
inline void VecMatColsAvx2(const double* x, size_t x_stride, const double* m,
                           size_t m_stride, size_t rows, size_t tail,
                           double* out) {
  // Lane i of the partial group is live when i < tail.
  const __m256i mask =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(tail)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc[kGroups];
  for (size_t g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  for (size_t k = 0; k < rows; ++k) {
    const __m256d xv = _mm256_broadcast_sd(x + k * x_stride);
    const double* mk = m + k * m_stride;
    for (size_t g = 0; g < kGroups; ++g) {
      const __m256d mv = kPartial && g + 1 == kGroups
                             ? _mm256_maskload_pd(mk + 4 * g, mask)
                             : _mm256_loadu_pd(mk + 4 * g);
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(xv, mv));
    }
  }
  const size_t full = kPartial ? kGroups - 1 : kGroups;
  for (size_t g = 0; g < full; ++g) _mm256_storeu_pd(out + 4 * g, acc[g]);
  if (kPartial) {
    // Plain scalar stores, not a masked one: the forward and backward
    // passes read this row back on their next step, and a masked store
    // cannot forward to that load.
    double* o = out + 4 * full;
    const __m128d lo = _mm256_castpd256_pd128(acc[full]);
    _mm_store_sd(o, lo);
    if (tail > 1) _mm_storeh_pd(o + 1, lo);
    if (tail > 2) _mm_store_sd(o + 2, _mm256_extractf128_pd(acc[full], 1));
  }
}

inline void VecMatDAvx2(const double* x, size_t x_stride, const double* m,
                        size_t m_stride, size_t rows, size_t cols,
                        double* out) {
  size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    VecMatColsAvx2<4, false>(x, x_stride, m + c, m_stride, rows, 0, out + c);
  }
  m += c;
  out += c;
  // The 1–15 columns left: whole groups, then a partial one.
  switch (cols - c) {
    case 0:
      break;
    case 1:
    case 2:
    case 3:
      VecMatColsAvx2<1, true>(x, x_stride, m, m_stride, rows, cols % 4, out);
      break;
    case 4:
      VecMatColsAvx2<1, false>(x, x_stride, m, m_stride, rows, 0, out);
      break;
    case 5:
    case 6:
    case 7:
      VecMatColsAvx2<2, true>(x, x_stride, m, m_stride, rows, cols % 4, out);
      break;
    case 8:
      VecMatColsAvx2<2, false>(x, x_stride, m, m_stride, rows, 0, out);
      break;
    case 9:
    case 10:
    case 11:
      VecMatColsAvx2<3, true>(x, x_stride, m, m_stride, rows, cols % 4, out);
      break;
    case 12:
      VecMatColsAvx2<3, false>(x, x_stride, m, m_stride, rows, 0, out);
      break;
    default:  // 13–15
      VecMatColsAvx2<4, true>(x, x_stride, m, m_stride, rows, cols % 4, out);
      break;
  }
}

void MatTMatDAvx2(const double* x, size_t x_stride, size_t x_cols,
                  const double* m, size_t m_stride, size_t rows, size_t cols,
                  double* out) {
  for (size_t r = 0; r < x_cols; ++r) {
    VecMatDAvx2(x + r, x_stride, m, m_stride, rows, cols, out + r * cols);
  }
}

double ChainForwardDAvx2(const double* emit, const double* trans,
                          const double* start, const double* end, size_t steps,
                          size_t labels, double* alpha, double* scale) {
  return detail::ChainForwardImpl(emit, trans, start, end, steps, labels,
                                  alpha, scale, VecMatDAvx2);
}

void ChainBackwardDAvx2(const double* trans_t, const double* scale,
                         size_t steps, size_t labels, double* emit,
                         double* beta) {
  detail::ChainBackwardImpl(trans_t, scale, steps, labels, emit, beta,
                            VecMatDAvx2);
}

}  // namespace

namespace detail {
const KernelTable kAvx2Table = {
    DotAvx2, SumSqAvx2, AxpyAvx2, ScaleAvx2, MatVecAvx2, MatTVecAvx2,
    AddOuterAvx2, LstmGatePreactAvx2, MatMulAvx2, MatTVecBatchAvx2,
    LstmGatePreactBatchAvx2, SkipGramPairAvx2, MatTMatDAvx2, ChainForwardDAvx2,
    ChainBackwardDAvx2,
};
}  // namespace detail

}  // namespace pae::math::kernels

#endif  // PAE_KERNELS_HAVE_AVX2
