#ifndef PAE_MATH_KERNELS_DETAIL_H_
#define PAE_MATH_KERNELS_DETAIL_H_

// Internal contract shared by the per-ISA kernel translation units
// (kernels.cc, kernels_sse2.cc, kernels_avx2.cc). Not part of the
// public API — include math/kernels.h instead.
//
// The determinism scheme lives here: every reduction runs over 8
// logical double lanes (element i lands in lane i % 8) and the lanes
// are combined by ReduceLanes8's fixed tree. A SIMD tier computes the
// lane partial sums in registers, spills them to a double[8], routes
// the tail through the same scalar code as the fallback, and reduces
// with the same tree — which is why avx2/sse2/scalar agree to the bit.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pae::math::kernels::detail {

/// Fixed lane-combine tree: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline double ReduceLanes8(const double* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Adds elements [i, n) of a·b into the lanes (lane i % 8) and reduces.
/// Every tier finishes its Dot through this helper.
inline double FinishDot(double* lanes, const float* a, const float* b,
                        size_t i, size_t n) {
  for (; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(a[i]) * b[i];
  }
  return ReduceLanes8(lanes);
}

/// Tail + reduce for SumSq, mirroring FinishDot.
inline double FinishSumSq(double* lanes, const float* a, size_t i, size_t n) {
  for (; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(a[i]) * a[i];
  }
  return ReduceLanes8(lanes);
}

// The row-loop kernels are the same for every tier except for which
// dot/axpy core they inline; the templates below are instantiated once
// per translation unit with that unit's core so there is no indirect
// call inside the row loop.

template <typename DotFn>
inline void MatVecImpl(const float* m, size_t rows, size_t cols,
                       const float* x, float* out, DotFn dot) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = static_cast<float>(dot(m + r * cols, x, cols));
  }
}

template <typename AxpyFn>
inline void MatTVecImpl(const float* m, size_t rows, size_t cols,
                        const float* x, float* out, AxpyFn axpy) {
  for (size_t r = 0; r < rows; ++r) {
    const float xv = x[r];
    if (xv == 0.0f) continue;  // contract: all tiers skip (signed zeros)
    axpy(xv, m + r * cols, out, cols);
  }
}

template <typename AxpyFn>
inline void AddOuterImpl(float alpha, const float* a, const float* b,
                         float* m, size_t rows, size_t cols, AxpyFn axpy) {
  for (size_t r = 0; r < rows; ++r) {
    const float av = alpha * a[r];
    if (av == 0.0f) continue;  // contract: all tiers skip
    axpy(av, b, m + r * cols, cols);
  }
}

template <typename DotFn>
inline void LstmGatePreactImpl(const float* wx, const float* wh,
                               const float* bias, const float* x,
                               const float* h_prev, size_t hidden,
                               size_t input_dim, float* pre, DotFn dot) {
  const size_t gates = 4 * hidden;
  for (size_t r = 0; r < gates; ++r) {
    pre[r] = static_cast<float>(static_cast<double>(bias[r]) +
                                dot(wx + r * input_dim, x, input_dim) +
                                dot(wh + r * hidden, h_prev, hidden));
  }
}

// ---- Batched GEMM loops ----
//
// Each tier provides a column-block micro-kernel
//   dot_cols(a, x, xd, k, out)
// computing kColBlock 8-lane dot products of one matrix row `a` against
// the kColBlock consecutive K-vectors packed at x, x+k, ... — sharing
// the converted a-row registers across columns. `xd` is the same panel
// pre-widened to double by the caller (xd[c·k + i] == double(x[c·k + i]),
// an exact conversion): the column data is reused by every row, so
// converting it once per panel removes the float→double work from the
// inner loop entirely — the shuffle-port cvt chain is what dominates
// the unbatched dot. The float panel is still passed for the FinishDot
// tail. Each column's result must be bit-equal to the tier's
// single-vector dot (same lanes, same tree, same FinishDot tail); the
// templates below then guarantee every output element of the blocked
// GEMM matches the unblocked MatVec.

/// Widens a float panel to double — exact, element-independent, so it
/// cannot perturb any downstream rounding.
inline void WidenPanel(const float* x, size_t n, double* xd) {
  for (size_t i = 0; i < n; ++i) xd[i] = static_cast<double>(x[i]);
}

/// Per-thread scratch for the widened column panel. Grows monotonically
/// and is reused across calls; thread-local so pool workers never share.
inline double* PanelScratch(size_t n) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

/// Blocked GEMM: out[b·rows + r] = float([bias[r] +] m_r·x_b).
/// Column panels are the outer loop: each kColBlock-column panel is
/// widened to double once, stays L1-resident while the whole weight
/// matrix streams over it, and the weight matrix is thus read
/// ceil(batch/kColBlock) times instead of `batch` times. Remainder
/// columns (batch % kColBlock) fall back to the tier's single-column
/// dot.
template <size_t kColBlock, typename DotFn, typename DotColsFn>
inline void MatMulImpl(const float* m, size_t rows, size_t k, const float* x,
                       size_t batch, const float* bias, float* out, DotFn dot,
                       DotColsFn dot_cols) {
  const size_t full = batch - batch % kColBlock;
  double d[kColBlock];
  double* xd = full > 0 ? PanelScratch(kColBlock * k) : nullptr;
  for (size_t b0 = 0; b0 < full; b0 += kColBlock) {
    WidenPanel(x + b0 * k, kColBlock * k, xd);
    for (size_t r = 0; r < rows; ++r) {
      dot_cols(m + r * k, x + b0 * k, xd, k, d);
      for (size_t c = 0; c < kColBlock; ++c) {
        out[(b0 + c) * rows + r] = static_cast<float>(
            bias != nullptr ? static_cast<double>(bias[r]) + d[c] : d[c]);
      }
    }
  }
  for (size_t b = full; b < batch; ++b) {
    for (size_t r = 0; r < rows; ++r) {
      const double dv = dot(m + r * k, x + b * k, k);
      out[b * rows + r] = static_cast<float>(
          bias != nullptr ? static_cast<double>(bias[r]) + dv : dv);
    }
  }
}

/// Batched MatTVec: rows outer so one weight-row load serves every batch
/// element; for a fixed b the axpy sequence is r-ascending — the same
/// order (and the same zero-skip contract) as per-vector MatTVecImpl.
template <typename AxpyFn>
inline void MatTVecBatchImpl(const float* m, size_t rows, size_t cols,
                             const float* x, size_t batch, float* out,
                             AxpyFn axpy) {
  for (size_t r = 0; r < rows; ++r) {
    const float* mr = m + r * cols;
    for (size_t b = 0; b < batch; ++b) {
      const float xv = x[b * rows + r];
      if (xv == 0.0f) continue;  // contract: all tiers skip (signed zeros)
      axpy(xv, mr, out + b * cols, cols);
    }
  }
}

/// Batched fused gate pre-activation: per column block both gate-weight
/// rows stream once for kColBlock sequences, against x/h panels widened
/// to double once per block. The per-element arithmetic —
/// float(double(bias) + dot_wx + dot_wh), left-associated, rounded
/// once — is exactly LstmGatePreactImpl's. The [4H × (D+H)] weight pair
/// is L2-resident at model sizes, so no extra row tiling here.
template <size_t kColBlock, typename DotFn, typename DotColsFn>
inline void LstmGatePreactBatchImpl(const float* wx, const float* wh,
                                    const float* bias, const float* xs,
                                    const float* hs, size_t hidden,
                                    size_t input_dim, size_t batch, float* pre,
                                    DotFn dot, DotColsFn dot_cols) {
  const size_t gates = 4 * hidden;
  const size_t full = batch - batch % kColBlock;
  double dx[kColBlock];
  double dh[kColBlock];
  double* panel =
      full > 0 ? PanelScratch(kColBlock * (input_dim + hidden)) : nullptr;
  double* xsd = panel;
  double* hsd = panel != nullptr ? panel + kColBlock * input_dim : nullptr;
  for (size_t b0 = 0; b0 < full; b0 += kColBlock) {
    WidenPanel(xs + b0 * input_dim, kColBlock * input_dim, xsd);
    WidenPanel(hs + b0 * hidden, kColBlock * hidden, hsd);
    for (size_t r = 0; r < gates; ++r) {
      dot_cols(wx + r * input_dim, xs + b0 * input_dim, xsd, input_dim, dx);
      dot_cols(wh + r * hidden, hs + b0 * hidden, hsd, hidden, dh);
      for (size_t c = 0; c < kColBlock; ++c) {
        pre[(b0 + c) * gates + r] = static_cast<float>(
            static_cast<double>(bias[r]) + dx[c] + dh[c]);
      }
    }
  }
  for (size_t b = full; b < batch; ++b) {
    LstmGatePreactImpl(wx, wh, bias, xs + b * input_dim, hs + b * hidden,
                       hidden, input_dim, pre + b * gates, dot);
  }
}

/// Function-pointer table one ISA tier exports.
struct KernelTable {
  double (*dot)(const float*, const float*, size_t);
  double (*sumsq)(const float*, size_t);
  void (*axpy)(float, const float*, float*, size_t);
  void (*scale)(float, float*, size_t);
  void (*matvec)(const float*, size_t, size_t, const float*, float*);
  void (*mattvec)(const float*, size_t, size_t, const float*, float*);
  void (*addouter)(float, const float*, const float*, float*, size_t, size_t);
  void (*gate_preact)(const float*, const float*, const float*, const float*,
                      const float*, size_t, size_t, float*);
  void (*matmul)(const float*, size_t, size_t, const float*, size_t,
                 const float*, float*);
  void (*mattvec_batch)(const float*, size_t, size_t, const float*, size_t,
                        float*);
  void (*gate_preact_batch)(const float*, const float*, const float*,
                            const float*, const float*, size_t, size_t, size_t,
                            float*);
};

extern const KernelTable kScalarTable;
#if defined(PAE_KERNELS_HAVE_SSE2)
extern const KernelTable kSse2Table;
#endif
#if defined(PAE_KERNELS_HAVE_AVX2)
extern const KernelTable kAvx2Table;
#endif

}  // namespace pae::math::kernels::detail

#endif  // PAE_MATH_KERNELS_DETAIL_H_
