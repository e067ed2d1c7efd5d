// Runtime dispatch and scalar fallback for the SIMD kernel layer. This
// translation unit (like its SSE2/AVX2 siblings) is compiled with
// -ffp-contract=off: a contracted fused multiply-add rounds once where
// mul+add rounds twice, and any tier allowed to contract would drift
// from the others bit-wise. That is also why the AVX2 tier gates on the
// FMA cpuid bit but never emits FMA arithmetic — the bit identifies the
// hardware generation, the determinism contract forbids the fusion.

#include "math/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "math/kernels_detail.h"
#include "util/logging.h"
#include "util/metrics.h"

#if defined(PAE_KERNELS_HAVE_SSE2) || defined(PAE_KERNELS_HAVE_AVX2)
#include <cpuid.h>
#endif

namespace pae::math::kernels {

namespace {

using detail::KernelTable;

// ---- scalar tier: the 8-lane reference every SIMD tier must match ----

double DotScalar(const float* a, const float* b, size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      lanes[k] += static_cast<double>(a[i + k]) * b[i + k];
    }
  }
  return detail::FinishDot(lanes, a, b, i, n);
}

double SumSqScalar(const float* a, size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      lanes[k] += static_cast<double>(a[i + k]) * a[i + k];
    }
  }
  return detail::FinishSumSq(lanes, a, i, n);
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void MatVecScalar(const float* m, size_t rows, size_t cols, const float* x,
                  float* out) {
  detail::MatVecImpl(m, rows, cols, x, out, DotScalar);
}

void MatTVecScalar(const float* m, size_t rows, size_t cols, const float* x,
                   float* out) {
  detail::MatTVecImpl(m, rows, cols, x, out, AxpyScalar);
}

void AddOuterScalar(float alpha, const float* a, const float* b, float* m,
                    size_t rows, size_t cols) {
  detail::AddOuterImpl(alpha, a, b, m, rows, cols, AxpyScalar);
}

void LstmGatePreactScalar(const float* wx, const float* wh, const float* bias,
                          const float* x, const float* h_prev, size_t hidden,
                          size_t input_dim, float* pre) {
  detail::LstmGatePreactImpl(wx, wh, bias, x, h_prev, hidden, input_dim, pre,
                             DotScalar);
}

/// Column-block micro-kernel: four 8-lane dots of one row against the
/// four K-vectors at x, x+k, x+2k, x+3k, sharing one pass over the row
/// and reading the pre-widened panel `xd` (same values as x — see
/// kernels_detail.h). Per column the lane arithmetic is exactly
/// DotScalar's.
void DotCols4Scalar(const float* a, const float* x, const double* xd,
                    size_t k, double* out) {
  double lanes[4][8] = {};
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const double av = static_cast<double>(a[i + j]);
      lanes[0][j] += av * xd[i + j];
      lanes[1][j] += av * xd[k + i + j];
      lanes[2][j] += av * xd[2 * k + i + j];
      lanes[3][j] += av * xd[3 * k + i + j];
    }
  }
  for (size_t c = 0; c < 4; ++c) {
    out[c] = detail::FinishDot(lanes[c], a, x + c * k, i, k);
  }
}

void MatMulScalar(const float* m, size_t rows, size_t k, const float* x,
                  size_t batch, const float* bias, float* out) {
  detail::MatMulImpl<4>(m, rows, k, x, batch, bias, out, DotScalar,
                        DotCols4Scalar);
}

void MatTVecBatchScalar(const float* m, size_t rows, size_t cols,
                        const float* x, size_t batch, float* out) {
  detail::MatTVecBatchImpl(m, rows, cols, x, batch, out, AxpyScalar);
}

void LstmGatePreactBatchScalar(const float* wx, const float* wh,
                               const float* bias, const float* xs,
                               const float* hs, size_t hidden,
                               size_t input_dim, size_t batch, float* pre) {
  detail::LstmGatePreactBatchImpl<4>(wx, wh, bias, xs, hs, hidden, input_dim,
                                     batch, pre, DotScalar, DotCols4Scalar);
}

void PairPrepareScalar(const float* vin, size_t n, double* vin_wide,
                       float* grad) {
  for (size_t i = 0; i < n; ++i) {
    vin_wide[i] = static_cast<double>(vin[i]);
    grad[i] = 0.0f;
  }
}

double DotWideScalar(const double* a, const float* b, size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      lanes[k] += a[i + k] * static_cast<double>(b[i + k]);
    }
  }
  return detail::FinishDotWide(lanes, a, b, i, n);
}

void PairUpdateScalar(float g, float* vout, const float* vin, float* grad,
                      size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float o = vout[i];
    grad[i] += g * o;
    vout[i] = o + g * vin[i];
  }
}

void SkipGramPairScalar(float* vin, float* out, const int32_t* targets,
                        size_t num_targets, float lr, size_t d) {
  detail::SkipGramPairImpl(vin, out, targets, num_targets, lr, d,
                           PairPrepareScalar, DotWideScalar, PairUpdateScalar,
                           AxpyScalar);
}

/// One column of X against M, four columns of M per pass over the
/// rows: four independent sum chains, each in ascending k.
void VecMatDScalar(const double* x, size_t x_stride, const double* m,
                   size_t m_stride, size_t rows, size_t cols, double* out) {
  size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (size_t k = 0; k < rows; ++k) {
      const double xv = x[k * x_stride];
      const double* mk = m + k * m_stride + c;
      s0 += xv * mk[0];
      s1 += xv * mk[1];
      s2 += xv * mk[2];
      s3 += xv * mk[3];
    }
    out[c] = s0;
    out[c + 1] = s1;
    out[c + 2] = s2;
    out[c + 3] = s3;
  }
  for (; c < cols; ++c) {
    double s = 0;
    for (size_t k = 0; k < rows; ++k) {
      s += x[k * x_stride] * m[k * m_stride + c];
    }
    out[c] = s;
  }
}

void MatTMatDScalar(const double* x, size_t x_stride, size_t x_cols,
                    const double* m, size_t m_stride, size_t rows, size_t cols,
                    double* out) {
  for (size_t r = 0; r < x_cols; ++r) {
    VecMatDScalar(x + r, x_stride, m, m_stride, rows, cols, out + r * cols);
  }
}

double ChainForwardDScalar(const double* emit, const double* trans,
                           const double* start, const double* end,
                           size_t steps, size_t labels, double* alpha,
                           double* scale) {
  return detail::ChainForwardImpl(emit, trans, start, end, steps, labels,
                                  alpha, scale, VecMatDScalar);
}

void ChainBackwardDScalar(const double* trans_t, const double* scale,
                          size_t steps, size_t labels, double* emit,
                          double* beta) {
  detail::ChainBackwardImpl(trans_t, scale, steps, labels, emit, beta,
                            VecMatDScalar);
}

// ---- cpuid feature probe ----

#if defined(PAE_KERNELS_HAVE_AVX2)
uint64_t Xgetbv0() {
  uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

bool CpuHasAvx2Fma() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return false;
  // OS must save/restore the ymm state (XCR0 xmm|ymm bits).
  if ((Xgetbv0() & 0x6) != 0x6) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 5)) != 0;  // AVX2
}
#endif

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
#if defined(PAE_KERNELS_HAVE_AVX2)
    case Isa::kAvx2:
      return &detail::kAvx2Table;
#endif
#if defined(PAE_KERNELS_HAVE_SSE2)
    case Isa::kSse2:
      return &detail::kSse2Table;
#endif
    default:
      return &detail::kScalarTable;
  }
}

struct Dispatch {
  const KernelTable* table;
  Isa isa;
};

/// Static per-tier dispatch records; tiers compiled out fall back to
/// the scalar table (unreachable through SetIsa, which gates on
/// IsaSupported).
const Dispatch* DispatchFor(Isa isa) {
  static const Dispatch tiers[3] = {
      {TableFor(Isa::kScalar), Isa::kScalar},
      {TableFor(Isa::kSse2), Isa::kSse2},
      {TableFor(Isa::kAvx2), Isa::kAvx2},
  };
  return &tiers[static_cast<int>(isa)];
}

Isa ResolveIsa() {
  Isa isa = BestSupportedIsa();
  // Read once, before any worker thread exists (this runs under the
  // dispatch-table initializer), so getenv cannot race a setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PAE_SIMD")) {
    Isa requested;
    if (!ParseIsa(env, &requested)) {
      PAE_LOG(WARNING) << "PAE_SIMD='" << env
                       << "' is not avx2|sse2|scalar; using "
                       << IsaName(isa);
    } else if (!IsaSupported(requested)) {
      PAE_LOG(WARNING) << "PAE_SIMD=" << IsaName(requested)
                       << " unsupported on this host; using " << IsaName(isa);
    } else {
      isa = requested;
    }
  }
  return isa;
}

std::atomic<const Dispatch*> g_dispatch{nullptr};

const Dispatch& ActiveDispatch() {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d == nullptr) {
    // Benign race: ResolveIsa is deterministic, so concurrent first
    // calls store the same static record.
    d = DispatchFor(ResolveIsa());
    g_dispatch.store(d, std::memory_order_release);
  }
  return *d;
}

}  // namespace

namespace detail {
const KernelTable kScalarTable = {
    DotScalar, SumSqScalar, AxpyScalar, ScaleScalar, MatVecScalar,
    MatTVecScalar, AddOuterScalar, LstmGatePreactScalar, MatMulScalar,
    MatTVecBatchScalar, LstmGatePreactBatchScalar, SkipGramPairScalar,
    MatTMatDScalar, ChainForwardDScalar, ChainBackwardDScalar,
};
}  // namespace detail

Isa BestSupportedIsa() {
#if defined(PAE_KERNELS_HAVE_AVX2)
  static const bool avx2 = CpuHasAvx2Fma();
  if (avx2) return Isa::kAvx2;
#endif
#if defined(PAE_KERNELS_HAVE_SSE2)
  return Isa::kSse2;  // x86-64 baseline
#else
  return Isa::kScalar;
#endif
}

bool IsaSupported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(BestSupportedIsa());
}

Isa ActiveIsa() { return ActiveDispatch().isa; }

void SetIsa(Isa isa) {
  PAE_CHECK(IsaSupported(isa))
      << "SetIsa(" << IsaName(isa) << ") unsupported on this host";
  g_dispatch.store(DispatchFor(isa), std::memory_order_release);
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    default:
      return "scalar";
  }
}

bool ParseIsa(std::string_view name, Isa* out) {
  if (name == "avx2") {
    *out = Isa::kAvx2;
  } else if (name == "sse2") {
    *out = Isa::kSse2;
  } else if (name == "scalar") {
    *out = Isa::kScalar;
  } else {
    return false;
  }
  return true;
}

void RecordSimdMetrics() {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  const Isa isa = ActiveIsa();
  metrics.GetGauge("math.simd.isa_level")
      ->Set(static_cast<double>(static_cast<int>(isa)));
  metrics.GetGauge(std::string("math.simd.isa.") + IsaName(isa))->Set(1.0);
}

double Dot(const float* a, const float* b, size_t n) {
  return ActiveDispatch().table->dot(a, b, n);
}

double SumSq(const float* a, size_t n) {
  return ActiveDispatch().table->sumsq(a, n);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  ActiveDispatch().table->axpy(alpha, x, y, n);
}

void Scale(float alpha, float* x, size_t n) {
  ActiveDispatch().table->scale(alpha, x, n);
}

void MatVec(const float* m, size_t rows, size_t cols, const float* x,
            float* out) {
  ActiveDispatch().table->matvec(m, rows, cols, x, out);
}

void MatTVec(const float* m, size_t rows, size_t cols, const float* x,
             float* out) {
  ActiveDispatch().table->mattvec(m, rows, cols, x, out);
}

void AddOuter(float alpha, const float* a, const float* b, float* m,
              size_t rows, size_t cols) {
  ActiveDispatch().table->addouter(alpha, a, b, m, rows, cols);
}

void LstmGatePreact(const float* wx, const float* wh, const float* b,
                    const float* x, const float* h_prev, size_t hidden,
                    size_t input_dim, float* pre) {
  ActiveDispatch().table->gate_preact(wx, wh, b, x, h_prev, hidden, input_dim,
                                      pre);
}

void MatMul(const float* m, size_t rows, size_t k, const float* x,
            size_t batch, const float* bias, float* out) {
  ActiveDispatch().table->matmul(m, rows, k, x, batch, bias, out);
}

void MatTVecBatch(const float* m, size_t rows, size_t cols, const float* x,
                  size_t batch, float* out) {
  ActiveDispatch().table->mattvec_batch(m, rows, cols, x, batch, out);
}

void LstmGatePreactBatch(const float* wx, const float* wh, const float* b,
                         const float* xs, const float* hs, size_t hidden,
                         size_t input_dim, size_t batch, float* pre) {
  ActiveDispatch().table->gate_preact_batch(wx, wh, b, xs, hs, hidden,
                                            input_dim, batch, pre);
}

void SkipGramPair(float* vin, float* out, const int32_t* targets,
                  size_t num_targets, float lr, size_t d) {
  ActiveDispatch().table->skipgram_pair(vin, out, targets, num_targets, lr, d);
}

void MatTMatD(const double* x, size_t x_stride, size_t x_cols,
              const double* m, size_t m_stride, size_t rows, size_t cols,
              double* out) {
  ActiveDispatch().table->mattmat_d(x, x_stride, x_cols, m, m_stride, rows,
                                    cols, out);
}

double ChainForwardD(const double* emit, const double* trans,
                     const double* start, const double* end, size_t steps,
                     size_t labels, double* alpha, double* scale) {
  return ActiveDispatch().table->chain_forward_d(emit, trans, start, end,
                                                 steps, labels, alpha, scale);
}

void ChainBackwardD(const double* trans_t, const double* scale, size_t steps,
                    size_t labels, double* emit, double* beta) {
  ActiveDispatch().table->chain_backward_d(trans_t, scale, steps, labels,
                                           emit, beta);
}

void LstmActivateGates(const float* pre, const float* c_prev, size_t hidden,
                       float* i, float* f, float* o, float* g, float* c,
                       float* h) {
  // One fused pass over the four gate slabs: better locality than four
  // separate loops, and libm sigmoid/tanh in every tier keeps the
  // transcendentals bit-identical across ISAs.
  for (size_t k = 0; k < hidden; ++k) {
    const float ik = 1.0f / (1.0f + std::exp(-pre[k]));
    const float fk = 1.0f / (1.0f + std::exp(-pre[hidden + k]));
    const float ok = 1.0f / (1.0f + std::exp(-pre[2 * hidden + k]));
    const float gk = std::tanh(pre[3 * hidden + k]);
    const float cp = (c_prev != nullptr) ? c_prev[k] : 0.0f;
    const float ck = fk * cp + ik * gk;
    i[k] = ik;
    f[k] = fk;
    o[k] = ok;
    g[k] = gk;
    c[k] = ck;
    h[k] = ok * std::tanh(ck);
  }
}

}  // namespace pae::math::kernels
