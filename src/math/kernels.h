#ifndef PAE_MATH_KERNELS_H_
#define PAE_MATH_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <string_view>

namespace pae::math::kernels {

/// Instruction-set tiers of the dense float kernels. Higher tiers are
/// strictly faster, never different: every kernel reduces over the same
/// 8 logical lanes in the same fixed tree order, so the results are
/// bit-identical across tiers (kernels_test asserts it). Dispatch picks
/// the best supported tier once per process; `PAE_SIMD=avx2|sse2|scalar`
/// overrides it (requests above the hardware fall back with a warning).
enum class Isa {
  kScalar = 0,  // portable C++, 8-lane emulation
  kSse2 = 1,    // 128-bit SSE2 (x86-64 baseline)
  kAvx2 = 2,    // 256-bit AVX2 (requires AVX2+FMA cpuid and OS ymm state)
};

/// Best tier the CPU and OS support (cpuid + xgetbv probe, cached).
Isa BestSupportedIsa();

/// True when `isa` can execute on this machine.
bool IsaSupported(Isa isa);

/// The tier the kernels currently dispatch to. Resolved on first use:
/// the PAE_SIMD override if set and supported, else BestSupportedIsa().
Isa ActiveIsa();

/// Forces dispatch to `isa` (testing/benchmarks; PAE_CHECKs support).
void SetIsa(Isa isa);

/// "scalar", "sse2", or "avx2".
const char* IsaName(Isa isa);

/// Parses an ISA name as accepted by PAE_SIMD. Returns false on junk.
bool ParseIsa(std::string_view name, Isa* out);

/// Records the dispatch decision into the global MetricsRegistry:
///   gauge math.simd.isa_level        0|1|2 (kScalar|kSse2|kAvx2)
///   gauge math.simd.isa.<name>       1 for the active tier
/// Call right before snapshotting a run report; gauges set at startup
/// would not survive a MetricsRegistry::Reset().
void RecordSimdMetrics();

// ---------------------------------------------------------------------
// Reductions. All of them accumulate in 8 logical double lanes (element
// i contributes to lane i % 8) and combine the lanes in one fixed tree:
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The AVX2 tier holds the lanes
// in two 4-wide double registers, the SSE2 tier in four 2-wide ones,
// the scalar tier in a plain array — same arithmetic, same bits.
// ---------------------------------------------------------------------

/// Σ a[i]·b[i], accumulated in double.
double Dot(const float* a, const float* b, size_t n);

/// Σ a[i]², accumulated in double.
double SumSq(const float* a, size_t n);

/// Euclidean norm: sqrt(SumSq).
inline double Norm2(const float* a, size_t n) { return std::sqrt(SumSq(a, n)); }

/// Cosine from a precomputed dot product and the two Euclidean norms;
/// 0 when either vector is (near) zero. The single place where the
/// repo's two historical cosine contracts (math::CosineSimilarity and
/// Word2Vec::Cosine) now meet.
inline double CosineFromNorms(double dot, double norm_a, double norm_b) {
  if (norm_a < 1e-12 || norm_b < 1e-12) return 0.0;
  return dot / (norm_a * norm_b);
}

/// Cosine similarity of two raw vectors (norms computed here).
inline double Cosine(const float* a, const float* b, size_t n) {
  return CosineFromNorms(Dot(a, b, n), Norm2(a, n), Norm2(b, n));
}

// ---------------------------------------------------------------------
// Element-wise kernels. Each output element depends on exactly one
// input element, so vector width cannot reorder anything; bit-equality
// across tiers only needs fused-multiply-add contraction disabled
// (the kernel translation units compile with -ffp-contract=off).
// ---------------------------------------------------------------------

/// y[i] += alpha · x[i].
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x[i] *= alpha.
void Scale(float alpha, float* x, size_t n);

/// Same contract as Axpy under the Matrix naming: y += alpha · x.
inline void AddScaled(float alpha, const float* x, float* y, size_t n) {
  Axpy(alpha, x, y, n);
}

// ---------------------------------------------------------------------
// Matrix kernels over row-major storage.
// ---------------------------------------------------------------------

/// out[r] = Σ_c m[r,c]·x[c]  (per-row 8-lane Dot, narrowed to float).
void MatVec(const float* m, size_t rows, size_t cols, const float* x,
            float* out);

/// out[c] += x[r]·m[r,c] for each r in order, skipping x[r] == 0 rows
/// (the skip is part of the contract: every tier takes it, so signed
/// zeros agree). `out` must be zeroed by the caller.
void MatTVec(const float* m, size_t rows, size_t cols, const float* x,
             float* out);

/// m[r,c] += alpha·a[r]·b[c], skipping alpha·a[r] == 0 rows.
void AddOuter(float alpha, const float* a, const float* b, float* m,
              size_t rows, size_t cols);

// ---------------------------------------------------------------------
// Batched GEMM tier. `x` packs `batch` contiguous K-vectors row-major
// ([batch × k]); `out` is row-major [batch × rows] so each batch
// element's result vector stays contiguous. Every output element is
// computed with the exact fixed-8-lane Dot above — blocking and cache
// tiling only reorder *which* element is computed when, never the
// arithmetic inside one element — so MatMul is bit-identical to `batch`
// MatVec calls at every tier, tile size and batch width.
// ---------------------------------------------------------------------

/// out[b·rows + r] = float(bias[r] + m_row_r · x_b)   (bias != nullptr)
///                 = float(m_row_r · x_b)             (bias == nullptr)
/// The biased form rounds once, matching the fused LstmGatePreact and
/// the tagger's output-layer contract (double bias + double dot).
void MatMul(const float* m, size_t rows, size_t k, const float* x,
            size_t batch, const float* bias, float* out);

/// Batched MatTVec: out_b[c] += x_b[r]·m[r,c] for each r ascending, with
/// the same x_b[r] == 0 row skip. `x` is [batch × rows], `out` is
/// [batch × cols] (caller zeroes). Rows are the outer loop so one
/// weight-row load serves every batch element; per element the axpy
/// order is r-ascending — identical to per-vector MatTVec.
void MatTVecBatch(const float* m, size_t rows, size_t cols, const float* x,
                  size_t batch, float* out);

// ---------------------------------------------------------------------
// Fused LSTM step kernels.
// ---------------------------------------------------------------------

/// Gate pre-activations for one timestep over the packed [4H × D] /
/// [4H × H] weight blocks:
///   pre[r] = float(b[r] + wx_row_r · x + wh_row_r · h_prev)
/// One fused pass instead of MatVec + bias + second accumulation — and
/// one float rounding instead of two.
void LstmGatePreact(const float* wx, const float* wh, const float* b,
                    const float* x, const float* h_prev, size_t hidden,
                    size_t input_dim, float* pre);

/// Batched LstmGatePreact over B sequences at one timestep: one
/// [4H×D]·[D×B] + [4H×H]·[H×B] GEMM pair per gate block.
///   pre[b·4H + r] = float(b[r] + wx_row_r · x_b + wh_row_r · h_prev_b)
/// `xs` is [batch × input_dim], `hs` is [batch × hidden], `pre` is
/// [batch × 4H]. Bit-identical to `batch` LstmGatePreact calls (same
/// per-element 8-lane dots, same single rounding).
void LstmGatePreactBatch(const float* wx, const float* wh, const float* b,
                         const float* xs, const float* hs, size_t hidden,
                         size_t input_dim, size_t batch, float* pre);

/// Fused gate activation for one timestep. Gate order in `pre` is
/// [i; f; o; g] (4H entries). Writes the four gate activations, the new
/// cell state and the hidden state. The sigmoid/tanh transcendentals
/// come from libm in every tier — they are not dispatched, which is
/// what keeps them bit-identical across ISAs.
void LstmActivateGates(const float* pre, const float* c_prev, size_t hidden,
                       float* i, float* f, float* o, float* g, float* c,
                       float* h);

}  // namespace pae::math::kernels

#endif  // PAE_MATH_KERNELS_H_
