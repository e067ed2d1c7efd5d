// SIMD kernel layer suite: the determinism contract (bit-identical
// results across the avx2/sse2/scalar tiers, every size class),
// correctness against naive references, dispatch/override plumbing,
// and end-to-end extraction equality between PAE_SIMD tiers at 1 and
// 8 threads (mirroring concurrency_test's thread-count arms).

#include "math/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/ingest.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "lstm/bilstm_tagger.h"
#include "support/word2vec_oracle.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pae {
namespace {

namespace kernels = math::kernels;
using kernels::Isa;

/// Every tier this host can execute, scalar first.
std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (kernels::IsaSupported(Isa::kSse2)) isas.push_back(Isa::kSse2);
  if (kernels::IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

/// Forces a tier for one scope and restores the best tier on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) { kernels::SetIsa(isa); }
  ~ScopedIsa() { kernels::SetIsa(kernels::BestSupportedIsa()); }
};

/// The adversarial size classes from the kernel contract: empty, below
/// one lane block, exactly one block, one past it, and the 4H±1 sizes
/// an LSTM gate slab produces (H = 24 → 95/96/97), plus larger odd
/// sizes that leave every possible SIMD tail length.
const size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                         31, 95, 96, 97, 128, 257};

std::vector<float> RandomVec(Rng* rng, size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->NextUniform(-scale, scale));
  return v;
}

// ---------------- bit-equality across tiers ----------------

TEST(KernelsBitEqualityTest, DotAndSumSqAllSizes) {
  Rng rng(1234);
  for (size_t n : kSizes) {
    // Mixed magnitudes make the reduction order observable: a drifting
    // tier would differ in the low mantissa bits immediately.
    std::vector<float> a = RandomVec(&rng, n, 100.0f);
    std::vector<float> b = RandomVec(&rng, n, 0.01f);
    const double dot0 = kernels::Dot(a.data(), b.data(), n);
    const double sq0 = kernels::SumSq(a.data(), n);
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      const double dot = kernels::Dot(a.data(), b.data(), n);
      const double sq = kernels::SumSq(a.data(), n);
      EXPECT_EQ(0, std::memcmp(&dot0, &dot, sizeof(double)))
          << "Dot n=" << n << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(0, std::memcmp(&sq0, &sq, sizeof(double)))
          << "SumSq n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelsBitEqualityTest, AxpyAndScaleAllSizes) {
  Rng rng(99);
  for (size_t n : kSizes) {
    const std::vector<float> x = RandomVec(&rng, n);
    const std::vector<float> y0 = RandomVec(&rng, n);
    const float alpha = 0.37f;
    std::vector<float> ref = y0;
    kernels::Axpy(alpha, x.data(), ref.data(), n);
    std::vector<float> ref_scaled = y0;
    kernels::Scale(alpha, ref_scaled.data(), n);
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<float> y = y0;
      kernels::Axpy(alpha, x.data(), y.data(), n);
      std::vector<float> s = y0;
      kernels::Scale(alpha, s.data(), n);
      if (n == 0) continue;  // data() is null for empty vectors; memcmp
                             // with a null pointer is UB even at size 0.
      EXPECT_EQ(0, std::memcmp(ref.data(), y.data(), n * sizeof(float)))
          << "Axpy n=" << n << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(0,
                std::memcmp(ref_scaled.data(), s.data(), n * sizeof(float)))
          << "Scale n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelsBitEqualityTest, MatrixKernelsAllShapes) {
  Rng rng(777);
  // Shapes chosen to hit ragged columns (SIMD tails) and the zero-skip
  // contract rows of MatTVec/AddOuter.
  const struct { size_t rows, cols; } shapes[] = {
      {1, 1}, {3, 7}, {8, 8}, {5, 9}, {12, 95}, {96, 17}, {4, 257}};
  for (const auto& shape : shapes) {
    std::vector<float> m0 = RandomVec(&rng, shape.rows * shape.cols);
    std::vector<float> x_cols = RandomVec(&rng, shape.cols);
    std::vector<float> x_rows = RandomVec(&rng, shape.rows);
    std::vector<float> b_cols = RandomVec(&rng, shape.cols);
    // Exercise the x[r] == 0 / alpha·a[r] == 0 skip in all tiers.
    if (shape.rows > 2) x_rows[1] = 0.0f;

    std::vector<float> mv_ref(shape.rows);
    kernels::MatVec(m0.data(), shape.rows, shape.cols, x_cols.data(),
                    mv_ref.data());
    std::vector<float> mtv_ref(shape.cols, 0.0f);
    kernels::MatTVec(m0.data(), shape.rows, shape.cols, x_rows.data(),
                     mtv_ref.data());
    std::vector<float> outer_ref = m0;
    kernels::AddOuter(0.25f, x_rows.data(), b_cols.data(), outer_ref.data(),
                      shape.rows, shape.cols);

    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<float> mv(shape.rows);
      kernels::MatVec(m0.data(), shape.rows, shape.cols, x_cols.data(),
                      mv.data());
      EXPECT_EQ(0, std::memcmp(mv_ref.data(), mv.data(),
                               mv.size() * sizeof(float)))
          << "MatVec " << shape.rows << "x" << shape.cols << " isa="
          << kernels::IsaName(isa);
      std::vector<float> mtv(shape.cols, 0.0f);
      kernels::MatTVec(m0.data(), shape.rows, shape.cols, x_rows.data(),
                       mtv.data());
      EXPECT_EQ(0, std::memcmp(mtv_ref.data(), mtv.data(),
                               mtv.size() * sizeof(float)))
          << "MatTVec " << shape.rows << "x" << shape.cols << " isa="
          << kernels::IsaName(isa);
      std::vector<float> outer = m0;
      kernels::AddOuter(0.25f, x_rows.data(), b_cols.data(), outer.data(),
                        shape.rows, shape.cols);
      EXPECT_EQ(0, std::memcmp(outer_ref.data(), outer.data(),
                               outer.size() * sizeof(float)))
          << "AddOuter " << shape.rows << "x" << shape.cols << " isa="
          << kernels::IsaName(isa);
    }
  }
}

TEST(KernelsBitEqualityTest, LstmStepAllHiddenSizes) {
  Rng rng(4242);
  for (size_t hidden : {1u, 7u, 8u, 24u, 25u}) {
    const size_t input_dim = 2 * hidden + 3;
    std::vector<float> wx = RandomVec(&rng, 4 * hidden * input_dim);
    std::vector<float> wh = RandomVec(&rng, 4 * hidden * hidden);
    std::vector<float> bias = RandomVec(&rng, 4 * hidden);
    std::vector<float> x = RandomVec(&rng, input_dim);
    std::vector<float> h_prev = RandomVec(&rng, hidden);
    std::vector<float> c_prev = RandomVec(&rng, hidden);

    std::vector<float> pre_ref(4 * hidden);
    kernels::LstmGatePreact(wx.data(), wh.data(), bias.data(), x.data(),
                            h_prev.data(), hidden, input_dim, pre_ref.data());
    std::vector<float> i_ref(hidden), f_ref(hidden), o_ref(hidden),
        g_ref(hidden), c_ref(hidden), h_ref(hidden);
    kernels::LstmActivateGates(pre_ref.data(), c_prev.data(), hidden,
                               i_ref.data(), f_ref.data(), o_ref.data(),
                               g_ref.data(), c_ref.data(), h_ref.data());

    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<float> pre(4 * hidden);
      kernels::LstmGatePreact(wx.data(), wh.data(), bias.data(), x.data(),
                              h_prev.data(), hidden, input_dim, pre.data());
      EXPECT_EQ(0, std::memcmp(pre_ref.data(), pre.data(),
                               pre.size() * sizeof(float)))
          << "LstmGatePreact H=" << hidden << " isa="
          << kernels::IsaName(isa);
      std::vector<float> i(hidden), f(hidden), o(hidden), g(hidden),
          c(hidden), h(hidden);
      kernels::LstmActivateGates(pre.data(), c_prev.data(), hidden, i.data(),
                                 f.data(), o.data(), g.data(), c.data(),
                                 h.data());
      EXPECT_EQ(0,
                std::memcmp(h_ref.data(), h.data(), hidden * sizeof(float)))
          << "LstmActivateGates H=" << hidden << " isa="
          << kernels::IsaName(isa);
      EXPECT_EQ(0,
                std::memcmp(c_ref.data(), c.data(), hidden * sizeof(float)))
          << "cell state H=" << hidden << " isa=" << kernels::IsaName(isa);
    }
  }
}

// ---------------- batched GEMM tier ----------------
// The batch widths cover every register-block remainder of every tier:
// scalar/avx2 block 4 (remainders 1-3), sse2 block 2 (remainder 1),
// plus widths beyond the 64-row tile boundary interplay.

TEST(KernelsBitEqualityTest, MatMulMatchesPerColumnMatVec) {
  Rng rng(31337);
  const struct { size_t rows, k; } shapes[] = {
      {1, 1}, {3, 7}, {8, 16}, {17, 31}, {96, 95}, {128, 48}};
  const size_t batches[] = {1, 2, 3, 4, 5, 8, 33};
  for (const auto& shape : shapes) {
    std::vector<float> m = RandomVec(&rng, shape.rows * shape.k);
    std::vector<float> bias = RandomVec(&rng, shape.rows);
    for (size_t batch : batches) {
      std::vector<float> x = RandomVec(&rng, batch * shape.k);
      // Reference: per-column single-vector kernels (the historical
      // B = 1 path), plus the logits bias contract float(double(b)+dot).
      std::vector<float> ref(batch * shape.rows);
      std::vector<float> ref_bias(batch * shape.rows);
      for (size_t b = 0; b < batch; ++b) {
        kernels::MatVec(m.data(), shape.rows, shape.k, x.data() + b * shape.k,
                        ref.data() + b * shape.rows);
        for (size_t r = 0; r < shape.rows; ++r) {
          ref_bias[b * shape.rows + r] = static_cast<float>(
              bias[r] + kernels::Dot(m.data() + r * shape.k,
                                     x.data() + b * shape.k, shape.k));
        }
      }
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        std::vector<float> out(batch * shape.rows, -1.0f);
        kernels::MatMul(m.data(), shape.rows, shape.k, x.data(), batch,
                        /*bias=*/nullptr, out.data());
        EXPECT_EQ(0, std::memcmp(ref.data(), out.data(),
                                 out.size() * sizeof(float)))
            << "MatMul " << shape.rows << "x" << shape.k << " B=" << batch
            << " isa=" << kernels::IsaName(isa);
        std::vector<float> out_bias(batch * shape.rows, -1.0f);
        kernels::MatMul(m.data(), shape.rows, shape.k, x.data(), batch,
                        bias.data(), out_bias.data());
        EXPECT_EQ(0, std::memcmp(ref_bias.data(), out_bias.data(),
                                 out_bias.size() * sizeof(float)))
            << "MatMul+bias " << shape.rows << "x" << shape.k << " B="
            << batch << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

TEST(KernelsBitEqualityTest, MatTVecBatchMatchesPerVectorMatTVec) {
  Rng rng(2718);
  const struct { size_t rows, cols; } shapes[] = {
      {1, 1}, {4, 9}, {96, 24}, {17, 95}};
  for (const auto& shape : shapes) {
    std::vector<float> m = RandomVec(&rng, shape.rows * shape.cols);
    for (size_t batch : {1u, 2u, 3u, 8u, 33u}) {
      std::vector<float> x = RandomVec(&rng, batch * shape.rows);
      if (shape.rows > 2) {
        // Exercise the x[r] == 0 zero-skip in a batched column.
        x[shape.rows + 1 < x.size() ? shape.rows + 1 : 0] = 0.0f;
      }
      std::vector<float> ref(batch * shape.cols, 0.0f);
      for (size_t b = 0; b < batch; ++b) {
        kernels::MatTVec(m.data(), shape.rows, shape.cols,
                         x.data() + b * shape.rows,
                         ref.data() + b * shape.cols);
      }
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        std::vector<float> out(batch * shape.cols, 0.0f);
        kernels::MatTVecBatch(m.data(), shape.rows, shape.cols, x.data(),
                              batch, out.data());
        EXPECT_EQ(0, std::memcmp(ref.data(), out.data(),
                                 out.size() * sizeof(float)))
            << "MatTVecBatch " << shape.rows << "x" << shape.cols << " B="
            << batch << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

TEST(KernelsBitEqualityTest, LstmGatePreactBatchMatchesSingle) {
  Rng rng(60221);
  for (size_t hidden : {1u, 7u, 8u, 24u}) {
    const size_t input_dim = 2 * hidden + 3;
    std::vector<float> wx = RandomVec(&rng, 4 * hidden * input_dim);
    std::vector<float> wh = RandomVec(&rng, 4 * hidden * hidden);
    std::vector<float> bias = RandomVec(&rng, 4 * hidden);
    for (size_t batch : {1u, 2u, 3u, 5u, 8u, 32u}) {
      std::vector<float> xs = RandomVec(&rng, batch * input_dim);
      std::vector<float> hs = RandomVec(&rng, batch * hidden);
      std::vector<float> ref(batch * 4 * hidden);
      for (size_t b = 0; b < batch; ++b) {
        kernels::LstmGatePreact(wx.data(), wh.data(), bias.data(),
                                xs.data() + b * input_dim,
                                hs.data() + b * hidden, hidden, input_dim,
                                ref.data() + b * 4 * hidden);
      }
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        std::vector<float> pre(batch * 4 * hidden, -1.0f);
        kernels::LstmGatePreactBatch(wx.data(), wh.data(), bias.data(),
                                     xs.data(), hs.data(), hidden, input_dim,
                                     batch, pre.data());
        EXPECT_EQ(0, std::memcmp(ref.data(), pre.data(),
                                 pre.size() * sizeof(float)))
            << "LstmGatePreactBatch H=" << hidden << " B=" << batch
            << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

// ---------------- training inner loops ----------------

TEST(KernelsBitEqualityTest, SkipGramPairMatchesPerSampleLoop) {
  // Target lists: more distinct rows than one batch holds, repeats
  // (adjacent and not), and the context alone.
  const std::vector<std::vector<int32_t>> target_lists = {
      {3, 7, 1, 9, 4, 0, 11, 5, 8, 2}, {2, 5, 2, 5, 5, 0}, {6}};
  constexpr size_t kRows = 12;
  Rng rng(4242);
  for (size_t d : kSizes) {
    if (d == 0) continue;  // memcmp of empty vectors: see above
    const std::vector<float> in0 = RandomVec(&rng, d);
    const std::vector<float> out0 = RandomVec(&rng, kRows * d, 0.5f);
    for (const std::vector<int32_t>& targets : target_lists) {
      std::vector<float> want_in = in0, want_out = out0;
      {
        ScopedIsa scoped(Isa::kScalar);
        oracle::SkipGramPairPerSample(want_in.data(), want_out.data(),
                                      targets.data(), targets.size(), 0.05f,
                                      d);
      }
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        std::vector<float> in = in0, out = out0;
        kernels::SkipGramPair(in.data(), out.data(), targets.data(),
                              targets.size(), 0.05f, d);
        EXPECT_EQ(0,
                  std::memcmp(want_in.data(), in.data(), d * sizeof(float)))
            << "SkipGramPair vin d=" << d << " targets=" << targets.size()
            << " isa=" << kernels::IsaName(isa);
        EXPECT_EQ(0, std::memcmp(want_out.data(), out.data(),
                                 out.size() * sizeof(float)))
            << "SkipGramPair vout d=" << d << " targets=" << targets.size()
            << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

TEST(KernelsBitEqualityTest, MatTMatDMatchesSerialDots) {
  // Every M column count up to two AVX2 blocks and past them, so every
  // tier's full blocks, whole groups and partial group show up; one X
  // column (a row vector) or several (CRF alpha columns), padded rows.
  Rng rng(5151);
  for (size_t rows : {0u, 1u, 2u, 3u, 4u, 5u, 15u, 25u}) {
    for (size_t cols = 1; cols <= 35; ++cols) {
      for (size_t x_cols : {1u, 3u}) {
        const size_t x_stride = x_cols + 1;
        const size_t m_stride = cols + (x_cols == 1 ? 0 : 2);
        // Magnitudes spread over 20 orders make the summation order
        // visible in the low bits.
        std::vector<double> x(rows * x_stride + 1), m(rows * m_stride + 1);
        for (double& v : x) {
          v = rng.NextGaussian() * std::pow(10.0, rng.NextInt(-10, 10));
        }
        for (double& v : m) v = rng.NextGaussian();
        const size_t n = x_cols * cols;
        std::vector<double> want(n);
        for (size_t r = 0; r < x_cols; ++r) {
          for (size_t c = 0; c < cols; ++c) {
            double s = 0;
            for (size_t k = 0; k < rows; ++k) {
              s += x[k * x_stride + r] * m[k * m_stride + c];
            }
            want[r * cols + c] = s;
          }
        }
        for (Isa isa : SupportedIsas()) {
          ScopedIsa scoped(isa);
          std::vector<double> out(n + 2, -7.0);  // 2 guard entries
          kernels::MatTMatD(x.data(), x_stride, x_cols, m.data(), m_stride,
                            rows, cols, out.data());
          EXPECT_EQ(0, std::memcmp(want.data(), out.data(),
                                   n * sizeof(double)))
              << "MatTMatD rows=" << rows << " cols=" << cols
              << " x_cols=" << x_cols << " isa=" << kernels::IsaName(isa);
          EXPECT_EQ(out[n], -7.0) << "MatTMatD wrote past its output";
          EXPECT_EQ(out[n + 1], -7.0) << "MatTMatD wrote past its output";
        }
      }
    }
  }
}

TEST(KernelsBitEqualityTest, ChainRecursionsMatchPerEntryDots) {
  // The CRF's scaled forward and backward passes, step by step with one
  // serial dot product per entry (the forward reading trans_t rows, the
  // backward trans rows), against the chain kernels at every tier.
  Rng rng(6161);
  for (size_t labels = 1; labels <= 26; ++labels) {
    for (size_t steps : {1u, 2u, 5u}) {
      const size_t L = labels;
      std::vector<double> emit(steps * L), trans(L * L), trans_t(L * L),
          start(L), end(L);
      for (double& v : emit) v = std::exp(rng.NextGaussian());
      for (double& v : trans) v = std::exp(3 * rng.NextGaussian());
      for (double& v : start) v = rng.NextDouble();
      for (double& v : end) v = rng.NextDouble();
      for (size_t i = 0; i < L; ++i) {
        for (size_t j = 0; j < L; ++j) trans_t[j * L + i] = trans[i * L + j];
      }
      auto dot = [](const double* a, const double* b, size_t n) {
        double s = 0;
        for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
        return s;
      };
      std::vector<double> want_alpha(steps * L), want_scale(steps);
      for (size_t t = 0; t < steps; ++t) {
        double* a = want_alpha.data() + t * L;
        double c = 0;
        for (size_t y = 0; y < L; ++y) {
          const double in = t == 0 ? start[y] : dot(a - L, &trans_t[y * L], L);
          a[y] = emit[t * L + y] * in;
          c += a[y];
        }
        want_scale[t] = c;
        const double inv = 1.0 / c;
        for (size_t y = 0; y < L; ++y) a[y] *= inv;
      }
      const double want_mass =
          dot(want_alpha.data() + (steps - 1) * L, end.data(), L);
      std::vector<double> want_emit = emit, want_beta(steps * L);
      for (size_t y = 0; y < L; ++y) want_beta[(steps - 1) * L + y] = end[y];
      for (size_t t = steps - 1; t > 0; --t) {
        double* q = want_emit.data() + t * L;
        const double inv = 1.0 / want_scale[t];
        for (size_t y = 0; y < L; ++y) q[y] *= want_beta[t * L + y] * inv;
        for (size_t yp = 0; yp < L; ++yp) {
          want_beta[(t - 1) * L + yp] = dot(&trans[yp * L], q, L);
        }
      }
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        std::vector<double> alpha(steps * L), scale(steps);
        const double mass =
            kernels::ChainForwardD(emit.data(), trans.data(), start.data(),
                                   end.data(), steps, L, alpha.data(),
                                   scale.data());
        std::vector<double> q = emit, beta(steps * L);
        for (size_t y = 0; y < L; ++y) beta[(steps - 1) * L + y] = end[y];
        kernels::ChainBackwardD(trans_t.data(), scale.data(), steps, L,
                                q.data(), beta.data());
        const std::string where = "L=" + std::to_string(L) +
                                  " T=" + std::to_string(steps) +
                                  " isa=" + kernels::IsaName(isa);
        EXPECT_EQ(0, std::memcmp(&want_mass, &mass, sizeof(double))) << where;
        EXPECT_EQ(want_alpha, alpha) << where;
        EXPECT_EQ(want_scale, scale) << where;
        EXPECT_EQ(want_emit, q) << where;
        EXPECT_EQ(want_beta, beta) << where;
      }
    }
  }
}

// ---------------- correctness vs naive references ----------------
// (hand-rolled loops below are the point: they are the independent
// references the kernels are validated against — allowlisted for the
// hand-rolled-kernel lint rule.)

TEST(KernelsCorrectnessTest, MatchesNaiveReferences) {
  Rng rng(5);
  for (size_t n : kSizes) {
    std::vector<float> a = RandomVec(&rng, n);
    std::vector<float> b = RandomVec(&rng, n);
    double dot_ref = 0, sq_ref = 0;
    for (size_t i = 0; i < n; ++i) {
      dot_ref += static_cast<double>(a[i]) * b[i];
      sq_ref += static_cast<double>(a[i]) * a[i];
    }
    EXPECT_NEAR(kernels::Dot(a.data(), b.data(), n), dot_ref,
                1e-10 * (1.0 + std::abs(dot_ref)))
        << "n=" << n;
    EXPECT_NEAR(kernels::SumSq(a.data(), n), sq_ref, 1e-10 * (1.0 + sq_ref))
        << "n=" << n;
  }
}

TEST(KernelsCorrectnessTest, CosineContract) {
  Rng rng(6);
  std::vector<float> a = RandomVec(&rng, 37);
  std::vector<float> b = RandomVec(&rng, 37);
  const double cos = kernels::Cosine(a.data(), b.data(), 37);
  EXPECT_GE(cos, -1.0 - 1e-9);
  EXPECT_LE(cos, 1.0 + 1e-9);
  EXPECT_NEAR(kernels::Cosine(a.data(), a.data(), 37), 1.0, 1e-9);
  // Zero vectors: cosine is defined to be 0, never NaN.
  std::vector<float> zero(37, 0.0f);
  EXPECT_EQ(kernels::Cosine(zero.data(), a.data(), 37), 0.0);
  EXPECT_EQ(kernels::CosineFromNorms(1.0, 0.0, 2.0), 0.0);
}

// ---------------- dispatch plumbing ----------------

TEST(KernelsDispatchTest, ParseAndNameRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    Isa parsed;
    ASSERT_TRUE(kernels::ParseIsa(kernels::IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed;
  EXPECT_FALSE(kernels::ParseIsa("avx512", &parsed));
  EXPECT_FALSE(kernels::ParseIsa("", &parsed));
}

TEST(KernelsDispatchTest, SetIsaSwitchesActiveTier) {
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    EXPECT_EQ(kernels::ActiveIsa(), isa);
  }
  EXPECT_EQ(kernels::ActiveIsa(), kernels::BestSupportedIsa());
}

TEST(KernelsDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernels::IsaSupported(Isa::kScalar));
  EXPECT_TRUE(kernels::IsaSupported(kernels::BestSupportedIsa()));
}

TEST(KernelsDispatchTest, RecordSimdMetricsExportsGauges) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  metrics.Reset();
  kernels::RecordSimdMetrics();
  const util::RunReport report = metrics.Snapshot();
  const Isa isa = kernels::ActiveIsa();
  ASSERT_TRUE(report.gauges.count("math.simd.isa_level"));
  EXPECT_EQ(report.gauges.at("math.simd.isa_level"),
            static_cast<double>(static_cast<int>(isa)));
  const std::string flag = std::string("math.simd.isa.") +
                           kernels::IsaName(isa);
  ASSERT_TRUE(report.gauges.count(flag));
  EXPECT_EQ(report.gauges.at(flag), 1.0);
  metrics.Reset();
}

// ---------------- end-to-end extraction equality ----------------

core::ProcessedCorpus MakeCorpus() {
  datagen::GeneratorConfig config;
  config.num_products = 40;
  config.seed = 11;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, config);
  return core::IngestCorpus(category.corpus, {1}).corpus;
}

core::PipelineConfig SmallConfig(int threads) {
  core::PipelineConfig config;
  config.model = core::ModelType::kCrf;
  config.iterations = 2;
  config.crf.max_iterations = 20;
  config.seed = 7;
  config.threads = threads;
  config.train_final_model = true;
  return config;
}

/// The whole bootstrap (CRF tagging + word2vec-driven semantic
/// cleaning) must produce byte-identical output whichever SIMD tier the
/// kernels dispatch to, at 1 and at 8 threads — the in-process
/// equivalent of running the binary under PAE_SIMD=scalar vs default.
TEST(KernelsEndToEndTest, PipelineByteIdenticalAcrossIsas) {
  const core::ProcessedCorpus corpus = MakeCorpus();
  for (int threads : {1, 8}) {
    auto run_with = [&](Isa isa) {
      ScopedIsa scoped(isa);
      core::Pipeline pipeline(SmallConfig(threads));
      auto result = pipeline.Run(corpus);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return std::move(result).value();
    };
    const core::PipelineResult base = run_with(kernels::BestSupportedIsa());
    for (Isa isa : SupportedIsas()) {
      const core::PipelineResult other = run_with(isa);
      EXPECT_EQ(base.seed_triples, other.seed_triples)
          << "threads=" << threads << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(base.final_triples(), other.final_triples())
          << "threads=" << threads << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(base.known_pair_keys, other.known_pair_keys)
          << "threads=" << threads << " isa=" << kernels::IsaName(isa);
      auto* crf_a = dynamic_cast<crf::CrfTagger*>(base.final_tagger.get());
      auto* crf_b = dynamic_cast<crf::CrfTagger*>(other.final_tagger.get());
      ASSERT_NE(crf_a, nullptr);
      ASSERT_NE(crf_b, nullptr);
      const std::vector<double>& wa = crf_a->weights();
      const std::vector<double>& wb = crf_b->weights();
      ASSERT_EQ(wa.size(), wb.size());
      ASSERT_FALSE(wa.empty());
      EXPECT_EQ(0,
                std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)))
          << "threads=" << threads << " isa=" << kernels::IsaName(isa);
    }
  }
}

/// The BiLSTM is the heaviest kernel consumer (fused gate MatVec per
/// timestep); training + prediction must not depend on the tier either.
TEST(KernelsEndToEndTest, BilstmTrainingIdenticalAcrossIsas) {
  Rng rng(3);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < 30; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"重量", "は", v, "kg", "です"};
    seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
    seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
    data.push_back(std::move(seq));
  }
  auto train_with = [&](Isa isa) {
    ScopedIsa scoped(isa);
    lstm::BiLstmOptions options;
    options.epochs = 3;
    options.seed = 17;
    lstm::BiLstmTagger tagger(options);
    EXPECT_TRUE(tagger.Train(data).ok());
    std::vector<std::string> all_labels;
    for (const auto& seq : data) {
      for (const std::string& label : tagger.Predict(seq)) {
        all_labels.push_back(label);
      }
    }
    return std::make_pair(tagger.epoch_losses(), all_labels);
  };
  const auto base = train_with(kernels::BestSupportedIsa());
  for (Isa isa : SupportedIsas()) {
    const auto other = train_with(isa);
    ASSERT_EQ(base.first.size(), other.first.size());
    for (size_t e = 0; e < base.first.size(); ++e) {
      EXPECT_EQ(0, std::memcmp(&base.first[e], &other.first[e],
                               sizeof(double)))
          << "epoch " << e << " isa=" << kernels::IsaName(isa);
    }
    EXPECT_EQ(base.second, other.second) << kernels::IsaName(isa);
  }
}

}  // namespace
}  // namespace pae
