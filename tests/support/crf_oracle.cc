#include "support/crf_oracle.h"

#include <algorithm>
#include <cmath>

#include "math/vec.h"

namespace pae::oracle {

namespace {

/// Σ a[i*stride] * b[i*stride] over i < n, in index order.
double DotD(const double* a, const double* b, size_t n, size_t stride = 1) {
  double s = 0;
  for (size_t i = 0; i < n; ++i) s += a[i * stride] * b[i * stride];
  return s;
}

/// out[i] = exp(x[i] − max x) for i < n; returns max x.
double ExpShifted(const double* x, size_t n, double* out) {
  double m = x[0];
  for (size_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  for (size_t i = 0; i < n; ++i) out[i] = std::exp(x[i] - m);
  return m;
}

}  // namespace

double LogSpaceSequenceNll(const crf::CrfModel& model,
                           const crf::CompiledSequence& seq,
                           std::span<const double> w,
                           std::vector<double>* grad) {
  const size_t L = model.num_labels();
  const size_t T = seq.length();
  const size_t trans_base = model.num_features() * L;
  const double* trans = w.data() + trans_base;
  const double* start = trans + L * L;
  const double* end = start + L;
  double* g_trans = grad->data() + trans_base;
  double* g_start = g_trans + L * L;
  double* g_end = g_start + L;

  std::vector<double> scores;
  model.UnigramScores(seq, w, &scores);
  std::vector<double> alpha(T * L), beta(T * L), tmp(L);

  // Forward.
  for (size_t y = 0; y < L; ++y) alpha[y] = start[y] + scores[y];
  for (size_t t = 1; t < T; ++t) {
    for (size_t y = 0; y < L; ++y) {
      for (size_t yp = 0; yp < L; ++yp) {
        tmp[yp] = alpha[(t - 1) * L + yp] + trans[yp * L + y];
      }
      alpha[t * L + y] = math::LogSumExp(tmp) + scores[t * L + y];
    }
  }
  // Backward.
  for (size_t y = 0; y < L; ++y) beta[(T - 1) * L + y] = end[y];
  for (size_t t = T - 1; t > 0; --t) {
    for (size_t yp = 0; yp < L; ++yp) {
      for (size_t y = 0; y < L; ++y) {
        tmp[y] = trans[yp * L + y] + scores[t * L + y] + beta[t * L + y];
      }
      beta[(t - 1) * L + yp] = math::LogSumExp(tmp);
    }
  }
  for (size_t y = 0; y < L; ++y) tmp[y] = alpha[(T - 1) * L + y] + end[y];
  const double log_z = math::LogSumExp(tmp);

  // Gold score and empirical counts (subtracted from gradient).
  double gold = start[static_cast<size_t>(seq.labels[0])];
  for (size_t t = 0; t < T; ++t) {
    const size_t y = static_cast<size_t>(seq.labels[t]);
    gold += scores[t * L + y];
    for (int f : seq.features[t]) {
      (*grad)[static_cast<size_t>(f) * L + y] -= 1.0;
    }
    if (t > 0) {
      const size_t yp = static_cast<size_t>(seq.labels[t - 1]);
      g_trans[yp * L + y] -= 1.0;
      gold += trans[yp * L + y];
    }
  }
  gold += end[static_cast<size_t>(seq.labels[T - 1])];
  g_start[static_cast<size_t>(seq.labels[0])] -= 1.0;
  g_end[static_cast<size_t>(seq.labels[T - 1])] -= 1.0;

  // Expected counts (added to gradient).
  std::vector<double> marg(L);
  for (size_t t = 0; t < T; ++t) {
    for (size_t y = 0; y < L; ++y) {
      marg[y] = std::exp(alpha[t * L + y] + beta[t * L + y] - log_z);
    }
    for (int f : seq.features[t]) {
      double* gf = grad->data() + static_cast<size_t>(f) * L;
      for (size_t y = 0; y < L; ++y) gf[y] += marg[y];
    }
    if (t == 0) {
      for (size_t y = 0; y < L; ++y) g_start[y] += marg[y];
    }
    if (t == T - 1) {
      for (size_t y = 0; y < L; ++y) g_end[y] += marg[y];
    }
  }
  // Pairwise expectations for transitions.
  for (size_t t = 1; t < T; ++t) {
    for (size_t yp = 0; yp < L; ++yp) {
      const double a = alpha[(t - 1) * L + yp];
      for (size_t y = 0; y < L; ++y) {
        g_trans[yp * L + y] += std::exp(a + trans[yp * L + y] +
                                        scores[t * L + y] + beta[t * L + y] -
                                        log_z);
      }
    }
  }
  return log_z - gold;
}

double DotScaledSequenceNll(const crf::CrfModel& model,
                            const crf::CompiledSequence& seq,
                            std::span<const double> w,
                            const crf::ScaledPotentials& potentials,
                            std::vector<double>* grad) {
  const size_t L = model.num_labels();
  const size_t T = seq.length();
  const size_t trans_base = model.num_features() * L;
  const double* trans = w.data() + trans_base;
  const double* start = trans + L * L;
  const double* end = start + L;
  double* g_trans = grad->data() + trans_base;
  double* g_start = g_trans + L * L;
  double* g_end = g_start + L;

  std::vector<double> scores_v;
  model.UnigramScores(seq, w, &scores_v);
  std::vector<double> emit_v(T * L), alpha_v(T * L), beta_v(T * L),
      scale(T);
  const double* scores = scores_v.data();
  double* emit = emit_v.data();
  double* alpha = alpha_v.data();
  double* beta = beta_v.data();
  const double* exp_trans = potentials.trans.data();
  const double* exp_trans_t = potentials.trans_t.data();
  const double* exp_start = potentials.start.data();
  const double* exp_end = potentials.end.data();

  double log_z = potentials.max_trans * static_cast<double>(T - 1) +
                 potentials.max_start + potentials.max_end;
  for (size_t t = 0; t < T; ++t) {
    double* a = alpha + t * L;
    double* e = emit + t * L;
    log_z += ExpShifted(scores + t * L, L, e);
    double c = 0;
    for (size_t y = 0; y < L; ++y) {
      const double in =
          t == 0 ? exp_start[y] : DotD(a - L, exp_trans_t + y * L, L);
      a[y] = e[y] * in;
      c += a[y];
    }
    scale[t] = c;
    log_z += std::log(c);
    const double inv = 1.0 / c;
    for (size_t y = 0; y < L; ++y) a[y] *= inv;
  }
  const double end_mass = DotD(alpha + (T - 1) * L, exp_end, L);
  log_z += std::log(end_mass);
  for (size_t y = 0; y < L; ++y) {
    beta[(T - 1) * L + y] = exp_end[y] / end_mass;
  }
  for (size_t t = T - 1; t > 0; --t) {
    double* q = emit + t * L;
    const double inv = 1.0 / scale[t];
    for (size_t y = 0; y < L; ++y) q[y] *= beta[t * L + y] * inv;
    for (size_t yp = 0; yp < L; ++yp) {
      beta[(t - 1) * L + yp] = DotD(exp_trans + yp * L, q, L);
    }
  }

  double gold = start[static_cast<size_t>(seq.labels[0])];
  for (size_t t = 0; t < T; ++t) {
    const size_t y = static_cast<size_t>(seq.labels[t]);
    gold += scores[t * L + y];
    for (int f : seq.features[t]) {
      (*grad)[static_cast<size_t>(f) * L + y] -= 1.0;
    }
    if (t > 0) {
      const size_t yp = static_cast<size_t>(seq.labels[t - 1]);
      g_trans[yp * L + y] -= 1.0;
      gold += trans[yp * L + y];
    }
  }
  gold += end[static_cast<size_t>(seq.labels[T - 1])];
  g_start[static_cast<size_t>(seq.labels[0])] -= 1.0;
  g_end[static_cast<size_t>(seq.labels[T - 1])] -= 1.0;

  std::vector<double> marg(L);
  for (size_t t = 0; t < T; ++t) {
    for (size_t y = 0; y < L; ++y) {
      marg[y] = alpha[t * L + y] * beta[t * L + y];
    }
    for (int f : seq.features[t]) {
      double* gf = grad->data() + static_cast<size_t>(f) * L;
      for (size_t y = 0; y < L; ++y) gf[y] += marg[y];
    }
    if (t == 0) {
      for (size_t y = 0; y < L; ++y) g_start[y] += marg[y];
    }
    if (t == T - 1) {
      for (size_t y = 0; y < L; ++y) g_end[y] += marg[y];
    }
  }
  if (T > 1) {
    const double* q = emit + L;
    for (size_t yp = 0; yp < L; ++yp) {
      for (size_t y = 0; y < L; ++y) {
        g_trans[yp * L + y] +=
            exp_trans[yp * L + y] * DotD(alpha + yp, q + y, T - 1, L);
      }
    }
  }
  return log_z - gold;
}

}  // namespace pae::oracle
