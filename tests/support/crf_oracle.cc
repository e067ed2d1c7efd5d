#include "support/crf_oracle.h"

#include <cmath>

#include "math/vec.h"

namespace pae::oracle {

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

}  // namespace pae::oracle
