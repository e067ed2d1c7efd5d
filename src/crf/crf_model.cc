#include "crf/crf_model.h"

#include <algorithm>
#include <cmath>

#include "math/vec.h"
#include "util/logging.h"

namespace pae::crf {

namespace {

/// out[i] = exp(x[i] − max x) for i < n; returns max x.
double ExpShifted(const double* x, size_t n, double* out) {
  double m = x[0];
  for (size_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  for (size_t i = 0; i < n; ++i) out[i] = std::exp(x[i] - m);
  return m;
}

/// Σ a[i*stride] * b[i*stride] over i < n, in index order; a stride of
/// L walks one column each of two row-major T×L arrays.
double DotD(const double* a, const double* b, size_t n, size_t stride = 1) {
  double s = 0;
  for (size_t i = 0; i < n; ++i) s += a[i * stride] * b[i * stride];
  return s;
}

/// SequenceNll's workspace: training runs it concurrently on pool
/// threads, so each thread keeps its own lattice and reuses it for
/// every sequence of every objective evaluation.
ScaledLattice& ThreadLattice() {
  static thread_local ScaledLattice lattice;
  return lattice;
}

}  // namespace

int CrfModel::AddLabel(std::string_view label) {
  const int id = label_ids_.Intern(label);
  if (static_cast<size_t>(id) == labels_.size()) {
    labels_.emplace_back(label);
  }
  return id;
}

int CrfModel::LookupLabel(std::string_view label) const {
  return label_ids_.Find(label);
}

const std::string& CrfModel::LabelName(int id) const {
  PAE_CHECK_GE(id, 0);
  PAE_CHECK_LT(static_cast<size_t>(id), labels_.size());
  return labels_[static_cast<size_t>(id)];
}

int CrfModel::AddFeature(std::string_view feature) {
  PAE_CHECK(!packed_features_.bound())
      << "AddFeature on a model bound to a packed (read-only) table";
  return features_.Intern(feature);
}

int CrfModel::LookupFeature(std::string_view feature) const {
  return packed_features_.bound() ? packed_features_.Find(feature)
                                  : features_.Find(feature);
}

size_t CrfModel::WeightDim() const {
  const size_t L = num_labels();
  return num_features() * L + L * L + 2 * L;
}

void CrfModel::UnigramScores(const CompiledSequence& seq,
                             std::span<const double> w,
                             std::vector<double>* scores) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  scores->assign(T * L, 0.0);
  for (size_t t = 0; t < T; ++t) {
    double* row = scores->data() + t * L;
    for (int f : seq.features[t]) {
      // Ids must come from this model's dictionary (a stale
      // CompiledCorpus bound to another generation would stray here).
      PAE_DCHECK_GE(f, 0);
      PAE_DCHECK_LT(static_cast<size_t>(f), num_features());
      const double* wf = w.data() + static_cast<size_t>(f) * L;
      for (size_t y = 0; y < L; ++y) row[y] += wf[y];
    }
  }
}

double CrfModel::ForwardBackward(const CompiledSequence& seq,
                                 const std::vector<double>& scores,
                                 std::span<const double> w,
                                 std::vector<double>* alpha,
                                 std::vector<double>* beta) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  PAE_DCHECK_GT(T, 0u);
  const double* trans = w.data() + TransBase();
  const double* start = w.data() + StartBase();
  const double* end = w.data() + EndBase();

  alpha->assign(T * L, 0.0);
  beta->assign(T * L, 0.0);
  std::vector<double> tmp(L);

  // Forward.
  for (size_t y = 0; y < L; ++y) {
    (*alpha)[y] = start[y] + scores[y];
  }
  for (size_t t = 1; t < T; ++t) {
    for (size_t y = 0; y < L; ++y) {
      for (size_t yp = 0; yp < L; ++yp) {
        tmp[yp] = (*alpha)[(t - 1) * L + yp] + trans[yp * L + y];
      }
      (*alpha)[t * L + y] = math::LogSumExp(tmp) + scores[t * L + y];
    }
  }

  // Backward.
  for (size_t y = 0; y < L; ++y) {
    (*beta)[(T - 1) * L + y] = end[y];
  }
  for (size_t t = T - 1; t > 0; --t) {
    for (size_t yp = 0; yp < L; ++yp) {
      for (size_t y = 0; y < L; ++y) {
        tmp[y] = trans[yp * L + y] + scores[t * L + y] + (*beta)[t * L + y];
      }
      (*beta)[(t - 1) * L + yp] = math::LogSumExp(tmp);
    }
  }

  for (size_t y = 0; y < L; ++y) {
    tmp[y] = (*alpha)[(T - 1) * L + y] + end[y];
  }
  return math::LogSumExp(tmp);
}

double CrfModel::ScaledForwardBackward(const CompiledSequence& seq,
                                       std::span<const double> w,
                                       ScaledLattice* lattice) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  PAE_DCHECK_GT(T, 0u);
  UnigramScores(seq, w, &lattice->scores);
  lattice->emit.resize(T * L);
  lattice->alpha.resize(T * L);
  lattice->beta.resize(T * L);
  lattice->scale.resize(T);
  lattice->exp_trans.resize(L * L);
  lattice->exp_trans_t.resize(L * L);
  lattice->exp_start.resize(L);
  lattice->exp_end.resize(L);
  const double* scores = lattice->scores.data();
  double* emit = lattice->emit.data();
  double* alpha = lattice->alpha.data();
  double* beta = lattice->beta.data();
  double* scale = lattice->scale.data();
  double* exp_trans = lattice->exp_trans.data();
  double* exp_trans_t = lattice->exp_trans_t.data();
  double* exp_start = lattice->exp_start.data();
  double* exp_end = lattice->exp_end.data();

  // Each block max taken out here is added back to log Z: the
  // transition max once per transition, start and end once each.
  double log_z = ExpShifted(w.data() + TransBase(), L * L, exp_trans) *
                     static_cast<double>(T - 1) +
                 ExpShifted(w.data() + StartBase(), L, exp_start) +
                 ExpShifted(w.data() + EndBase(), L, exp_end);
  for (size_t yp = 0; yp < L; ++yp) {
    for (size_t y = 0; y < L; ++y) {
      exp_trans_t[y * L + yp] = exp_trans[yp * L + y];
    }
  }

  // Forward: alpha_t = E_t ⊙ (alpha_{t-1} · exp(trans)) / c_t, with
  // exp(start) in place of the product at t = 0.
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

  // Backward with the forward scales: beta_{T-1} = exp(end) / end_mass,
  // then q_t = E_t ⊙ beta_t / c_t (stored over E_t) and
  // beta_{t-1} = exp(trans) · q_t.
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
  return log_z;
}

double CrfModel::SequenceNll(const CompiledSequence& seq,
                             std::span<const double> w,
                             std::vector<double>* grad) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  PAE_DCHECK_EQ(seq.labels.size(), T);
  PAE_DCHECK_EQ(w.size(), WeightDim());
  PAE_DCHECK_EQ(grad->size(), WeightDim());

  ScaledLattice& lattice = ThreadLattice();
  const double log_z = ScaledForwardBackward(seq, w, &lattice);
  // A non-finite partition function here means the weights (or a
  // feature score) already went NaN/inf upstream — fail at the source
  // instead of poisoning the whole gradient.
  PAE_DCHECK_FINITE(log_z);
  const double* scores = lattice.scores.data();
  const double* alpha = lattice.alpha.data();
  const double* beta = lattice.beta.data();

  const double* trans = w.data() + TransBase();
  const double* start = w.data() + StartBase();
  const double* end = w.data() + EndBase();
  double* g_trans = grad->data() + TransBase();
  double* g_start = grad->data() + StartBase();
  double* g_end = grad->data() + EndBase();

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

  // Expected counts (added to gradient): p(y_t) = alpha_t ⊙ beta_t.
  std::vector<double>& marg = lattice.marginal;
  marg.resize(L);
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
  // Pairwise expectations for transitions:
  //   p(y_{t-1} = yp, y_t = y) = alpha_{t-1}(yp) exp(trans)(yp, y) q_t(y),
  // summed over t as one column dot product per (yp, y) — the L×L
  // product alpha_{0..T-2}ᵀ q_{1..T-1} — scaled by exp(trans) once.
  if (T > 1) {
    const double* q = lattice.emit.data() + L;
    const double* exp_trans = lattice.exp_trans.data();
    for (size_t yp = 0; yp < L; ++yp) {
      for (size_t y = 0; y < L; ++y) {
        g_trans[yp * L + y] +=
            exp_trans[yp * L + y] * DotD(alpha + yp, q + y, T - 1, L);
      }
    }
  }
  PAE_DCHECK_FINITE(gold);
  return log_z - gold;
}

void CrfModel::Marginals(const CompiledSequence& seq,
                         std::span<const double> w,
                         std::vector<double>* out) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  std::vector<double> scores, alpha, beta;
  UnigramScores(seq, w, &scores);
  const double log_z = ForwardBackward(seq, scores, w, &alpha, &beta);
  out->assign(T * L, 0.0);
  for (size_t i = 0; i < T * L; ++i) {
    (*out)[i] = std::exp(alpha[i] + beta[i] - log_z);
  }
}

std::vector<int> CrfModel::Viterbi(const CompiledSequence& seq,
                                   std::span<const double> w) const {
  const size_t L = num_labels();
  const size_t T = seq.length();
  if (T == 0) return {};
  std::vector<double> scores;
  UnigramScores(seq, w, &scores);
  const double* trans = w.data() + TransBase();
  const double* start = w.data() + StartBase();
  const double* end = w.data() + EndBase();

  std::vector<double> delta(T * L, 0.0);
  std::vector<int> back(T * L, 0);
  for (size_t y = 0; y < L; ++y) delta[y] = start[y] + scores[y];
  for (size_t t = 1; t < T; ++t) {
    for (size_t y = 0; y < L; ++y) {
      double best = -1e300;
      int best_prev = 0;
      for (size_t yp = 0; yp < L; ++yp) {
        const double v = delta[(t - 1) * L + yp] + trans[yp * L + y];
        if (v > best) {
          best = v;
          best_prev = static_cast<int>(yp);
        }
      }
      delta[t * L + y] = best + scores[t * L + y];
      back[t * L + y] = best_prev;
    }
  }
  double best = -1e300;
  int best_y = 0;
  for (size_t y = 0; y < L; ++y) {
    const double v = delta[(T - 1) * L + y] + end[y];
    if (v > best) {
      best = v;
      best_y = static_cast<int>(y);
    }
  }
  std::vector<int> path(T);
  path[T - 1] = best_y;
  for (size_t t = T - 1; t > 0; --t) {
    path[t - 1] = back[t * L + static_cast<size_t>(path[t])];
  }
  return path;
}

}  // namespace pae::crf
