#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <thread>

#include "crf/crf_model.h"
#include "crf/crf_tagger.h"
#include "crf/feature_extractor.h"
#include "crf/owlqn.h"
#include "math/kernels.h"
#include "support/crf_oracle.h"
#include "text/labeled_sequence.h"
#include "util/rng.h"

namespace pae::crf {
namespace {

// ---------------- feature extraction ----------------

text::LabeledSequence MakeSeq() {
  text::LabeledSequence seq;
  seq.tokens = {"重量", "は", "5", "kg"};
  seq.pos = {"NN", "PRT", "NUM", "UNIT"};
  seq.sentence_index = 2;
  return seq;
}

TEST(FeatureExtractorTest, ContainsPaperTemplate) {
  std::vector<std::vector<std::string>> feats;
  FeatureConfig config;
  config.window = 2;
  ExtractFeatures(MakeSeq(), config, &feats);
  ASSERT_EQ(feats.size(), 4u);
  const auto& f0 = feats[0];
  // The word itself.
  EXPECT_NE(std::find(f0.begin(), f0.end(), "w[0]=重量"), f0.end());
  // Window words with boundary padding.
  EXPECT_NE(std::find(f0.begin(), f0.end(), "w[-1]=<s>"), f0.end());
  EXPECT_NE(std::find(f0.begin(), f0.end(), "w[1]=は"), f0.end());
  EXPECT_NE(std::find(f0.begin(), f0.end(), "w[2]=5"), f0.end());
  // PoS of window positions.
  EXPECT_NE(std::find(f0.begin(), f0.end(), "p[0]=NN"), f0.end());
  EXPECT_NE(std::find(f0.begin(), f0.end(), "p[2]=NUM"), f0.end());
  // PoS concatenation of the window.
  EXPECT_NE(std::find(f0.begin(), f0.end(),
                      "pwin=<s>|<s>|NN|PRT|NUM"),
            f0.end());
  // Sentence number.
  EXPECT_NE(std::find(f0.begin(), f0.end(), "sent=2"), f0.end());
}

TEST(FeatureExtractorTest, SentenceBucketCapped) {
  text::LabeledSequence seq = MakeSeq();
  seq.sentence_index = 99;
  FeatureConfig config;
  config.max_sentence_bucket = 8;
  std::vector<std::vector<std::string>> feats;
  ExtractFeatures(seq, config, &feats);
  EXPECT_NE(std::find(feats[0].begin(), feats[0].end(), "sent=8"),
            feats[0].end());
}

TEST(FeatureExtractorTest, EmptySequence) {
  text::LabeledSequence seq;
  std::vector<std::vector<std::string>> feats;
  ExtractFeatures(seq, FeatureConfig{}, &feats);
  EXPECT_TRUE(feats.empty());
}

// ---------------- OWL-QN ----------------

TEST(OwlqnTest, MinimizesQuadratic) {
  // f(x) = Σ (x_i - t_i)^2, minimum at t.
  const std::vector<double> target = {1.5, -2.0, 0.25};
  SmoothObjective obj = [&](const std::vector<double>& x,
                            std::vector<double>* grad) {
    grad->assign(x.size(), 0.0);
    double f = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target[i];
      f += d * d;
      (*grad)[i] = 2 * d;
    }
    return f;
  };
  std::vector<double> x(3, 0.0);
  OwlqnOptions options;
  options.epsilon = 1e-8;
  OwlqnReport report;
  ASSERT_TRUE(MinimizeOwlqn(obj, options, &x, &report).ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], target[i], 1e-4);
}

TEST(OwlqnTest, L1ProducesSoftThresholdedSolution) {
  // min ½(x-a)² + c|x|  →  x* = sign(a)·max(0, |a|-c).
  const double a = 2.0, c = 0.5;
  SmoothObjective obj = [&](const std::vector<double>& x,
                            std::vector<double>* grad) {
    grad->assign(1, x[0] - a);
    return 0.5 * (x[0] - a) * (x[0] - a);
  };
  std::vector<double> x = {0.0};
  OwlqnOptions options;
  options.l1_weight = c;
  options.epsilon = 1e-9;
  options.max_iterations = 200;
  OwlqnReport report;
  ASSERT_TRUE(MinimizeOwlqn(obj, options, &x, &report).ok());
  EXPECT_NEAR(x[0], 1.5, 1e-3);
}

TEST(OwlqnTest, StrongL1DrivesWeightToZero) {
  const double a = 0.3, c = 1.0;  // |a| < c → x* = 0
  SmoothObjective obj = [&](const std::vector<double>& x,
                            std::vector<double>* grad) {
    grad->assign(1, x[0] - a);
    return 0.5 * (x[0] - a) * (x[0] - a);
  };
  std::vector<double> x = {0.8};
  OwlqnOptions options;
  options.l1_weight = c;
  options.max_iterations = 200;
  OwlqnReport report;
  ASSERT_TRUE(MinimizeOwlqn(obj, options, &x, &report).ok());
  EXPECT_NEAR(x[0], 0.0, 1e-4);
}

TEST(OwlqnTest, RejectsEmptyVector) {
  std::vector<double> x;
  OwlqnReport report;
  SmoothObjective obj = [](const std::vector<double>&,
                           std::vector<double>*) { return 0.0; };
  EXPECT_FALSE(MinimizeOwlqn(obj, OwlqnOptions{}, &x, &report).ok());
}

TEST(OwlqnTest, RosenbrockConverges) {
  SmoothObjective obj = [](const std::vector<double>& x,
                           std::vector<double>* grad) {
    const double a = 1.0, b = 100.0;
    grad->assign(2, 0.0);
    const double f = (a - x[0]) * (a - x[0]) +
                     b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
    (*grad)[0] = -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] * x[0]);
    (*grad)[1] = 2 * b * (x[1] - x[0] * x[0]);
    return f;
  };
  std::vector<double> x = {-1.2, 1.0};
  OwlqnOptions options;
  options.max_iterations = 500;
  options.epsilon = 1e-10;
  OwlqnReport report;
  ASSERT_TRUE(MinimizeOwlqn(obj, options, &x, &report).ok());
  EXPECT_NEAR(x[0], 1.0, 1e-2);
  EXPECT_NEAR(x[1], 1.0, 1e-2);
}

// ---------------- CRF model core ----------------

/// SequenceNll with potentials built fresh for this one call.
double FreshNll(const CrfModel& model, const CompiledSequence& seq,
                std::span<const double> w, std::vector<double>* grad) {
  ScaledPotentials potentials;
  model.BuildPotentials(w, &potentials);
  return model.SequenceNll(seq, w, potentials, grad);
}

/// Builds a tiny model with known labels/features and a random compiled
/// sequence for gradient/inference checks.
struct TinyCrf {
  CrfModel model;
  CompiledSequence seq;
  std::vector<double> weights;

  explicit TinyCrf(uint64_t seed, size_t num_labels = 3,
                   size_t num_features = 5, size_t length = 4) {
    Rng rng(seed);
    for (size_t y = 0; y < num_labels; ++y) {
      model.AddLabel(std::string("L").append(std::to_string(y)));
    }
    for (size_t f = 0; f < num_features; ++f) {
      model.AddFeature(std::string("F").append(std::to_string(f)));
    }
    seq.features.resize(length);
    seq.labels.resize(length);
    for (size_t t = 0; t < length; ++t) {
      for (size_t f = 0; f < num_features; ++f) {
        if (rng.Bernoulli(0.5)) {
          seq.features[t].push_back(static_cast<int>(f));
        }
      }
      seq.labels[t] = static_cast<int>(rng.NextBounded(num_labels));
    }
    weights.resize(model.WeightDim());
    for (double& w : weights) w = rng.NextGaussian() * 0.4;
  }
};

TEST(CrfModelTest, MarginalsSumToOne) {
  TinyCrf tiny(21);
  std::vector<double> marginals;
  tiny.model.Marginals(tiny.seq, tiny.weights, &marginals);
  const size_t L = tiny.model.num_labels();
  for (size_t t = 0; t < tiny.seq.length(); ++t) {
    double sum = 0;
    for (size_t y = 0; y < L; ++y) sum += marginals[t * L + y];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(CrfModelTest, NllIsNonNegativeLogProb) {
  TinyCrf tiny(22);
  std::vector<double> grad(tiny.weights.size(), 0.0);
  const double nll = FreshNll(tiny.model, tiny.seq, tiny.weights, &grad);
  EXPECT_GE(nll, 0.0);  // -log p ≥ 0
}

// Gradient check against central finite differences.
class CrfGradientTest : public ::testing::TestWithParam<int> {};

TEST_P(CrfGradientTest, AnalyticMatchesNumeric) {
  TinyCrf tiny(static_cast<uint64_t>(GetParam()) * 131 + 7);
  std::vector<double> grad(tiny.weights.size(), 0.0);
  FreshNll(tiny.model, tiny.seq, tiny.weights, &grad);

  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  const double eps = 1e-6;
  for (int check = 0; check < 12; ++check) {
    const size_t i = rng.NextBounded(tiny.weights.size());
    std::vector<double> wp = tiny.weights, wm = tiny.weights;
    wp[i] += eps;
    wm[i] -= eps;
    std::vector<double> dummy(tiny.weights.size(), 0.0);
    const double fp = FreshNll(tiny.model, tiny.seq, wp, &dummy);
    dummy.assign(tiny.weights.size(), 0.0);
    const double fm = FreshNll(tiny.model, tiny.seq, wm, &dummy);
    const double numeric = (fp - fm) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-4)
        << "weight index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrfGradientTest, ::testing::Range(0, 8));

// ---------------- scaled forward–backward vs the log-space oracle ------

/// A random model with `num_labels` labels over 30 features and weights
/// drawn N(0, sigma²); sequences get 0–6 active features per position.
struct RandomCrf {
  CrfModel model;
  std::vector<double> weights;
  Rng rng;

  RandomCrf(uint64_t seed, size_t num_labels, double sigma) : rng(seed) {
    for (size_t y = 0; y < num_labels; ++y) {
      model.AddLabel(std::string("L").append(std::to_string(y)));
    }
    for (size_t f = 0; f < 30; ++f) {
      model.AddFeature(std::string("F").append(std::to_string(f)));
    }
    weights.resize(model.WeightDim());
    for (double& w : weights) w = rng.NextGaussian() * sigma;
  }

  /// The transition block, drawn uniformly from [-spread, spread].
  void SpreadTransitions(double spread) {
    const size_t L = model.num_labels();
    double* trans = weights.data() + model.num_features() * L;
    for (size_t i = 0; i < L * L; ++i) {
      trans[i] = (2 * rng.NextDouble() - 1) * spread;
    }
  }

  CompiledSequence Sequence(size_t length) {
    CompiledSequence seq;
    seq.features.resize(length);
    seq.labels.resize(length);
    for (size_t t = 0; t < length; ++t) {
      const uint64_t active = rng.NextBounded(7);
      for (uint64_t k = 0; k < active; ++k) {
        seq.features[t].push_back(
            static_cast<int>(rng.NextBounded(model.num_features())));
      }
      seq.labels[t] = static_cast<int>(rng.NextBounded(model.num_labels()));
    }
    return seq;
  }
};

/// SequenceNll against oracle::LogSpaceSequenceNll: the NLL within 1e-9
/// relative and every gradient coordinate within 1e-9·max(1, |g|).
void ExpectMatchesOracle(const RandomCrf& crf, const CompiledSequence& seq) {
  const size_t dim = crf.weights.size();
  std::vector<double> grad(dim, 0.0), want_grad(dim, 0.0);
  const double nll = FreshNll(crf.model, seq, crf.weights, &grad);
  const double want = oracle::LogSpaceSequenceNll(crf.model, seq,
                                                  crf.weights, &want_grad);
  ASSERT_TRUE(std::isfinite(nll));
  EXPECT_NEAR(nll, want, 1e-9 * std::max(1.0, std::fabs(want)));
  size_t bad = 0;
  for (size_t i = 0; i < dim; ++i) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(want_grad[i]));
    if (!(std::fabs(grad[i] - want_grad[i]) <= tol)) {
      if (++bad <= 3) {
        ADD_FAILURE() << "gradient[" << i << "] = " << grad[i]
                      << ", oracle " << want_grad[i];
      }
    }
  }
  EXPECT_EQ(bad, 0u);
}

TEST(CrfScaledKernelTest, MatchesLogSpaceOracle) {
  uint64_t seed = 1;
  for (size_t labels : {1, 2, 3, 9, 17, 25}) {
    for (size_t length : {1, 2, 7, 200}) {
      for (double sigma : {0.1, 1.0, 5.0}) {
        SCOPED_TRACE(::testing::Message() << "L=" << labels << " T="
                                          << length << " sigma=" << sigma);
        RandomCrf crf(seed++, labels, sigma);
        ExpectMatchesOracle(crf, crf.Sequence(length));
      }
    }
  }
}

TEST(CrfScaledKernelTest, MatchesOracleWithTransitionsSpanningPlusMinus100) {
  uint64_t seed = 900;
  for (size_t labels : {3, 9, 25}) {
    for (size_t length : {2, 7, 200}) {
      SCOPED_TRACE(::testing::Message() << "L=" << labels
                                        << " T=" << length);
      RandomCrf crf(seed++, labels, 1.0);
      crf.SpreadTransitions(100.0);
      ExpectMatchesOracle(crf, crf.Sequence(length));
    }
  }
}

TEST(CrfScaledKernelTest, MarginalsSumToOneAndMatchLogSpace) {
  uint64_t seed = 300;
  for (size_t labels : {1, 3, 17}) {
    for (size_t length : {1, 7, 200}) {
      for (double spread : {0.0, 100.0}) {
        SCOPED_TRACE(::testing::Message() << "L=" << labels << " T="
                                          << length << " spread=" << spread);
        RandomCrf crf(seed++, labels, 5.0);
        if (spread > 0) crf.SpreadTransitions(spread);
        const CompiledSequence seq = crf.Sequence(length);
        ScaledPotentials potentials;
        crf.model.BuildPotentials(crf.weights, &potentials);
        ScaledLattice lattice;
        ASSERT_TRUE(std::isfinite(crf.model.ScaledForwardBackward(
            seq, crf.weights, potentials, &lattice)));
        std::vector<double> log_space;
        crf.model.Marginals(seq, crf.weights, &log_space);
        for (size_t t = 0; t < length; ++t) {
          double sum = 0;
          for (size_t y = 0; y < labels; ++y) {
            const size_t i = t * labels + y;
            const double p = lattice.alpha[i] * lattice.beta[i];
            EXPECT_NEAR(p, log_space[i], 1e-9) << "t=" << t << " y=" << y;
            sum += p;
          }
          EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
        }
      }
    }
  }
}

TEST(CrfScaledKernelTest, ReusedWorkspaceDoesNotChangeShortSequence) {
  // SequenceNll keeps its lattice thread-local. A T = 1 sequence scored
  // right after a T = 200 one (stale rows past the end) must give the
  // same bits as on a thread whose lattice has never been used.
  RandomCrf crf(77, 9, 1.0);
  const CompiledSequence longest = crf.Sequence(200);
  const CompiledSequence single = crf.Sequence(1);
  const size_t dim = crf.weights.size();
  auto score = [&](const CompiledSequence* before, double* nll,
                   std::vector<double>* grad) {
    std::thread([&] {
      if (before != nullptr) {
        std::vector<double> scratch(dim, 0.0);
        FreshNll(crf.model, *before, crf.weights, &scratch);
      }
      grad->assign(dim, 0.0);
      *nll = FreshNll(crf.model, single, crf.weights, grad);
    }).join();
  };
  double fresh_nll = 0, reused_nll = 0;
  std::vector<double> fresh_grad, reused_grad;
  score(nullptr, &fresh_nll, &fresh_grad);
  score(&longest, &reused_nll, &reused_grad);
  EXPECT_EQ(fresh_nll, reused_nll);
  EXPECT_EQ(fresh_grad, reused_grad);
}

TEST(CrfScaledKernelTest, SharedPotentialsMatchPerSequencePotentials) {
  // Training builds the potentials once per weight vector and scores
  // every sequence against them. One struct shared by many sequences of
  // mixed lengths must give the same bits as a struct built fresh for
  // each sequence, spread ±100 transitions included.
  uint64_t seed = 1200;
  for (size_t labels : {1, 3, 15, 25}) {
    for (double spread : {0.0, 100.0}) {
      SCOPED_TRACE(::testing::Message() << "L=" << labels
                                        << " spread=" << spread);
      RandomCrf crf(seed++, labels, 1.0);
      if (spread > 0) crf.SpreadTransitions(spread);
      ScaledPotentials shared;
      crf.model.BuildPotentials(crf.weights, &shared);
      const size_t dim = crf.weights.size();
      for (size_t length : {5, 1, 200, 2, 7, 4}) {
        const CompiledSequence seq = crf.Sequence(length);
        std::vector<double> shared_grad(dim, 0.0), fresh_grad(dim, 0.0);
        const double shared_nll =
            crf.model.SequenceNll(seq, crf.weights, shared, &shared_grad);
        const double fresh_nll =
            FreshNll(crf.model, seq, crf.weights, &fresh_grad);
        EXPECT_EQ(shared_nll, fresh_nll) << "T=" << length;
        EXPECT_EQ(shared_grad, fresh_grad) << "T=" << length;
      }
    }
  }
}

TEST(CrfScaledKernelTest, MatchesPerEntryDotRecursionBitForBit) {
  // SequenceNll runs its forward, backward and pairwise passes through
  // math::kernels::MatTMatD, whose every output keeps the operand order
  // of the per-entry dot product it replaced: the NLL and every
  // gradient coordinate stay the same bits, at every ISA tier.
  uint64_t seed = 1500;
  for (size_t labels : {1, 3, 4, 15, 25}) {
    for (size_t length : {1, 2, 5, 200}) {
      for (double spread : {0.0, 100.0}) {
        SCOPED_TRACE(::testing::Message() << "L=" << labels << " T="
                                          << length << " spread=" << spread);
        RandomCrf crf(seed++, labels, 1.0);
        if (spread > 0) crf.SpreadTransitions(spread);
        const CompiledSequence seq = crf.Sequence(length);
        ScaledPotentials potentials;
        crf.model.BuildPotentials(crf.weights, &potentials);
        const size_t dim = crf.weights.size();
        std::vector<double> want_grad(dim, 0.0);
        const double want = oracle::DotScaledSequenceNll(
            crf.model, seq, crf.weights, potentials, &want_grad);
        for (math::kernels::Isa isa :
             {math::kernels::Isa::kScalar, math::kernels::Isa::kSse2,
              math::kernels::Isa::kAvx2}) {
          if (!math::kernels::IsaSupported(isa)) continue;
          math::kernels::SetIsa(isa);
          std::vector<double> grad(dim, 0.0);
          const double nll =
              crf.model.SequenceNll(seq, crf.weights, potentials, &grad);
          EXPECT_EQ(nll, want) << math::kernels::IsaName(isa);
          EXPECT_EQ(grad, want_grad) << math::kernels::IsaName(isa);
        }
        math::kernels::SetIsa(math::kernels::BestSupportedIsa());
      }
    }
  }
}

// Viterbi against brute-force enumeration.
class CrfViterbiTest : public ::testing::TestWithParam<int> {};

TEST_P(CrfViterbiTest, MatchesBruteForce) {
  TinyCrf tiny(static_cast<uint64_t>(GetParam()) * 31 + 3,
               /*num_labels=*/3, /*num_features=*/4, /*length=*/5);
  const size_t L = tiny.model.num_labels();
  const size_t T = tiny.seq.length();

  std::vector<double> scores;
  tiny.model.UnigramScores(tiny.seq, tiny.weights, &scores);
  const size_t F = tiny.model.num_features();
  const double* trans = tiny.weights.data() + F * L;
  const double* start = trans + L * L;
  const double* end = start + L;

  double best = -1e300;
  std::vector<int> best_path;
  std::vector<int> path(T, 0);
  // Enumerate all L^T paths.
  const size_t total = static_cast<size_t>(std::pow(L, T));
  for (size_t code = 0; code < total; ++code) {
    size_t c = code;
    for (size_t t = 0; t < T; ++t) {
      path[t] = static_cast<int>(c % L);
      c /= L;
    }
    double score = start[path[0]] + end[path[T - 1]];
    for (size_t t = 0; t < T; ++t) {
      score += scores[t * L + static_cast<size_t>(path[t])];
      if (t > 0) {
        score += trans[static_cast<size_t>(path[t - 1]) * L +
                       static_cast<size_t>(path[t])];
      }
    }
    if (score > best) {
      best = score;
      best_path = path;
    }
  }
  EXPECT_EQ(tiny.model.Viterbi(tiny.seq, tiny.weights), best_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrfViterbiTest, ::testing::Range(0, 8));

// ---------------- end-to-end tagger ----------------

std::vector<text::LabeledSequence> PatternedData(int n, uint64_t seed) {
  // Pattern: "<attr> は <value> です" where <value> after 色 is a color
  // word and after 重 is a number+kg.
  Rng rng(seed);
  const std::vector<std::string> colors = {"赤", "青", "白", "黒"};
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < n; ++i) {
    text::LabeledSequence seq;
    if (rng.Bernoulli(0.5)) {
      const std::string color = colors[rng.NextBounded(colors.size())];
      seq.tokens = {"色", "は", color, "です"};
      seq.pos = {"NN", "PRT", "NN", "VB"};
      seq.labels = {"O", "O", "B-色", "O"};
    } else {
      const std::string num = std::to_string(rng.NextInt(1, 9));
      seq.tokens = {"重", "は", num, "kg", "です"};
      seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
      seq.labels = {"O", "O", "B-重", "I-重", "O"};
    }
    data.push_back(std::move(seq));
  }
  return data;
}

TEST(CrfTaggerTest, LearnsSimplePattern) {
  CrfOptions options;
  options.max_iterations = 50;
  CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(PatternedData(120, 77)).ok());

  // Unseen value in a known context: window features carry it.
  text::LabeledSequence probe;
  probe.tokens = {"重", "は", "7", "kg", "です"};
  probe.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
  std::vector<std::string> labels = tagger.Predict(probe);
  EXPECT_EQ(labels[2], "B-重");
  EXPECT_EQ(labels[3], "I-重");
  EXPECT_EQ(labels[0], "O");
}

TEST(CrfTaggerTest, EmptyTrainingSetRejected) {
  CrfTagger tagger;
  EXPECT_FALSE(tagger.Train({}).ok());
}

TEST(CrfTaggerTest, MissingLabelsRejected) {
  text::LabeledSequence seq;
  seq.tokens = {"a"};
  seq.pos = {"NN"};
  CrfTagger tagger;
  EXPECT_FALSE(tagger.Train({seq}).ok());
}

TEST(CrfTaggerTest, UntrainedPredictsOutside) {
  CrfTagger tagger;
  text::LabeledSequence probe;
  probe.tokens = {"a", "b"};
  probe.pos = {"NN", "NN"};
  EXPECT_EQ(tagger.Predict(probe),
            (std::vector<std::string>{"O", "O"}));
}

TEST(CrfTaggerTest, UnknownFeaturesHandledAtPrediction) {
  CrfOptions options;
  options.max_iterations = 20;
  CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(PatternedData(40, 88)).ok());
  text::LabeledSequence probe;
  probe.tokens = {"全く", "新しい", "文"};
  probe.pos = {"X", "Y", "Z"};
  std::vector<std::string> labels = tagger.Predict(probe);
  EXPECT_EQ(labels.size(), 3u);  // never crashes, length preserved
}

TEST(CrfTaggerTest, L1SparsifiesWeights) {
  CrfOptions dense_options;
  dense_options.c1 = 0.0;
  dense_options.max_iterations = 40;
  CrfTagger dense(dense_options);
  ASSERT_TRUE(dense.Train(PatternedData(80, 99)).ok());

  CrfOptions sparse_options;
  sparse_options.c1 = 2.0;
  sparse_options.max_iterations = 40;
  CrfTagger sparse(sparse_options);
  ASSERT_TRUE(sparse.Train(PatternedData(80, 99)).ok());

  auto count_zeros = [](const std::vector<double>& w) {
    size_t zeros = 0;
    for (double v : w) {
      if (v == 0.0) ++zeros;
    }
    return zeros;
  };
  EXPECT_GT(count_zeros(sparse.weights()), count_zeros(dense.weights()));
}

text::LabeledSequence ColorSentence(const std::string& color) {
  text::LabeledSequence seq;
  seq.tokens = {"色", "は", color, "です"};
  seq.pos = {"NN", "PRT", "NN", "VB"};
  seq.labels = {"O", "O", "B-色", "O"};
  return seq;
}

text::LabeledSequence WeightSentence(const std::string& num) {
  text::LabeledSequence seq;
  seq.tokens = {"重", "は", num, "kg", "です"};
  seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
  seq.labels = {"O", "O", "B-重", "I-重", "O"};
  return seq;
}

TEST(CrfWarmStartTest, ZeroIterationsReturnTheStartMappedByName) {
  std::vector<text::LabeledSequence> old_data = PatternedData(60, 77);
  old_data.insert(old_data.begin(), ColorSentence("赤"));
  CrfOptions options;
  options.max_iterations = 30;
  CrfTagger start(options);
  ASSERT_TRUE(start.Train(old_data).ok());

  // The new set puts 重 first, so its labels get other ids, and adds a
  // label and features the start has never seen.
  std::vector<text::LabeledSequence> new_data = old_data;
  new_data.insert(new_data.begin(), WeightSentence("3"));
  text::LabeledSequence model_sentence;
  model_sentence.tokens = {"型", "は", "XR-9", "です"};
  model_sentence.pos = {"NN", "PRT", "SYM", "VB"};
  model_sentence.labels = {"O", "O", "B-型", "O"};
  new_data.push_back(model_sentence);
  options.max_iterations = 0;
  CrfTagger warm(options);
  ASSERT_TRUE(warm.Train(new_data, start).ok());
  EXPECT_EQ(warm.training_report().iterations, 0);

  const CrfModel& from = start.model();
  const CrfModel& to = warm.model();
  ASSERT_NE(from.LabelName(1), to.LabelName(1));
  ASSERT_EQ(from.LookupLabel("B-型"), -1);
  const size_t old_l = from.num_labels();
  const size_t l = to.num_labels();
  std::vector<int> label_map(l);
  for (size_t y = 0; y < l; ++y) {
    label_map[y] = from.LookupLabel(to.LabelName(static_cast<int>(y)));
  }
  const std::vector<double>& w = warm.weights();
  const std::vector<double>& old_w = start.weights();
  ASSERT_EQ(w.size(), to.WeightDim());
  size_t shared_nonzero = 0;
  size_t new_features = 0;
  for (size_t f = 0; f < to.num_features(); ++f) {
    const int old_f = from.LookupFeature(to.FeatureName(static_cast<int>(f)));
    if (old_f < 0) ++new_features;
    for (size_t y = 0; y < l; ++y) {
      const double expected =
          old_f < 0 || label_map[y] < 0
              ? 0.0
              : old_w[static_cast<size_t>(old_f) * old_l +
                      static_cast<size_t>(label_map[y])];
      ASSERT_EQ(w[f * l + y], expected) << to.FeatureName(static_cast<int>(f))
                                        << " / " << to.LabelName(
                                               static_cast<int>(y));
      if (expected != 0.0) ++shared_nonzero;
    }
  }
  EXPECT_GT(shared_nonzero, 0u);
  EXPECT_GT(new_features, 0u);

  // Transition (prev*L + y), then start and end blocks (one per label).
  const size_t trans = to.num_features() * l;
  const size_t old_trans = from.num_features() * old_l;
  for (size_t prev = 0; prev < l; ++prev) {
    for (size_t y = 0; y < l; ++y) {
      const bool known = label_map[prev] >= 0 && label_map[y] >= 0;
      EXPECT_EQ(w[trans + prev * l + y],
                known ? old_w[old_trans +
                              static_cast<size_t>(label_map[prev]) * old_l +
                              static_cast<size_t>(label_map[y])]
                      : 0.0);
    }
  }
  for (size_t block = 0; block < 2; ++block) {
    for (size_t y = 0; y < l; ++y) {
      EXPECT_EQ(w[trans + l * l + block * l + y],
                label_map[y] >= 0
                    ? old_w[old_trans + old_l * old_l + block * old_l +
                            static_cast<size_t>(label_map[y])]
                    : 0.0);
    }
  }
}

TEST(CrfWarmStartTest, RetrainingFromTheOptimumStopsAtOnce) {
  const std::vector<text::LabeledSequence> data = PatternedData(120, 77);
  CrfTagger cold;
  ASSERT_TRUE(cold.Train(data).ok());
  ASSERT_GT(cold.training_report().iterations, 2);

  CrfTagger warm;
  ASSERT_TRUE(warm.Train(data, cold).ok());
  EXPECT_LE(warm.training_report().iterations, 2);
  text::LabeledSequence probe = WeightSentence("7");
  EXPECT_EQ(warm.Predict(probe), cold.Predict(probe));
}

}  // namespace
}  // namespace pae::crf
