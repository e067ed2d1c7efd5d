#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "lstm/bilstm_tagger.h"
#include "lstm/lstm_cell.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae::lstm {

/// Test-only byte image of a tagger: its dimensions, labels, both
/// vocabularies and every weight matrix and bias, each container
/// length-prefixed. Two taggers hold the same model bit for bit iff
/// their images are equal.
class BiLstmTaggerTestPeer {
 public:
  static std::string ModelBytes(const BiLstmTagger& tagger) {
    std::string out;
    const BiLstmOptions& o = tagger.options_;
    for (const int dim : {o.char_dim, o.char_hidden, o.word_dim,
                          o.word_hidden}) {
      AppendRaw(&out, &dim, sizeof(dim));
    }
    AppendSize(&out, tagger.labels_.size());
    for (const std::string& label : tagger.labels_) AppendString(&out, label);
    AppendVocab(&out, tagger.word_vocab_);
    AppendVocab(&out, tagger.char_vocab_);
    AppendMatrix(&out, tagger.char_emb_);
    AppendMatrix(&out, tagger.word_emb_);
    AppendParams(&out, tagger.char_fwd_);
    AppendParams(&out, tagger.char_bwd_);
    AppendParams(&out, tagger.word_fwd_);
    AppendParams(&out, tagger.word_bwd_);
    AppendMatrix(&out, tagger.out_w_);
    AppendFloats(&out, tagger.out_b_);
    return out;
  }

 private:
  static void AppendRaw(std::string* out, const void* bytes, size_t size) {
    out->append(static_cast<const char*>(bytes), size);
  }
  static void AppendSize(std::string* out, size_t size) {
    const uint64_t word = size;
    AppendRaw(out, &word, sizeof(word));
  }
  static void AppendString(std::string* out, std::string_view s) {
    AppendSize(out, s.size());
    out->append(s);
  }
  static void AppendFloats(std::string* out, const std::vector<float>& v) {
    AppendSize(out, v.size());
    AppendRaw(out, v.data(), v.size() * sizeof(float));
  }
  static void AppendMatrix(std::string* out, const math::Matrix& m) {
    AppendSize(out, m.rows());
    AppendSize(out, m.cols());
    AppendFloats(out, m.data());
  }
  static void AppendParams(std::string* out, const LstmParams& p) {
    AppendSize(out, p.input_dim);
    AppendSize(out, p.hidden_dim);
    AppendMatrix(out, p.wx);
    AppendMatrix(out, p.wh);
    AppendFloats(out, p.b);
  }
  static void AppendVocab(std::string* out, const text::Vocab& vocab) {
    AppendSize(out, vocab.size());
    for (size_t i = 0; i < vocab.size(); ++i) {
      AppendString(out, vocab.Word(static_cast<int32_t>(i)));
    }
  }
};

namespace {

// ---------------- LSTM cell ----------------

TEST(LstmCellTest, ForwardShapes) {
  Rng rng(1);
  LstmParams params(3, 4);
  params.Init(&rng);
  std::vector<std::vector<float>> inputs(5, std::vector<float>(3, 0.1f));
  LstmTrace trace;
  LstmForward(params, inputs, &trace);
  ASSERT_EQ(trace.h.size(), 5u);
  EXPECT_EQ(trace.h[0].size(), 4u);
  EXPECT_EQ(trace.c.size(), 5u);
}

TEST(LstmCellTest, HiddenStateBounded) {
  Rng rng(2);
  LstmParams params(2, 3);
  params.Init(&rng);
  std::vector<std::vector<float>> inputs(20, std::vector<float>(2, 5.0f));
  LstmTrace trace;
  LstmForward(params, inputs, &trace);
  for (const auto& h : trace.h) {
    for (float v : h) EXPECT_LE(std::fabs(v), 1.0f);  // |o·tanh(c)| ≤ 1
  }
}

TEST(LstmCellTest, EmptySequence) {
  Rng rng(3);
  LstmParams params(2, 3);
  params.Init(&rng);
  LstmTrace trace;
  LstmForward(params, {}, &trace);
  EXPECT_TRUE(trace.h.empty());
  LstmParams grad(2, 3);
  std::vector<std::vector<float>> dx;
  LstmBackward(params, trace, {}, &grad, &dx);
  EXPECT_TRUE(dx.empty());
}

/// Scalar loss for gradient checking: sum of all hidden states.
double ForwardLoss(const LstmParams& params,
                   const std::vector<std::vector<float>>& inputs) {
  LstmTrace trace;
  LstmForward(params, inputs, &trace);
  double loss = 0;
  for (const auto& h : trace.h) {
    for (float v : h) loss += v;
  }
  return loss;
}

class LstmGradientTest : public ::testing::TestWithParam<int> {};

TEST_P(LstmGradientTest, BackwardMatchesFiniteDifferences) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 5);
  const size_t in_dim = 3, hidden = 4, T = 4;
  LstmParams params(in_dim, hidden);
  params.Init(&rng);
  std::vector<std::vector<float>> inputs(T, std::vector<float>(in_dim));
  for (auto& x : inputs) {
    for (float& v : x) v = static_cast<float>(rng.NextGaussian() * 0.5);
  }

  LstmTrace trace;
  LstmForward(params, inputs, &trace);
  // dLoss/dh = 1 everywhere.
  std::vector<std::vector<float>> dh(T, std::vector<float>(hidden, 1.0f));
  LstmParams grad(in_dim, hidden);
  std::vector<std::vector<float>> dx;
  LstmBackward(params, trace, dh, &grad, &dx);

  const float eps = 1e-3f;
  // Check a few parameter coordinates in each block.
  auto check_matrix = [&](math::Matrix* m, const math::Matrix& g,
                          const char* name) {
    for (int probe = 0; probe < 5; ++probe) {
      const size_t r = rng.NextBounded(m->rows());
      const size_t c = rng.NextBounded(m->cols());
      const float saved = m->at(r, c);
      m->at(r, c) = saved + eps;
      const double fp = ForwardLoss(params, inputs);
      m->at(r, c) = saved - eps;
      const double fm = ForwardLoss(params, inputs);
      m->at(r, c) = saved;
      const double numeric = (fp - fm) / (2 * eps);
      EXPECT_NEAR(g.at(r, c), numeric, 5e-2)
          << name << "[" << r << "," << c << "]";
    }
  };
  check_matrix(&params.wx, grad.wx, "wx");
  check_matrix(&params.wh, grad.wh, "wh");

  // Bias coordinates.
  for (int probe = 0; probe < 4; ++probe) {
    const size_t i = rng.NextBounded(params.b.size());
    const float saved = params.b[i];
    params.b[i] = saved + eps;
    const double fp = ForwardLoss(params, inputs);
    params.b[i] = saved - eps;
    const double fm = ForwardLoss(params, inputs);
    params.b[i] = saved;
    EXPECT_NEAR(grad.b[i], (fp - fm) / (2 * eps), 5e-2) << "b[" << i << "]";
  }

  // Input gradients.
  for (int probe = 0; probe < 4; ++probe) {
    const size_t t = rng.NextBounded(T);
    const size_t d = rng.NextBounded(in_dim);
    const float saved = inputs[t][d];
    inputs[t][d] = saved + eps;
    const double fp = ForwardLoss(params, inputs);
    inputs[t][d] = saved - eps;
    const double fm = ForwardLoss(params, inputs);
    inputs[t][d] = saved;
    EXPECT_NEAR(dx[t][d], (fp - fm) / (2 * eps), 5e-2)
        << "dx[" << t << "][" << d << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LstmGradientTest, ::testing::Range(0, 6));

// ---------------- batched LSTM layer ----------------

TEST(LstmBatchTest, ForwardBatchBitEqualsPerSequenceForward) {
  Rng rng(11);
  const size_t D = 5, H = 4, T = 6;
  LstmParams params(D, H);
  params.Init(&rng);
  for (size_t B : {1u, 3u, 8u}) {
    std::vector<float> flat(T * B * D);
    for (float& v : flat) v = static_cast<float>(rng.NextGaussian() * 0.5);
    LstmBatchTrace batch;
    LstmForwardBatch(params, flat.data(), T, B, &batch);
    for (size_t b = 0; b < B; ++b) {
      std::vector<std::vector<float>> inputs(T, std::vector<float>(D));
      for (size_t t = 0; t < T; ++t) {
        const float* src = flat.data() + (t * B + b) * D;
        std::copy(src, src + D, inputs[t].begin());
      }
      LstmTrace single;
      LstmForward(params, inputs, &single);
      for (size_t t = 0; t < T; ++t) {
        EXPECT_EQ(0, std::memcmp(single.h[t].data(),
                                 batch.H(t) + b * H, H * sizeof(float)))
            << "h B=" << B << " b=" << b << " t=" << t;
        EXPECT_EQ(0, std::memcmp(single.c[t].data(),
                                 batch.C(t) + b * H, H * sizeof(float)))
            << "c B=" << B << " b=" << b << " t=" << t;
      }
    }
  }
}

TEST(LstmBatchTest, BackwardBatchBitEqualsPerSequenceBackward) {
  Rng rng(12);
  const size_t D = 4, H = 3, T = 5, B = 4;
  LstmParams params(D, H);
  params.Init(&rng);
  std::vector<float> flat(T * B * D), dh(T * B * H);
  for (float& v : flat) v = static_cast<float>(rng.NextGaussian() * 0.5);
  for (float& v : dh) v = static_cast<float>(rng.NextGaussian());

  LstmBatchTrace batch;
  LstmForwardBatch(params, flat.data(), T, B, &batch);
  std::vector<float> dpre(T * B * 4 * H), dx(T * B * D);
  LstmBackwardBatch(params, batch, dh.data(), dpre.data(), dx.data());

  for (size_t b = 0; b < B; ++b) {
    // Reference: the same sequence run alone (batch width 1).
    std::vector<float> flat1(T * D), dh1(T * H);
    for (size_t t = 0; t < T; ++t) {
      std::copy(flat.data() + (t * B + b) * D,
                flat.data() + (t * B + b) * D + D, flat1.data() + t * D);
      std::copy(dh.data() + (t * B + b) * H,
                dh.data() + (t * B + b) * H + H, dh1.data() + t * H);
    }
    LstmBatchTrace single;
    LstmForwardBatch(params, flat1.data(), T, 1, &single);
    std::vector<float> dpre1(T * 4 * H), dx1(T * D);
    LstmBackwardBatch(params, single, dh1.data(), dpre1.data(), dx1.data());
    for (size_t t = 0; t < T; ++t) {
      EXPECT_EQ(0, std::memcmp(dpre1.data() + t * 4 * H,
                               dpre.data() + (t * B + b) * 4 * H,
                               4 * H * sizeof(float)))
          << "dpre b=" << b << " t=" << t;
      EXPECT_EQ(0, std::memcmp(dx1.data() + t * D,
                               dx.data() + (t * B + b) * D,
                               D * sizeof(float)))
          << "dx b=" << b << " t=" << t;
    }
    // Canonical-order parameter accumulation must match, too.
    LstmParams grad_batch(D, H), grad_single(D, H);
    grad_batch.SetZero();
    grad_single.SetZero();
    LstmAccumulateGrads(batch, dpre.data(), b, &grad_batch);
    LstmAccumulateGrads(single, dpre1.data(), 0, &grad_single);
    EXPECT_EQ(0, std::memcmp(grad_single.wx.data().data(),
                             grad_batch.wx.data().data(),
                             grad_batch.wx.data().size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(grad_single.wh.data().data(),
                             grad_batch.wh.data().data(),
                             grad_batch.wh.data().size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(grad_single.b.data(), grad_batch.b.data(),
                             grad_batch.b.size() * sizeof(float)));
  }
}

// ---------------- BiLSTM tagger ----------------

std::vector<text::LabeledSequence> ToyData(int n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> colors = {"red", "blue", "green", "pink"};
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < n; ++i) {
    text::LabeledSequence seq;
    const std::string color = colors[rng.NextBounded(colors.size())];
    const std::string num = std::to_string(rng.NextInt(1, 9));
    if (rng.Bernoulli(0.5)) {
      seq.tokens = {"color", "is", color, "today"};
      seq.pos = {"NN", "VB", "NN", "NN"};
      seq.labels = {"O", "O", "B-color", "O"};
    } else {
      seq.tokens = {"weight", "is", num, "kg"};
      seq.pos = {"NN", "VB", "NUM", "UNIT"};
      seq.labels = {"O", "O", "B-weight", "I-weight"};
    }
    data.push_back(std::move(seq));
  }
  return data;
}

TEST(BiLstmTaggerTest, LearnsToyPattern) {
  BiLstmOptions options;
  options.epochs = 12;
  options.learning_rate = 0.08f;
  options.dropout = 0.2f;
  options.seed = 5;
  BiLstmTagger tagger(options);
  ASSERT_TRUE(tagger.Train(ToyData(200, 44)).ok());

  text::LabeledSequence probe;
  probe.tokens = {"weight", "is", "7", "kg"};
  probe.pos = {"NN", "VB", "NUM", "UNIT"};
  std::vector<std::string> labels = tagger.Predict(probe);
  EXPECT_EQ(labels[2], "B-weight");
  EXPECT_EQ(labels[0], "O");
}

TEST(BiLstmTaggerTest, MoreEpochsLowerTrainingLoss) {
  auto data = ToyData(120, 45);
  BiLstmOptions short_options;
  short_options.epochs = 1;
  short_options.seed = 6;
  BiLstmTagger short_run(short_options);
  ASSERT_TRUE(short_run.Train(data).ok());

  BiLstmOptions long_options;
  long_options.epochs = 10;
  long_options.seed = 6;
  BiLstmTagger long_run(long_options);
  ASSERT_TRUE(long_run.Train(data).ok());

  EXPECT_LT(long_run.final_epoch_loss(), short_run.final_epoch_loss());
}

TEST(BiLstmTaggerTest, DeterministicGivenSeed) {
  auto data = ToyData(60, 46);
  BiLstmOptions options;
  options.epochs = 2;
  options.seed = 77;
  BiLstmTagger a(options), b(options);
  ASSERT_TRUE(a.Train(data).ok());
  ASSERT_TRUE(b.Train(data).ok());
  text::LabeledSequence probe;
  probe.tokens = {"color", "is", "red", "today"};
  probe.pos = {"NN", "VB", "NN", "NN"};
  EXPECT_EQ(a.Predict(probe), b.Predict(probe));
}

TEST(BiLstmTaggerTest, EmptyTrainingSetRejected) {
  BiLstmTagger tagger;
  EXPECT_FALSE(tagger.Train({}).ok());
}

TEST(BiLstmTaggerTest, UntrainedPredictsOutside) {
  BiLstmTagger tagger;
  text::LabeledSequence probe;
  probe.tokens = {"x"};
  probe.pos = {"NN"};
  EXPECT_EQ(tagger.Predict(probe), (std::vector<std::string>{"O"}));
}

TEST(BiLstmTaggerTest, HandlesUnseenWordsViaCharsAndUnk) {
  BiLstmOptions options;
  options.epochs = 8;
  options.seed = 9;
  BiLstmTagger tagger(options);
  ASSERT_TRUE(tagger.Train(ToyData(150, 47)).ok());
  text::LabeledSequence probe;
  probe.tokens = {"weight", "is", "42", "kg"};  // "42" unseen
  probe.pos = {"NN", "VB", "NUM", "UNIT"};
  std::vector<std::string> labels = tagger.Predict(probe);
  EXPECT_EQ(labels.size(), 4u);
}

/// Mixed-length corpus so decode panels group several distinct lengths.
std::vector<text::LabeledSequence> MixedLengthData(int n, uint64_t seed) {
  auto data = ToyData(n, seed);
  Rng rng(seed * 31 + 7);
  for (auto& seq : data) {
    const int extra = static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < extra; ++e) {
      seq.tokens.push_back("pad" + std::to_string(e));
      seq.pos.push_back("NN");
      seq.labels.push_back("O");
    }
  }
  return data;
}

TEST(BiLstmTaggerTest, TrainingByteIdenticalAcrossBatchSizes) {
  const auto data = MixedLengthData(60, 48);
  std::string ref_model;
  std::vector<double> ref_losses;
  for (int batch_size : {1, 8, 32}) {
    BiLstmOptions options;
    options.epochs = 2;
    options.seed = 21;
    options.batch_size = batch_size;
    BiLstmTagger tagger(options);
    ASSERT_TRUE(tagger.Train(data).ok());
    const std::string bytes = BiLstmTaggerTestPeer::ModelBytes(tagger);
    if (batch_size == 1) {
      ref_model = bytes;
      ref_losses = tagger.epoch_losses();
    } else {
      // Whole-model byte equality: every weight of every layer matches
      // the batch_size=1 run bit for bit.
      EXPECT_TRUE(ref_model == bytes) << "batch_size=" << batch_size;
      ASSERT_EQ(ref_losses.size(), tagger.epoch_losses().size());
      for (size_t e = 0; e < ref_losses.size(); ++e) {
        EXPECT_EQ(ref_losses[e], tagger.epoch_losses()[e])
            << "epoch " << e << " batch_size=" << batch_size;
      }
    }
  }
}

TEST(BiLstmTaggerTest, DecodeByteIdenticalAcrossBatchSizesAndThreads) {
  const auto data = MixedLengthData(80, 49);
  BiLstmOptions options;
  options.epochs = 2;
  options.seed = 22;
  BiLstmTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());

  const auto probes = MixedLengthData(37, 50);
  // Reference: one sentence at a time through the public API.
  std::vector<text::SequenceTagger::ScoredPrediction> ref;
  for (const auto& seq : probes) ref.push_back(tagger.PredictScored(seq));

  util::ThreadPool pool1(1), pool8(8);
  for (int batch_size : {1, 8, 32}) {
    BiLstmOptions opt = options;
    opt.batch_size = batch_size;
    BiLstmTagger batched(opt);
    ASSERT_TRUE(batched.Train(data).ok());  // same seed → same model
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &pool1, &pool8}) {
      const auto got = batched.PredictScoredBatch(probes, pool);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].labels, got[i].labels)
            << "sentence " << i << " batch_size=" << batch_size;
        ASSERT_EQ(ref[i].confidence.size(), got[i].confidence.size());
        for (size_t t = 0; t < ref[i].confidence.size(); ++t) {
          EXPECT_EQ(0, std::memcmp(&ref[i].confidence[t],
                                   &got[i].confidence[t], sizeof(double)))
              << "confidence sentence " << i << " token " << t
              << " batch_size=" << batch_size;
        }
      }
    }
  }
}

TEST(BiLstmTaggerTest, NonFiniteGradientNormSkipsStepAndCounts) {
  util::Counter* skips = util::MetricsRegistry::Global().GetCounter(
      "lstm.train.nonfinite_grad_skips");
  const int64_t before = skips->value();

  BiLstmOptions options;
  options.epochs = 2;
  options.seed = 23;
  options.inject_nonfinite_grad_at = 3;  // poison the 4th SGD step
  BiLstmTagger tagger(options);
  ASSERT_TRUE(tagger.Train(ToyData(40, 51)).ok());

  // Exactly one step was skipped, and the model survived: every epoch
  // loss is finite and the network still predicts.
  EXPECT_EQ(skips->value() - before, 1);
  for (double loss : tagger.epoch_losses()) {
    EXPECT_TRUE(std::isfinite(loss)) << loss;
  }
  text::LabeledSequence probe;
  probe.tokens = {"color", "is", "red", "today"};
  probe.pos = {"NN", "VB", "NN", "NN"};
  const auto pred = tagger.PredictScored(probe);
  ASSERT_EQ(pred.labels.size(), 4u);
  for (double c : pred.confidence) EXPECT_TRUE(std::isfinite(c));
}

TEST(BiLstmTaggerTest, MultibyteTokensSplitIntoCharUnits) {
  BiLstmOptions options;
  options.epochs = 2;
  options.seed = 10;
  BiLstmTagger tagger(options);
  std::vector<text::LabeledSequence> data;
  text::LabeledSequence seq;
  seq.tokens = {"重量", "は", "5", "kg"};
  seq.pos = {"NN", "PRT", "NUM", "UNIT"};
  seq.labels = {"O", "O", "B-重量", "I-重量"};
  data.assign(30, seq);
  ASSERT_TRUE(tagger.Train(data).ok());
  EXPECT_EQ(tagger.Predict(seq).size(), 4u);
}

}  // namespace
}  // namespace pae::lstm
