// Golden tests for the allocation-free CRF feature pipeline: the
// string-materializing `ExtractFeatures` is the reference the
// `FeatureEncoder` / interner / `CompiledCorpus` fast paths are held to.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crf/compiled_corpus.h"
#include "crf/crf_model.h"
#include "crf/crf_tagger.h"
#include "crf/feature_extractor.h"
#include "crf/owlqn.h"
#include "text/labeled_sequence.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae::crf {
namespace {

text::LabeledSequence MakeSeq(std::vector<std::string> tokens,
                              std::vector<std::string> pos,
                              int sentence_index) {
  text::LabeledSequence seq;
  seq.tokens = std::move(tokens);
  seq.pos = std::move(pos);
  seq.sentence_index = sentence_index;
  return seq;
}

std::vector<text::LabeledSequence> MakeCorpus(int sentences, uint64_t seed) {
  // Mixed-script tokens so the byte-equality checks cover multi-byte
  // UTF-8 through every path.
  const std::vector<std::string> words = {"重量", "は",  "kg", "サイズ",
                                          "blue", "5",  "10", "です",
                                          "色",   "cm"};
  const std::vector<std::string> tags = {"NN", "PRT", "UNIT", "NUM", "ADJ"};
  Rng rng(seed);
  std::vector<text::LabeledSequence> corpus;
  for (int i = 0; i < sentences; ++i) {
    text::LabeledSequence seq;
    const int len = rng.NextInt(1, 9);
    for (int t = 0; t < len; ++t) {
      seq.tokens.push_back(words[rng.NextBounded(words.size())]);
      seq.pos.push_back(tags[rng.NextBounded(tags.size())]);
    }
    seq.sentence_index = rng.NextInt(0, 12);
    corpus.push_back(std::move(seq));
  }
  return corpus;
}

std::vector<text::LabeledSequence> MakeTrainingSet(int sentences) {
  Rng rng(3);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < sentences; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"重量", "は", v, "kg", "です"};
    seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
    seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
    seq.sentence_index = rng.NextInt(0, 4);
    data.push_back(std::move(seq));
  }
  return data;
}

// ---------------- encoder vs reference extraction ----------------

void ExpectEncoderMatchesReference(const text::LabeledSequence& seq,
                                   const FeatureConfig& config,
                                   FeatureEncoder* encoder) {
  std::vector<std::vector<std::string>> reference;
  ExtractFeatures(seq, config, &reference);
  std::vector<std::vector<std::string>> encoded(seq.tokens.size());
  encoder->Reset(config);
  encoder->Encode(seq, [&](size_t t, std::string_view feature) {
    encoded[t].emplace_back(feature);
  });
  ASSERT_EQ(encoded.size(), reference.size());
  for (size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(encoded[t], reference[t]) << "position " << t;
  }
}

TEST(FeaturePipelineTest, EncoderMatchesReferenceByteForByte) {
  FeatureEncoder encoder;
  for (int window : {1, 2, 3}) {
    FeatureConfig config;
    config.window = window;
    for (const auto& seq : MakeCorpus(50, 17)) {
      ExpectEncoderMatchesReference(seq, config, &encoder);
    }
  }
}

TEST(FeaturePipelineTest, EncoderMatchesReferenceOnEdgeCases) {
  FeatureEncoder encoder;
  FeatureConfig config;
  // Single-token sentence: the whole window is boundary padding.
  ExpectEncoderMatchesReference(MakeSeq({"一"}, {"NN"}, 0), config, &encoder);
  // Sentence index beyond the bucket cap.
  ExpectEncoderMatchesReference(MakeSeq({"a", "b"}, {"X", "Y"}, 99), config,
                                &encoder);
  // Empty sequence emits nothing.
  text::LabeledSequence empty;
  std::vector<std::vector<std::string>> reference;
  ExtractFeatures(empty, config, &reference);
  EXPECT_TRUE(reference.empty());
  int emitted = 0;
  encoder.Reset(config);
  encoder.Encode(empty, [&](size_t, std::string_view) { ++emitted; });
  EXPECT_EQ(emitted, 0);
}

TEST(FeaturePipelineTest, EncoderSurvivesConfigSwitches) {
  // One (thread_local) encoder serves taggers with different windows;
  // Reset must fully re-seat the prefix tables each time.
  FeatureEncoder encoder;
  const auto corpus = MakeCorpus(10, 29);
  for (int round = 0; round < 3; ++round) {
    for (int window : {3, 1, 2}) {
      FeatureConfig config;
      config.window = window;
      for (const auto& seq : corpus) {
        ExpectEncoderMatchesReference(seq, config, &encoder);
      }
    }
  }
}

// ---------------- interned pipeline vs string pipeline ----------------

/// The pre-interner training pipeline, reimplemented as the golden
/// reference: two string extraction passes and first-occurrence feature
/// ids, then OWL-QN over a dense, serially merged objective with the
/// tagger's reduction shards. Kept deliberately naive.
void TrainReferenceStringPipeline(
    const std::vector<text::LabeledSequence>& data, const CrfOptions& options,
    CrfModel* model, std::vector<double>* weights) {
  model->AddLabel("O");
  for (const auto& seq : data) {
    for (const std::string& label : seq.labels) model->AddLabel(label);
    std::vector<std::vector<std::string>> feats;
    ExtractFeatures(seq, options.features, &feats);
    for (const auto& position : feats) {
      for (const std::string& f : position) model->AddFeature(f);
    }
  }
  std::vector<CompiledSequence> compiled;
  for (const auto& seq : data) {
    CompiledSequence cs;
    std::vector<std::vector<std::string>> feats;
    ExtractFeatures(seq, options.features, &feats);
    cs.features.resize(feats.size());
    for (size_t t = 0; t < feats.size(); ++t) {
      for (const std::string& f : feats[t]) {
        int id = model->LookupFeature(f);
        if (id >= 0) cs.features[t].push_back(id);
      }
    }
    for (const std::string& label : seq.labels) {
      cs.labels.push_back(model->AddLabel(label));
    }
    compiled.push_back(std::move(cs));
  }

  const size_t dim = model->WeightDim();
  weights->assign(dim, 0.0);
  // Mirror the tagger's gradient reduction structure (grain 4, max 32
  // shards, serial order) so floating-point summation trees line up.
  util::ThreadPool pool(1);
  auto objective = [&](const std::vector<double>& w,
                       std::vector<double>* grad) {
    grad->assign(dim, 0.0);
    double nll = 0;
    std::vector<std::vector<double>> shard_grads(
        util::NumReductionShards(compiled.size(), 4, 32));
    std::vector<double> shard_nll(shard_grads.size(), 0.0);
    util::OrderedReduce<size_t>(
        pool, compiled.size(), 4, 32,
        [&, next = size_t{0}]() mutable { return next++; },
        [&](size_t shard, size_t i) {
          if (shard_grads[shard].empty()) shard_grads[shard].assign(dim, 0.0);
          // Potentials built per sequence, where the tagger builds them
          // once per evaluation: the byte-equality below checks that
          // sharing them changes nothing.
          ScaledPotentials potentials;
          model->BuildPotentials(w, &potentials);
          shard_nll[shard] += model->SequenceNll(compiled[i], w, potentials,
                                                 &shard_grads[shard]);
        },
        [&](size_t shard, size_t) {
          nll += shard_nll[shard];
          for (size_t i = 0; i < dim; ++i) (*grad)[i] += shard_grads[shard][i];
        });
    if (options.c2 > 0) {
      double reg = 0;
      for (size_t i = 0; i < dim; ++i) {
        reg += w[i] * w[i];
        (*grad)[i] += 2.0 * options.c2 * w[i];
      }
      nll += options.c2 * reg;
    }
    return nll;
  };
  OwlqnOptions opts;
  opts.max_iterations = options.max_iterations;
  opts.epsilon = options.epsilon;
  opts.l1_weight = options.c1;
  OwlqnReport report;
  ASSERT_TRUE(MinimizeOwlqn(objective, opts, weights, &report).ok());
}

TEST(FeaturePipelineTest, InternedPipelineMatchesStringPipeline) {
  const auto data = MakeTrainingSet(80);
  CrfOptions options;
  options.max_iterations = 15;
  options.threads = 1;

  CrfModel reference_model;
  std::vector<double> reference_weights;
  TrainReferenceStringPipeline(data, options, &reference_model,
                               &reference_weights);

  CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());

  // Same dictionary (both assign first-occurrence ids over the same
  // extraction order, so this is exact, not just set-equal)…
  ASSERT_EQ(tagger.model().num_features(), reference_model.num_features());
  for (size_t f = 0; f < reference_model.num_features(); ++f) {
    EXPECT_EQ(tagger.model().FeatureName(static_cast<int>(f)),
              reference_model.FeatureName(static_cast<int>(f)));
  }
  ASSERT_EQ(tagger.model().labels(), reference_model.labels());
  // …and byte-identical trained weights: identical dictionaries mean
  // identical compiled sequences, and the sparse shard merge adds the
  // same partial sums in the same order the dense reference does.
  ASSERT_EQ(tagger.weights().size(), reference_weights.size());
  EXPECT_EQ(0, std::memcmp(tagger.weights().data(), reference_weights.data(),
                           reference_weights.size() * sizeof(double)));
  // Predictions agree exactly on fresh sentences.
  for (const auto& seq : MakeTrainingSet(20)) {
    text::LabeledSequence unlabeled = seq;
    unlabeled.labels.clear();
    std::vector<std::vector<std::string>> feats;
    ExtractFeatures(unlabeled, options.features, &feats);
    CompiledSequence cs;
    cs.features.resize(feats.size());
    for (size_t t = 0; t < feats.size(); ++t) {
      for (const std::string& f : feats[t]) {
        int id = reference_model.LookupFeature(f);
        if (id >= 0) cs.features[t].push_back(id);
      }
    }
    std::vector<int> reference_path =
        reference_model.Viterbi(cs, reference_weights);
    std::vector<std::string> predicted = tagger.Predict(unlabeled);
    ASSERT_EQ(predicted.size(), reference_path.size());
    for (size_t t = 0; t < predicted.size(); ++t) {
      EXPECT_EQ(predicted[t], reference_model.LabelName(reference_path[t]));
    }
  }
}

TEST(FeaturePipelineTest, TrainedWeightsByteIdenticalAcrossThreads) {
  const auto data = MakeTrainingSet(120);
  std::vector<std::vector<double>> weights_by_threads;
  for (int threads : {1, 2, 8}) {
    CrfOptions options;
    options.max_iterations = 20;
    options.threads = threads;
    CrfTagger tagger(options);
    ASSERT_TRUE(tagger.Train(data).ok());
    weights_by_threads.push_back(tagger.weights());
  }
  for (size_t i = 1; i < weights_by_threads.size(); ++i) {
    ASSERT_EQ(weights_by_threads[0].size(), weights_by_threads[i].size());
    EXPECT_EQ(0, std::memcmp(weights_by_threads[0].data(),
                             weights_by_threads[i].data(),
                             weights_by_threads[0].size() * sizeof(double)))
        << "threads arm " << i;
  }
}

// ---------------- compiled-corpus cache ----------------

TEST(FeaturePipelineTest, CachedPredictionMatchesDirectByteForByte) {
  const auto data = MakeTrainingSet(80);
  CrfOptions options;
  options.max_iterations = 20;
  CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());

  auto corpus = MakeCorpus(60, 41);
  std::vector<const text::LabeledSequence*> refs;
  for (const auto& seq : corpus) refs.push_back(&seq);
  CompiledCorpus cache;
  cache.Build(refs, tagger.options().features);
  ASSERT_EQ(cache.size(), corpus.size());
  cache.Bind(tagger.model(), tagger.Generation());

  CompiledSequence compiled;
  for (size_t i = 0; i < corpus.size(); ++i) {
    cache.Materialize(i, &compiled);
    const auto cached = tagger.PredictScored(compiled);
    const auto direct = tagger.PredictScored(corpus[i]);
    ASSERT_EQ(cached.labels, direct.labels) << "sentence " << i;
    ASSERT_EQ(cached.confidence.size(), direct.confidence.size());
    EXPECT_EQ(0, std::memcmp(cached.confidence.data(),
                             direct.confidence.data(),
                             direct.confidence.size() * sizeof(double)))
        << "sentence " << i;
  }
}

TEST(FeaturePipelineTest, CacheRebindsAcrossGenerations) {
  auto corpus = MakeCorpus(40, 53);
  std::vector<const text::LabeledSequence*> refs;
  for (const auto& seq : corpus) refs.push_back(&seq);

  CrfOptions options;
  options.max_iterations = 12;
  CrfTagger tagger(options);
  CompiledCorpus cache;
  cache.Build(refs, options.features);

  // Retrain the same tagger on different data between sweeps — the
  // bootstrap's exact pattern. The cache must follow each generation's
  // feature dictionary.
  uint64_t last_generation = tagger.Generation();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(tagger.Train(MakeTrainingSet(40 + 20 * round)).ok());
    EXPECT_GT(tagger.Generation(), last_generation);
    last_generation = tagger.Generation();
    cache.Bind(tagger.model(), tagger.Generation());
    CompiledSequence compiled;
    for (size_t i = 0; i < corpus.size(); ++i) {
      cache.Materialize(i, &compiled);
      const auto cached = tagger.PredictScored(compiled);
      const auto direct = tagger.PredictScored(corpus[i]);
      EXPECT_EQ(cached.labels, direct.labels)
          << "round " << round << " sentence " << i;
    }
  }
}

TEST(FeaturePipelineTest, CacheRebindsForAFreshTagger) {
  auto corpus = MakeCorpus(40, 53);
  std::vector<const text::LabeledSequence*> refs;
  for (const auto& seq : corpus) refs.push_back(&seq);

  // The bootstrap trains a new tagger every cycle and tags with one
  // cache. The second tagger's dictionary numbers the features in
  // another order, so a remap kept from the first scrambles them.
  CrfOptions options;
  options.max_iterations = 12;
  CrfTagger first(options);
  ASSERT_TRUE(first.Train(MakeTrainingSet(40)).ok());
  std::vector<text::LabeledSequence> reversed = MakeTrainingSet(60);
  std::reverse(reversed.begin(), reversed.end());
  CrfTagger second(options);
  ASSERT_TRUE(second.Train(reversed).ok());
  EXPECT_NE(first.Generation(), second.Generation());

  CompiledCorpus cache;
  cache.Build(refs, options.features);
  cache.Bind(first.model(), first.Generation());
  cache.Bind(second.model(), second.Generation());
  CompiledSequence compiled;
  for (size_t i = 0; i < corpus.size(); ++i) {
    cache.Materialize(i, &compiled);
    const auto cached = second.PredictScored(compiled);
    const auto direct = second.PredictScored(corpus[i]);
    ASSERT_EQ(cached.labels, direct.labels) << "sentence " << i;
    EXPECT_EQ(0, std::memcmp(cached.confidence.data(),
                             direct.confidence.data(),
                             direct.confidence.size() * sizeof(double)))
        << "sentence " << i;
  }
}

TEST(FeaturePipelineTest, CachedPredictionsIdenticalAcrossThreadCounts) {
  const auto data = MakeTrainingSet(60);
  CrfOptions options;
  options.max_iterations = 15;
  CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());

  auto corpus = MakeCorpus(80, 71);
  std::vector<const text::LabeledSequence*> refs;
  for (const auto& seq : corpus) refs.push_back(&seq);
  CompiledCorpus cache;
  cache.Build(refs, tagger.options().features);
  cache.Bind(tagger.model(), tagger.Generation());

  auto sweep = [&](int threads) {
    std::vector<std::vector<std::string>> labels(corpus.size());
    util::ThreadPool pool(threads);
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      thread_local CompiledSequence compiled;
      cache.Materialize(i, &compiled);
      labels[i] = tagger.PredictScored(compiled).labels;
    });
    return labels;
  };
  const auto serial = sweep(1);
  for (int threads : {2, 8}) {
    EXPECT_EQ(sweep(threads), serial) << "threads " << threads;
  }
}

}  // namespace
}  // namespace pae::crf
