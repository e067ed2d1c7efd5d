// Microbenchmarks of the computational kernels behind the pipeline:
// CRF forward–backward & Viterbi, LSTM steps, word2vec training,
// HTML parsing and tokenization. google-benchmark based.

#include <benchmark/benchmark.h>

#include <string_view>
#include <unordered_map>

#include "crf/compiled_corpus.h"
#include "crf/crf_model.h"
#include "crf/crf_tagger.h"
#include "crf/feature_extractor.h"
#include "datagen/generator.h"
#include "embed/word2vec.h"
#include "html/stream_scanner.h"
#include "lstm/lstm_cell.h"
#include "math/kernels.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae {
namespace {

// ---- CRF kernels ----

struct CrfFixture {
  crf::CrfModel model;
  crf::CompiledSequence seq;
  std::vector<double> weights;

  CrfFixture(size_t labels, size_t features, size_t length) {
    Rng rng(1);
    for (size_t y = 0; y < labels; ++y) {
      model.AddLabel("L" + std::to_string(y));
    }
    for (size_t f = 0; f < features; ++f) {
      model.AddFeature("F" + std::to_string(f));
    }
    seq.features.resize(length);
    seq.labels.resize(length);
    for (size_t t = 0; t < length; ++t) {
      for (int k = 0; k < 12; ++k) {
        seq.features[t].push_back(
            static_cast<int>(rng.NextBounded(features)));
      }
      seq.labels[t] = static_cast<int>(rng.NextBounded(labels));
    }
    weights.resize(model.WeightDim());
    for (double& w : weights) w = rng.NextGaussian() * 0.1;
  }
};

void BM_CrfSequenceNll(benchmark::State& state) {
  CrfFixture fixture(static_cast<size_t>(state.range(0)), 2000, 15);
  std::vector<double> grad(fixture.weights.size());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    benchmark::DoNotOptimize(
        fixture.model.SequenceNll(fixture.seq, fixture.weights, &grad));
  }
}
BENCHMARK(BM_CrfSequenceNll)->Arg(9)->Arg(17)->Arg(25);

void BM_CrfViterbi(benchmark::State& state) {
  CrfFixture fixture(static_cast<size_t>(state.range(0)), 2000, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.model.Viterbi(fixture.seq, fixture.weights));
  }
}
BENCHMARK(BM_CrfViterbi)->Arg(9)->Arg(17)->Arg(25);

// ---- LSTM kernels ----

void BM_LstmForward(benchmark::State& state) {
  Rng rng(2);
  const size_t hidden = static_cast<size_t>(state.range(0));
  lstm::LstmParams params(24, hidden);
  params.Init(&rng);
  std::vector<std::vector<float>> inputs(15, std::vector<float>(24));
  for (auto& x : inputs) {
    for (float& v : x) v = static_cast<float>(rng.NextGaussian());
  }
  lstm::LstmTrace trace;
  for (auto _ : state) {
    lstm::LstmForward(params, inputs, &trace);
    benchmark::DoNotOptimize(trace.h.back()[0]);
  }
}
BENCHMARK(BM_LstmForward)->Arg(16)->Arg(32)->Arg(64);

void BM_LstmBackward(benchmark::State& state) {
  Rng rng(3);
  const size_t hidden = static_cast<size_t>(state.range(0));
  lstm::LstmParams params(24, hidden);
  params.Init(&rng);
  std::vector<std::vector<float>> inputs(15, std::vector<float>(24));
  for (auto& x : inputs) {
    for (float& v : x) v = static_cast<float>(rng.NextGaussian());
  }
  lstm::LstmTrace trace;
  lstm::LstmForward(params, inputs, &trace);
  std::vector<std::vector<float>> dh(15, std::vector<float>(hidden, 1.0f));
  lstm::LstmParams grad(24, hidden);
  std::vector<std::vector<float>> dx;
  for (auto _ : state) {
    grad.SetZero();
    lstm::LstmBackward(params, trace, dh, &grad, &dx);
    benchmark::DoNotOptimize(dx[0][0]);
  }
}
BENCHMARK(BM_LstmBackward)->Arg(16)->Arg(32)->Arg(64);

// ---- word2vec ----

void BM_Word2VecTrain(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string> sentence;
    for (int k = 0; k < 10; ++k) {
      sentence.push_back("w" + std::to_string(rng.NextBounded(400)));
    }
    corpus.push_back(std::move(sentence));
  }
  embed::Word2VecOptions options;
  options.dim = static_cast<int>(state.range(0));
  options.epochs = 1;
  options.min_count = 1;
  for (auto _ : state) {
    embed::Word2Vec model(options);
    benchmark::DoNotOptimize(model.Train(corpus).ok());
  }
}
BENCHMARK(BM_Word2VecTrain)->Arg(16)->Arg(32)->Arg(64);

// ---- HTML + tokenization ----

// The page front end ingestion and serving run: one StreamScanner pass
// yields the visible text and the dictionary tables.
void BM_HtmlParseAndExtract(benchmark::State& state) {
  datagen::GeneratorConfig config;
  config.num_products = 50;
  config.seed = 5;
  datagen::GeneratedCategory category = datagen::GenerateCategory(
      datagen::CategoryId::kVacuumCleaner, config);
  html::StreamScanner scanner;
  for (auto _ : state) {
    size_t tables = 0;
    for (const auto& page : category.corpus.pages) {
      scanner.Scan(page.html);
      tables += scanner.tables().size();
      benchmark::DoNotOptimize(scanner.text().size());
    }
    benchmark::DoNotOptimize(tables);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(category.corpus.pages.size()));
}
BENCHMARK(BM_HtmlParseAndExtract);

void BM_CjkTokenize(benchmark::State& state) {
  text::CjkTokenizer tokenizer({"重量", "カラー", "です", "集じん方式"});
  const std::string sentence =
      "この商品の重量は2.5kgです。カラーはブラックです。集じん方式:"
      "サイクロン式。";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(sentence).size());
  }
}
BENCHMARK(BM_CjkTokenize);

// Shared builder for the CRF-training benchmarks: a small patterned
// dataset whose gradient pass dominates the runtime.
std::vector<text::LabeledSequence> MakeCrfTrainData(int sequences) {
  Rng rng(6);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < sequences; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"重量", "は", v, "kg", "です"};
    seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
    seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
    data.push_back(std::move(seq));
  }
  return data;
}

void BM_CrfTrainSmall(benchmark::State& state) {
  // End-to-end training cost; Arg = thread count. The trained weights
  // are bit-identical for every arg, so the times are comparable.
  const std::vector<text::LabeledSequence> data = MakeCrfTrainData(200);
  crf::CrfOptions options;
  options.max_iterations = 15;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    crf::CrfTagger tagger(options);
    benchmark::DoNotOptimize(tagger.Train(data).ok());
  }
}
BENCHMARK(BM_CrfTrainSmall)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_CrfBatchTag(benchmark::State& state) {
  // Batch tagging (the apply/bootstrap Tagger-stage kernel): per-sentence
  // PredictScored fanned out over a thread pool; Arg = thread count.
  const std::vector<text::LabeledSequence> data = MakeCrfTrainData(64);
  crf::CrfOptions options;
  options.max_iterations = 15;
  crf::CrfTagger tagger(options);
  if (!tagger.Train(data).ok()) {
    state.SkipWithError("CRF training failed");
    return;
  }
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<text::SequenceTagger::ScoredPrediction> predictions(data.size());
  for (auto _ : state) {
    pool.ParallelFor(0, data.size(), 8, [&](size_t i) {
      predictions[i] = tagger.PredictScored(data[i]);
    });
    benchmark::DoNotOptimize(predictions.front().labels.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CrfBatchTag)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// ---- CRF feature pipeline ----
//
// Three stages of the same work, from the pre-interner string pipeline
// to the compiled-corpus cache, all threads-parameterized:
//   FeatureExtractStrings / FeatureExtract   — template → features
//   FeatureCompileStrings / FeatureCompile / — features → model ids
//       FeatureCompileCached
//   CrfObjective                             — ids → NLL + gradient
// scripts/bench_feature_pipeline.sh runs these and writes
// BENCH_feature_pipeline.json.

std::vector<text::LabeledSequence> MakeFeatureCorpus(int sentences) {
  const std::vector<std::string> words = {"重量", "は",  "kg", "サイズ",
                                          "blue", "5",  "10", "です",
                                          "色",   "cm", "横幅", "奥行"};
  const std::vector<std::string> tags = {"NN", "PRT", "UNIT", "NUM", "ADJ"};
  Rng rng(8);
  std::vector<text::LabeledSequence> corpus;
  for (int i = 0; i < sentences; ++i) {
    text::LabeledSequence seq;
    const int len = static_cast<int>(rng.NextInt(4, 14));
    for (int t = 0; t < len; ++t) {
      seq.tokens.push_back(words[rng.NextBounded(words.size())]);
      seq.pos.push_back(tags[rng.NextBounded(tags.size())]);
    }
    seq.sentence_index = static_cast<int>(rng.NextInt(0, 9));
    corpus.push_back(std::move(seq));
  }
  return corpus;
}

crf::CrfModel BuildFeatureModel(
    const std::vector<text::LabeledSequence>& corpus,
    const crf::FeatureConfig& config) {
  crf::CrfModel model;
  model.AddLabel("O");
  crf::FeatureEncoder encoder(config);
  for (const auto& seq : corpus) {
    encoder.Encode(seq, [&](size_t, std::string_view feature) {
      model.AddFeature(feature);
    });
  }
  return model;
}

void BM_FeatureExtractStrings(benchmark::State& state) {
  // Baseline extraction: every feature materialized as its own
  // std::string (the reference implementation); Arg = thread count.
  const auto corpus = MakeFeatureCorpus(256);
  const crf::FeatureConfig config;
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<size_t> sink(corpus.size());
  for (auto _ : state) {
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      std::vector<std::vector<std::string>> feats;
      crf::ExtractFeatures(corpus[i], config, &feats);
      size_t bytes = 0;
      for (const auto& position : feats) {
        for (const auto& f : position) bytes += f.size();
      }
      sink[i] = bytes;
    });
    benchmark::DoNotOptimize(sink.front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_FeatureExtractStrings)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_FeatureExtract(benchmark::State& state) {
  // Allocation-free extraction: the encoder renders each feature into a
  // reusable scratch buffer; Arg = thread count.
  const auto corpus = MakeFeatureCorpus(256);
  const crf::FeatureConfig config;
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<size_t> sink(corpus.size());
  for (auto _ : state) {
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      thread_local crf::FeatureEncoder encoder;
      encoder.Reset(config);
      size_t bytes = 0;
      encoder.Encode(corpus[i], [&](size_t, std::string_view feature) {
        bytes += feature.size();
      });
      sink[i] = bytes;
    });
    benchmark::DoNotOptimize(sink.front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_FeatureExtract)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_FeatureCompileStrings(benchmark::State& state) {
  // The pre-interner compile path: string extraction plus an
  // unordered_map<string,int> dictionary probe per feature.
  const auto corpus = MakeFeatureCorpus(256);
  const crf::FeatureConfig config;
  const crf::CrfModel model = BuildFeatureModel(corpus, config);
  std::unordered_map<std::string, int> dictionary;
  for (size_t f = 0; f < model.num_features(); ++f) {
    dictionary.emplace(std::string(model.FeatureName(static_cast<int>(f))),
                       static_cast<int>(f));
  }
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<crf::CompiledSequence> compiled(corpus.size());
  for (auto _ : state) {
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      std::vector<std::vector<std::string>> feats;
      crf::ExtractFeatures(corpus[i], config, &feats);
      compiled[i].features.assign(feats.size(), {});
      for (size_t t = 0; t < feats.size(); ++t) {
        for (const std::string& f : feats[t]) {
          auto it = dictionary.find(f);
          if (it != dictionary.end()) {
            compiled[i].features[t].push_back(it->second);
          }
        }
      }
    });
    benchmark::DoNotOptimize(compiled.front().features.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_FeatureCompileStrings)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_FeatureCompile(benchmark::State& state) {
  // The interned compile path: encoder scratch buffer + heterogeneous
  // string_view probe of the model's flat interner.
  const auto corpus = MakeFeatureCorpus(256);
  const crf::FeatureConfig config;
  const crf::CrfModel model = BuildFeatureModel(corpus, config);
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<crf::CompiledSequence> compiled(corpus.size());
  for (auto _ : state) {
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      thread_local crf::FeatureEncoder encoder;
      encoder.Reset(config);
      compiled[i].features.assign(corpus[i].tokens.size(), {});
      for (auto& feats : compiled[i].features) {
        feats.reserve(static_cast<size_t>(4 * config.window + 4));
      }
      encoder.Encode(corpus[i], [&](size_t t, std::string_view feature) {
        const int id = model.LookupFeature(feature);
        if (id >= 0) compiled[i].features[t].push_back(id);
      });
    });
    benchmark::DoNotOptimize(compiled.front().features.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_FeatureCompile)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_FeatureCompileCached(benchmark::State& state) {
  // The bootstrap steady state: extraction already cached, compilation
  // is a remap gather per sentence.
  const auto corpus = MakeFeatureCorpus(256);
  const crf::FeatureConfig config;
  const crf::CrfModel model = BuildFeatureModel(corpus, config);
  crf::CompiledCorpus cache;
  std::vector<const text::LabeledSequence*> refs;
  for (const auto& seq : corpus) refs.push_back(&seq);
  cache.Build(refs, config);
  cache.Bind(model, 1);
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<crf::CompiledSequence> compiled(corpus.size());
  for (auto _ : state) {
    pool.ParallelFor(0, corpus.size(), 8, [&](size_t i) {
      cache.Materialize(i, &compiled[i]);
    });
    benchmark::DoNotOptimize(compiled.front().features.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_FeatureCompileCached)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_CrfObjective(benchmark::State& state) {
  // One NLL+gradient evaluation over a compiled training set, with the
  // sparse per-shard accumulators Train uses; Arg = thread count.
  const std::vector<text::LabeledSequence> data = MakeCrfTrainData(200);
  crf::CrfOptions options;
  options.max_iterations = 1;
  options.trainer = crf::CrfTrainer::kAdagrad;
  crf::CrfTagger tagger(options);
  if (!tagger.Train(data).ok()) {
    state.SkipWithError("CRF training failed");
    return;
  }
  const crf::CrfModel& model = tagger.model();
  const std::vector<double>& w = tagger.weights();
  std::vector<crf::CompiledSequence> compiled;
  std::vector<std::vector<int>> unique_feats;
  {
    crf::FeatureEncoder encoder(options.features);
    for (const auto& seq : data) {
      crf::CompiledSequence cs;
      cs.features.resize(seq.tokens.size());
      encoder.Encode(seq, [&](size_t t, std::string_view feature) {
        const int id = model.LookupFeature(feature);
        if (id >= 0) cs.features[t].push_back(id);
      });
      for (const std::string& label : seq.labels) {
        cs.labels.push_back(model.LookupLabel(label));
      }
      std::vector<int> u;
      for (const auto& feats : cs.features) {
        u.insert(u.end(), feats.begin(), feats.end());
      }
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      unique_feats.push_back(std::move(u));
      compiled.push_back(std::move(cs));
    }
  }
  const size_t L = model.num_labels();
  const size_t dim = model.WeightDim();
  const size_t trans_base = model.num_features() * L;
  struct ShardAcc {
    std::vector<double> grad;
    std::vector<int> touched;
    std::vector<uint8_t> mark;
    double nll = 0;
  };
  std::vector<ShardAcc> shard_accs(
      util::NumReductionShards(compiled.size(), 4, 32));
  for (ShardAcc& acc : shard_accs) {
    acc.grad.assign(dim, 0.0);
    acc.mark.assign(model.num_features(), 0);
  }
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<double> grad(dim, 0.0);
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double nll = 0;
    util::OrderedReduce<ShardAcc*>(
        pool, compiled.size(), 4, 32,
        [&, next = size_t{0}]() mutable { return &shard_accs[next++]; },
        [&](ShardAcc* acc, size_t i) {
          acc->nll += model.SequenceNll(compiled[i], w, &acc->grad);
          for (int f : unique_feats[i]) {
            if (!acc->mark[static_cast<size_t>(f)]) {
              acc->mark[static_cast<size_t>(f)] = 1;
              acc->touched.push_back(f);
            }
          }
        },
        [&](ShardAcc* acc, size_t) {
          nll += acc->nll;
          acc->nll = 0;
          for (int f : acc->touched) {
            const size_t base = static_cast<size_t>(f) * L;
            for (size_t y = 0; y < L; ++y) {
              grad[base + y] += acc->grad[base + y];
              acc->grad[base + y] = 0.0;
            }
            acc->mark[static_cast<size_t>(f)] = 0;
          }
          acc->touched.clear();
          for (size_t i = trans_base; i < dim; ++i) {
            grad[i] += acc->grad[i];
            acc->grad[i] = 0.0;
          }
        });
    benchmark::DoNotOptimize(nll);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(compiled.size()));
}
BENCHMARK(BM_CrfObjective)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_Word2VecTrainSharded(benchmark::State& state) {
  // Sharded word2vec epochs; Arg = thread count at a fixed shard count
  // (the vectors depend on shards, never on threads).
  Rng rng(7);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string> sentence;
    for (int k = 0; k < 10; ++k) {
      sentence.push_back("w" + std::to_string(rng.NextBounded(400)));
    }
    corpus.push_back(std::move(sentence));
  }
  embed::Word2VecOptions options;
  options.dim = 32;
  options.epochs = 1;
  options.min_count = 1;
  options.shards = 8;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    embed::Word2Vec model(options);
    benchmark::DoNotOptimize(model.Train(corpus).ok());
  }
}
BENCHMARK(BM_Word2VecTrainSharded)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// ---- SIMD kernel layer ----
//
// ISA-parameterized benchmarks of the math/kernels.h dispatch tiers.
// Arg = Isa enum value (0 scalar, 1 sse2, 2 avx2); tiers the host
// cannot run are skipped. scripts/bench_simd.sh runs these and writes
// BENCH_simd_kernels.json.

bool EnterIsa(benchmark::State& state, math::kernels::Isa* prev) {
  const auto isa = static_cast<math::kernels::Isa>(state.range(0));
  if (!math::kernels::IsaSupported(isa)) {
    state.SkipWithError("isa unsupported on this host");
    return false;
  }
  *prev = math::kernels::ActiveIsa();
  math::kernels::SetIsa(isa);
  return true;
}

void FillGaussian(Rng* rng, std::vector<float>* v) {
  for (float& x : *v) x = static_cast<float>(rng->NextGaussian());
}

void BM_SimdDot(benchmark::State& state) {
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  Rng rng(9);
  std::vector<float> a(1024), b(1024);
  FillGaussian(&rng, &a);
  FillGaussian(&rng, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::kernels::Dot(a.data(), b.data(), a.size()));
  }
  math::kernels::SetIsa(prev);
}
BENCHMARK(BM_SimdDot)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdMatVec(benchmark::State& state) {
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  constexpr size_t kRows = 256;
  constexpr size_t kCols = 256;
  Rng rng(10);
  std::vector<float> m(kRows * kCols), x(kCols), out(kRows);
  FillGaussian(&rng, &m);
  FillGaussian(&rng, &x);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    math::kernels::MatVec(m.data(), kRows, kCols, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  math::kernels::SetIsa(prev);
}
BENCHMARK(BM_SimdMatVec)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdWord2VecStep(benchmark::State& state) {
  // The word2vec negative-sampling update for one center word exactly as
  // embed/word2vec.cc issues it: per sample a Dot plus two Axpys into the
  // output vector and gradient buffer, then one Axpy back into the input
  // vector. 1 positive + 5 negatives (the `negative` default) at
  // dim 128; the per-sample sigmoid is a fixed scalar cost, so smaller
  // dims shift the measurement from the kernels to libm.
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  constexpr size_t kDim = 128;
  constexpr int kSamples = 6;
  Rng rng(11);
  std::vector<float> vin(kDim), grad_in(kDim);
  std::vector<std::vector<float>> vouts(kSamples, std::vector<float>(kDim));
  FillGaussian(&rng, &vin);
  for (auto& vout : vouts) FillGaussian(&rng, &vout);
  for (auto _ : state) {
    std::fill(grad_in.begin(), grad_in.end(), 0.0f);
    for (int s = 0; s < kSamples; ++s) {
      float* vout = vouts[static_cast<size_t>(s)].data();
      const double dot = math::kernels::Dot(vin.data(), vout, kDim);
      const float label = s == 0 ? 1.0f : 0.0f;
      const float pred = 1.0f / (1.0f + static_cast<float>(std::exp(-dot)));
      const float g = 0.025f * (label - pred);
      math::kernels::Axpy(g, vout, grad_in.data(), kDim);
      math::kernels::Axpy(g, vin.data(), vout, kDim);
    }
    math::kernels::Axpy(1.0f, grad_in.data(), vin.data(), kDim);
    benchmark::DoNotOptimize(vin.data());
  }
  math::kernels::SetIsa(prev);
}
BENCHMARK(BM_SimdWord2VecStep)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdLstmStep(benchmark::State& state) {
  // One fused LSTM timestep (gate preactivations + activations) at the
  // tagger's hidden size, the per-token cost of the BiLSTM forward pass.
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  constexpr size_t kHidden = 64;
  constexpr size_t kInput = 48;
  Rng rng(12);
  std::vector<float> wx(4 * kHidden * kInput), wh(4 * kHidden * kHidden);
  std::vector<float> b(4 * kHidden), x(kInput), h_prev(kHidden);
  std::vector<float> c_prev(kHidden), pre(4 * kHidden);
  std::vector<float> i(kHidden), f(kHidden), o(kHidden), g(kHidden);
  std::vector<float> c(kHidden), h(kHidden);
  FillGaussian(&rng, &wx);
  FillGaussian(&rng, &wh);
  FillGaussian(&rng, &b);
  FillGaussian(&rng, &x);
  FillGaussian(&rng, &h_prev);
  FillGaussian(&rng, &c_prev);
  for (auto _ : state) {
    math::kernels::LstmGatePreact(wx.data(), wh.data(), b.data(), x.data(),
                                  h_prev.data(), kHidden, kInput, pre.data());
    math::kernels::LstmActivateGates(pre.data(), c_prev.data(), kHidden,
                                     i.data(), f.data(), o.data(), g.data(),
                                     c.data(), h.data());
    benchmark::DoNotOptimize(h.data());
  }
  math::kernels::SetIsa(prev);
}
BENCHMARK(BM_SimdLstmStep)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdMatMul(benchmark::State& state) {
  // The batched GEMM tier against a [256×256] weight panel; args are
  // (isa, batch). items/s counts output columns, so the per-column cost
  // at batch 8/32 against batch 1 is the batching win directly.
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  constexpr size_t kRows = 256;
  constexpr size_t kK = 256;
  const size_t batch = static_cast<size_t>(state.range(1));
  Rng rng(13);
  std::vector<float> m(kRows * kK), x(batch * kK), bias(kRows);
  std::vector<float> out(batch * kRows);
  FillGaussian(&rng, &m);
  FillGaussian(&rng, &x);
  FillGaussian(&rng, &bias);
  for (auto _ : state) {
    math::kernels::MatMul(m.data(), kRows, kK, x.data(), batch, bias.data(),
                          out.data());
    benchmark::DoNotOptimize(out.data());
  }
  math::kernels::SetIsa(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_SimdMatMul)
    ->ArgNames({"isa", "batch"})
    ->Args({0, 1})->Args({0, 8})->Args({0, 32})
    ->Args({1, 1})->Args({1, 8})->Args({1, 32})
    ->Args({2, 1})->Args({2, 8})->Args({2, 32});

void BM_SimdLstmLayer(benchmark::State& state) {
  // A full LSTM layer pass over a batch of equal-length sequences: one
  // batched gate GEMM per timestep. Args are (isa, hidden, batch) with
  // input_dim = 3H/4 (the tagger's D:H ratio). h=64 is the model's
  // word-layer shape, where the libm gate activations bound the step;
  // h=384 is the serving-scale shape where the [4H×D] weight pair
  // (~4 MB) no longer fits L2 and re-streaming it per sequence is the
  // cost batching amortises. items/s counts sequences, so batch 32 vs
  // batch 1 at the same isa/hidden is the batching speedup directly.
  // (The determinism contract keeps the gate activations on scalar
  // libm, so at h=64 they bound the step and cap the batching win;
  // the GEMM-bound h=384 rows show the full effect.)
  math::kernels::Isa prev;
  if (!EnterIsa(state, &prev)) return;
  const size_t hidden = static_cast<size_t>(state.range(1));
  const size_t input_dim = hidden * 3 / 4;
  constexpr size_t kSteps = 15;
  const size_t batch = static_cast<size_t>(state.range(2));
  Rng rng(14);
  lstm::LstmParams params(input_dim, hidden);
  params.Init(&rng);
  std::vector<float> inputs(kSteps * batch * input_dim);
  FillGaussian(&rng, &inputs);
  lstm::LstmBatchTrace trace;
  for (auto _ : state) {
    lstm::LstmForwardBatch(params, inputs.data(), kSteps, batch, &trace);
    benchmark::DoNotOptimize(trace.h.data());
  }
  math::kernels::SetIsa(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_SimdLstmLayer)
    ->ArgNames({"isa", "hidden", "batch"})
    ->Args({0, 64, 1})->Args({0, 64, 8})->Args({0, 64, 32})
    ->Args({1, 64, 1})->Args({1, 64, 8})->Args({1, 64, 32})
    ->Args({2, 64, 1})->Args({2, 64, 8})->Args({2, 64, 32})
    ->Args({0, 384, 1})->Args({0, 384, 8})->Args({0, 384, 32})
    ->Args({1, 384, 1})->Args({1, 384, 8})->Args({1, 384, 32})
    ->Args({2, 384, 1})->Args({2, 384, 8})->Args({2, 384, 32});

}  // namespace
}  // namespace pae

BENCHMARK_MAIN();
