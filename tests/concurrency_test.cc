// Concurrency suite: byte-identical results across thread counts for
// every parallelized stage (preprocessing, bootstrap, apply, CRF
// training, sharded word2vec), plus scheduling stress. Run it under
// -DPAE_SANITIZE=thread to turn the determinism checks into race
// detection as well (scripts/check.sh does).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "embed/word2vec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae {
namespace {

// A small but non-trivial corpus: enough pages that every parallel
// stage actually fans out, small enough that the full pipeline runs in
// seconds per thread-count arm.
core::ProcessedCorpus MakeCorpus(int threads = 1) {
  datagen::GeneratorConfig config;
  config.num_products = 40;
  config.seed = 11;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, config);
  return core::IngestCorpus(category.corpus, {threads}).corpus;
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

// ---------------- preprocessing ----------------

TEST(ConcurrencyTest, ProcessCorpusIdenticalAcrossThreadCounts) {
  datagen::GeneratorConfig config;
  config.num_products = 30;
  config.seed = 5;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kGarden, config);
  const core::ProcessedCorpus serial =
      core::IngestCorpus(category.corpus, {1}).corpus;
  const core::ProcessedCorpus parallel =
      core::IngestCorpus(category.corpus, {4}).corpus;
  ASSERT_EQ(serial.pages.size(), parallel.pages.size());
  for (size_t p = 0; p < serial.pages.size(); ++p) {
    const auto& a = serial.pages[p];
    const auto& b = parallel.pages[p];
    EXPECT_EQ(a.product_id, b.product_id);
    ASSERT_EQ(a.sentences.size(), b.sentences.size()) << "page " << p;
    for (size_t s = 0; s < a.sentences.size(); ++s) {
      EXPECT_EQ(a.sentences[s].tokens, b.sentences[s].tokens);
      EXPECT_EQ(a.sentences[s].pos, b.sentences[s].pos);
    }
    ASSERT_EQ(a.tables.size(), b.tables.size()) << "page " << p;
  }
}

// ---------------- full bootstrap pipeline ----------------

TEST(ConcurrencyTest, PipelineByteIdenticalAcrossThreadCounts) {
  const core::ProcessedCorpus corpus = MakeCorpus();

  core::Pipeline serial(SmallConfig(1));
  auto serial_result = serial.Run(corpus);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();

  core::Pipeline parallel(SmallConfig(4));
  auto parallel_result = parallel.Run(corpus);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();

  const core::PipelineResult& a = serial_result.value();
  const core::PipelineResult& b = parallel_result.value();

  // Seed, per-iteration triples, and the final set: exact equality,
  // element order included.
  EXPECT_EQ(a.seed_triples, b.seed_triples);
  ASSERT_EQ(a.triples_after.size(), b.triples_after.size());
  for (size_t i = 0; i < a.triples_after.size(); ++i) {
    EXPECT_EQ(a.triples_after[i], b.triples_after[i]) << "iteration " << i;
  }
  EXPECT_EQ(a.final_triples(), b.final_triples());
  EXPECT_EQ(a.known_pair_keys, b.known_pair_keys);

  // Final model weights: bitwise identical.
  auto* crf_a = dynamic_cast<crf::CrfTagger*>(a.final_tagger.get());
  auto* crf_b = dynamic_cast<crf::CrfTagger*>(b.final_tagger.get());
  ASSERT_NE(crf_a, nullptr);
  ASSERT_NE(crf_b, nullptr);
  const std::vector<double>& wa = crf_a->weights();
  const std::vector<double>& wb = crf_b->weights();
  ASSERT_EQ(wa.size(), wb.size());
  ASSERT_FALSE(wa.empty());
  EXPECT_EQ(0, std::memcmp(wa.data(), wb.data(),
                           wa.size() * sizeof(double)));
}

// ---------------- apply phase ----------------

TEST(ConcurrencyTest, ApplyByteIdenticalAcrossThreadCounts) {
  const core::ProcessedCorpus corpus = MakeCorpus();
  core::Pipeline pipeline(SmallConfig(1));
  auto result = pipeline.Run(corpus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().final_tagger, nullptr);
  const text::SequenceTagger& tagger = *result.value().final_tagger;

  core::ApplyOptions serial_options;
  serial_options.threads = 1;
  for (const std::string& key : result.value().known_pair_keys) {
    serial_options.accepted_pairs.insert(key);
  }
  core::ApplyOptions parallel_options = serial_options;
  parallel_options.threads = 4;

  const std::vector<core::Triple> serial_triples =
      core::ExtractWithModel(tagger, corpus, serial_options);
  const std::vector<core::Triple> parallel_triples =
      core::ExtractWithModel(tagger, corpus, parallel_options);
  ASSERT_FALSE(serial_triples.empty());
  EXPECT_EQ(serial_triples, parallel_triples);
}

// ---------------- CRF training ----------------

TEST(ConcurrencyTest, CrfTrainingWeightsBitIdenticalAcrossThreadCounts) {
  Rng rng(3);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < 120; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"重量", "は", v, "kg", "です"};
    seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
    seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
    data.push_back(std::move(seq));
  }
  std::vector<std::vector<double>> weights_by_threads;
  for (int threads : {1, 2, 4}) {
    crf::CrfOptions options;
    options.max_iterations = 25;
    options.threads = threads;
    crf::CrfTagger tagger(options);
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

// ---------------- sharded word2vec ----------------

TEST(ConcurrencyTest, ShardedWord2VecIdenticalAcrossThreadCounts) {
  Rng rng(9);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> sentence;
    for (int k = 0; k < 8; ++k) {
      sentence.push_back("w" + std::to_string(rng.NextBounded(150)));
    }
    corpus.push_back(std::move(sentence));
  }
  auto train_with = [&](int threads) {
    embed::Word2VecOptions options;
    options.dim = 16;
    options.epochs = 2;
    options.min_count = 1;
    options.shards = 8;
    options.threads = threads;
    embed::Word2Vec model(options);
    EXPECT_TRUE(model.Train(corpus).ok());
    return model;
  };
  const embed::Word2Vec serial = train_with(1);
  const embed::Word2Vec parallel = train_with(4);
  ASSERT_EQ(serial.vocab_size(), parallel.vocab_size());
  size_t compared = 0;
  for (int w = 0; w < 150; ++w) {
    const std::string word = "w" + std::to_string(w);
    const float* va = serial.Vector(word);
    const float* vb = parallel.Vector(word);
    ASSERT_EQ(va == nullptr, vb == nullptr) << word;
    if (va == nullptr) continue;
    EXPECT_EQ(0, std::memcmp(va, vb, serial.dim() * sizeof(float))) << word;
    ++compared;
  }
  EXPECT_GT(compared, 100u);
}

// ---------------- scheduling stress ----------------

TEST(ConcurrencyTest, StressManyTinyLoops) {
  // Thousands of tiny jobs exercise job hand-off, wake-up, and teardown
  // paths far more than a few big loops would.
  util::ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(0, 5, 1, [&](size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(std::memory_order_seq_cst), 2000u * 15u);
}

TEST(ConcurrencyTest, StressManyTinyPools) {
  for (int round = 0; round < 200; ++round) {
    util::ThreadPool pool(3);
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 16, 2, [&](size_t i) { sum += i; });
    ASSERT_EQ(sum.load(std::memory_order_seq_cst), 120u) << "round " << round;
  }
}

TEST(ConcurrencyTest, StressExceptionsUnderLoad) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    try {
      pool.ParallelFor(0, 64, 1, [&](size_t i) {
        if (i % 7 == 3) {
          throw std::runtime_error("i=" + std::to_string(i));
        }
      });
      FAIL() << "expected an exception in round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "i=3");  // lowest throwing chunk, always
    }
  }
}

}  // namespace
}  // namespace pae
