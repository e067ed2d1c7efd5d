#include <gtest/gtest.h>

#include "embed/word2vec.h"
#include "support/word2vec_oracle.h"
#include "util/rng.h"

namespace pae::embed {
namespace {

/// Builds a corpus with two disjoint "topics": color words co-occur with
/// color contexts, weight words with weight contexts. Word2vec should
/// place same-topic words closer than cross-topic words.
std::vector<std::vector<std::string>> TopicCorpus(int n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> colors = {"red", "blue", "green", "white"};
  const std::vector<std::string> weights = {"5kg", "3kg", "7kg", "2kg"};
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) {
      corpus.push_back({"the", "color", "is", colors[rng.NextBounded(4)],
                        "and", "also", colors[rng.NextBounded(4)],
                        "paint"});
    } else {
      corpus.push_back({"the", "weight", "is", weights[rng.NextBounded(4)],
                        "and", "heavy", weights[rng.NextBounded(4)],
                        "scale"});
    }
  }
  return corpus;
}

Word2VecOptions SmallOptions() {
  Word2VecOptions options;
  options.dim = 24;
  options.epochs = 8;
  options.window = 3;
  options.min_count = 2;
  options.seed = 11;
  return options;
}

TEST(Word2VecTest, TrainsAndExposesVectors) {
  Word2Vec model(SmallOptions());
  ASSERT_TRUE(model.Train(TopicCorpus(600, 3)).ok());
  EXPECT_TRUE(model.Contains("red"));
  EXPECT_TRUE(model.Contains("5kg"));
  EXPECT_NE(model.Vector("red"), nullptr);
  EXPECT_EQ(model.Vector("nonexistent"), nullptr);
}

TEST(Word2VecTest, SameTopicWordsCloserThanCrossTopic) {
  Word2Vec model(SmallOptions());
  ASSERT_TRUE(model.Train(TopicCorpus(800, 4)).ok());
  const double same_color = model.Similarity("red", "blue");
  const double same_weight = model.Similarity("5kg", "3kg");
  const double cross = model.Similarity("red", "5kg");
  EXPECT_GT(same_color, cross);
  EXPECT_GT(same_weight, cross);
}

TEST(Word2VecTest, SelfSimilarityIsOne) {
  Word2Vec model(SmallOptions());
  ASSERT_TRUE(model.Train(TopicCorpus(300, 5)).ok());
  EXPECT_NEAR(model.Similarity("red", "red"), 1.0, 1e-9);
}

TEST(Word2VecTest, OovSimilarityIsZero) {
  Word2Vec model(SmallOptions());
  ASSERT_TRUE(model.Train(TopicCorpus(300, 6)).ok());
  EXPECT_EQ(model.Similarity("red", "zzz"), 0.0);
}

TEST(Word2VecTest, MinCountDropsRareWords) {
  Word2VecOptions options = SmallOptions();
  options.min_count = 100;  // drop everything rare
  Word2Vec model(options);
  std::vector<std::vector<std::string>> corpus = TopicCorpus(30, 7);
  corpus.push_back({"hapax", "legomenon"});
  // Words above the threshold exist only if frequent enough.
  Status status = model.Train(corpus);
  if (status.ok()) {
    EXPECT_FALSE(model.Contains("hapax"));
  }
}

TEST(Word2VecTest, EmptyCorpusRejected) {
  Word2Vec model(SmallOptions());
  EXPECT_FALSE(model.Train({}).ok());
}

TEST(Word2VecTest, DeterministicGivenSeed) {
  Word2Vec a(SmallOptions()), b(SmallOptions());
  ASSERT_TRUE(a.Train(TopicCorpus(200, 8)).ok());
  ASSERT_TRUE(b.Train(TopicCorpus(200, 8)).ok());
  EXPECT_DOUBLE_EQ(a.Similarity("red", "blue"), b.Similarity("red", "blue"));
}

// ---------------- the pair kernel vs the per-sample trainer ----------

/// Word2Vec::Train must give every word exactly the vector the
/// per-sample Dot/Axpy trainer gives it.
void ExpectMatchesPerSampleTrainer(
    const Word2VecOptions& options,
    const std::vector<std::vector<std::string>>& corpus) {
  Word2Vec model(options);
  ASSERT_TRUE(model.Train(corpus).ok());
  const auto want = oracle::PerSampleWord2Vec(options, corpus);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(model.vocab_size(), want.size() + 1);  // + <unk>
  for (const auto& [word, vec] : want) {
    const float* got = model.Vector(word);
    ASSERT_NE(got, nullptr) << word;
    EXPECT_EQ(std::vector<float>(got, got + model.dim()), vec) << word;
  }
}

TEST(Word2VecTest, MatchesPerSampleTrainerBitForBit) {
  // Dimensions with and without an 8-lane tail, the bootstrap's 32
  // among them; sharded epochs train private copies and merge them.
  for (int dim : {8, 13, 32, 50, 64}) {
    for (int shards : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "dim=" << dim
                                        << " shards=" << shards);
      Word2VecOptions options = SmallOptions();
      options.dim = dim;
      options.epochs = 3;
      options.shards = shards;
      options.threads = 2;
      ExpectMatchesPerSampleTrainer(options, TopicCorpus(300, 12));
    }
  }
}

TEST(Word2VecTest, RepeatedNegativesMatchPerSampleTrainer) {
  // Three words and 12 negatives per pair: almost every pair draws some
  // row more than once, and many draws hit the context word and are
  // skipped. A repeated target must see its earlier update.
  Rng rng(21);
  const std::vector<std::string> words = {"a", "b", "c"};
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> sentence;
    for (int k = 0; k < 6; ++k) sentence.push_back(words[rng.NextBounded(3)]);
    corpus.push_back(std::move(sentence));
  }
  Word2VecOptions options = SmallOptions();
  options.dim = 13;
  options.negative = 12;
  options.min_count = 1;
  options.subsample = 0;
  for (int shards : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    options.shards = shards;
    ExpectMatchesPerSampleTrainer(options, corpus);
  }
}

TEST(Word2VecTest, CosineStaticHelper) {
  const float a[2] = {1.0f, 0.0f};
  const float b[2] = {0.0f, 2.0f};
  EXPECT_NEAR(Word2Vec::Cosine(a, a, 2), 1.0, 1e-9);
  EXPECT_NEAR(Word2Vec::Cosine(a, b, 2), 0.0, 1e-9);
}

}  // namespace
}  // namespace pae::embed
