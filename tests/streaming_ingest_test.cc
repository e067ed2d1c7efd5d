// Byte-equality proof for the streaming ingestion (core/ingest.h): the
// single-pass pipeline (and its on-disk streaming variant) must produce
// memcmp-identical ProcessedCorpus, CandidateSet, Vocab, and Seed
// artifacts to the barrier pipeline (LoadCorpus → the tests/support
// oracle::ProcessCorpus → DiscoverCandidates → BuildSeed) at every
// thread count.

#include "core/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/corpus_io.h"
#include "core/document.h"
#include "core/preprocess.h"
#include "datagen/generator.h"
#include "support/oracle.h"
#include "text/vocab.h"

namespace pae::core {
namespace {

namespace fs = std::filesystem;

datagen::GeneratedCategory MakeCategory(int products, uint64_t seed) {
  datagen::GeneratorConfig config;
  config.num_products = products;
  config.seed = seed;
  return datagen::GenerateCategory(datagen::CategoryId::kDigitalCameras,
                                   config);
}

// Field-for-field serializations: string equality below is
// byte-equality of everything the downstream pipeline can observe.

std::string Serialize(const ProcessedCorpus& corpus) {
  std::ostringstream os;
  os << corpus.category << '\x1f' << static_cast<int>(corpus.language)
     << '\x1f';
  for (const std::string& q : corpus.query_log) os << q << '\x1f';
  for (const ProcessedPage& page : corpus.pages) {
    os << "\x1e" << page.product_id << '\x1f';
    for (const auto& sentence : page.sentences) {
      os << sentence.sentence_index << '\x1f';
      for (const auto& token : sentence.tokens) os << token << '\x1f';
      for (const auto& tag : sentence.pos) os << tag << '\x1f';
    }
    for (const auto& table : page.tables) {
      for (const auto& [name, value] : table.entries) {
        os << name << '\x1f' << value << '\x1f';
      }
    }
  }
  return os.str();
}

std::string Serialize(const CandidateSet& candidates) {
  std::ostringstream os;
  for (const CandidatePair& pair : candidates.pairs) {
    os << pair.attribute << '\x1f' << pair.value << '\x1f' << pair.count
       << '\x1f';
    for (const std::string& pid : pair.product_ids) os << pid << '\x1f';
    os << '\x1e';
  }
  return os.str();
}

std::string Serialize(const text::Vocab& vocab) {
  std::ostringstream os;
  for (size_t id = 0; id < vocab.size(); ++id) {
    os << vocab.Word(static_cast<int32_t>(id)) << '\x1f';
  }
  return os.str();
}

std::string Serialize(const Seed& seed) {
  std::ostringstream os;
  os << seed.candidates_before_cleaning << '\x1f'
     << seed.pairs_after_cleaning << '\x1f'
     << seed.pairs_added_by_diversification << '\x1f';
  for (const SeedPair& pair : seed.pairs) {
    os << pair.attribute << '\x1f' << pair.value_display << '\x1f';
    for (const std::string& token : pair.value_tokens) os << token << '\x1f';
    os << '\x1e';
  }
  for (const Triple& t : seed.table_triples) {
    os << t.product_id << '\x1f' << t.attribute << '\x1f' << t.value
       << '\x1e';
  }
  for (const std::string& attribute : seed.attributes) {
    os << attribute << '\x1f';
  }
  std::vector<std::pair<std::string, std::string>> reps(
      seed.surface_to_rep.begin(), seed.surface_to_rep.end());
  std::sort(reps.begin(), reps.end());
  for (const auto& [surface, rep] : reps) {
    os << surface << '\x1f' << rep << '\x1f';
  }
  return os.str();
}

/// The barrier pipeline's token vocabulary: a serial GetOrAdd over
/// every token in page-major order.
text::Vocab SerialVocab(const ProcessedCorpus& corpus) {
  text::Vocab vocab;
  for (const ProcessedPage& page : corpus.pages) {
    for (const auto& sentence : page.sentences) {
      for (const std::string& token : sentence.tokens) {
        vocab.GetOrAdd(token);
      }
    }
  }
  return vocab;
}

TEST(StreamingIngestTest, MatchesBarrierPipelineAtEveryThreadCount) {
  const datagen::GeneratedCategory category = MakeCategory(120, 4242);

  // Barrier reference: the existing four-phase pipeline, single thread.
  const ProcessedCorpus barrier = oracle::ProcessCorpus(category.corpus, 1);
  const std::string barrier_corpus_bytes = Serialize(barrier);
  const std::string barrier_candidates_bytes =
      Serialize(DiscoverCandidates(barrier));
  const std::string barrier_vocab_bytes = Serialize(SerialVocab(barrier));
  const std::string barrier_seed_bytes =
      Serialize(BuildSeed(barrier, PreprocessConfig{}));
  ASSERT_FALSE(barrier_candidates_bytes.empty());
  ASSERT_FALSE(barrier_vocab_bytes.empty());

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.threads = threads;
    const IngestedCorpus ingested = IngestCorpus(category.corpus, options);
    EXPECT_EQ(Serialize(ingested.corpus), barrier_corpus_bytes);
    EXPECT_EQ(Serialize(ingested.candidates), barrier_candidates_bytes);
    EXPECT_EQ(Serialize(ingested.token_vocab), barrier_vocab_bytes);
    EXPECT_EQ(Serialize(BuildSeedFromCandidates(
                  ingested.corpus, ingested.candidates, PreprocessConfig{})),
              barrier_seed_bytes);
  }
}

TEST(StreamingIngestTest, GermanCategoryMatchesBarrierPipeline) {
  // Latin-tokenizer coverage: the Japanese default above never touches
  // the LatinTokenizer arm of the fused segmenter.
  datagen::GeneratorConfig config;
  config.num_products = 90;
  config.seed = 1337;
  const datagen::GeneratedCategory category = datagen::GenerateCategory(
      datagen::CategoryId::kCoffeeMachinesDe, config);
  ASSERT_EQ(category.corpus.language, text::Language::kDe);

  const ProcessedCorpus barrier = oracle::ProcessCorpus(category.corpus, 1);
  const std::string barrier_corpus_bytes = Serialize(barrier);
  const std::string barrier_candidates_bytes =
      Serialize(DiscoverCandidates(barrier));
  const std::string barrier_vocab_bytes = Serialize(SerialVocab(barrier));
  ASSERT_FALSE(barrier_candidates_bytes.empty());

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.threads = threads;
    const IngestedCorpus ingested = IngestCorpus(category.corpus, options);
    EXPECT_EQ(Serialize(ingested.corpus), barrier_corpus_bytes);
    EXPECT_EQ(Serialize(ingested.candidates), barrier_candidates_bytes);
    EXPECT_EQ(Serialize(ingested.token_vocab), barrier_vocab_bytes);
  }
}

TEST(StreamingIngestTest, DiskStreamingMatchesInMemoryIngestion) {
  const datagen::GeneratedCategory category = MakeCategory(80, 777);
  const std::string dir =
      (fs::temp_directory_path() / "pae_streaming_ingest").string();
  fs::remove_all(dir);
  ASSERT_TRUE(SaveCorpus(category.corpus, dir).ok());

  // The on-disk round trip may reorder/rename nothing, but go through
  // LoadCorpus once so the reference saw exactly the same bytes.
  auto loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok());
  IngestOptions serial;
  serial.threads = 1;
  const IngestedCorpus reference = IngestCorpus(loaded.value(), serial);
  const std::string corpus_bytes = Serialize(reference.corpus);
  const std::string candidates_bytes = Serialize(reference.candidates);
  const std::string vocab_bytes = Serialize(reference.token_vocab);

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.threads = threads;
    auto streamed = IngestCorpusDir(dir, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(Serialize(streamed.value().corpus), corpus_bytes);
    EXPECT_EQ(Serialize(streamed.value().candidates), candidates_bytes);
    EXPECT_EQ(Serialize(streamed.value().token_vocab), vocab_bytes);
  }
  fs::remove_all(dir);
}

TEST(StreamingIngestTest, MissingDirectoryFailsLikeLoadCorpus) {
  IngestOptions options;
  auto result = IngestCorpusDir(
      (fs::temp_directory_path() / "pae_ingest_missing").string(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), LoadCorpus("/nonexistent").status().code());
}

}  // namespace
}  // namespace pae::core
