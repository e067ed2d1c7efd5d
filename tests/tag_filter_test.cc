// Differential tests for the shared tag → filter step: the compiled CRF
// path, which scores each group of sentences with equal compiled input
// once, must give every sentence exactly what the per-sentence
// uncompiled path gives it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/tag_filter.h"
#include "crf/compiled_corpus.h"
#include "crf/crf_tagger.h"
#include "text/labeled_sequence.h"
#include "text/negation.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pae {
namespace {

text::LabeledSequence Seq(std::vector<std::string> tokens,
                          std::vector<std::string> pos,
                          std::vector<std::string> labels = {},
                          int sentence_index = 0) {
  text::LabeledSequence seq;
  seq.tokens = std::move(tokens);
  seq.pos = std::move(pos);
  seq.labels = std::move(labels);
  seq.sentence_index = sentence_index;
  return seq;
}

/// "Farbe : <colour> ." and "Marke : <brand> ." sentences, plus
/// "Farbe : <word> ." left untagged for each of `rejected` (a value a
/// later generation learned is not a colour).
std::vector<text::LabeledSequence> TrainingSet(
    const std::vector<std::string>& rejected = {}) {
  const std::vector<std::string> colours = {"rot", "blau", "grün", "schwarz"};
  const std::vector<std::string> brands = {"Bosch", "Miele", "Dyson"};
  std::vector<text::LabeledSequence> data;
  for (int rep = 0; rep < 6; ++rep) {
    for (const std::string& colour : colours) {
      data.push_back(Seq({"Farbe", ":", colour, "."},
                         {"NN", "PUNCT", "ADJ", "PUNCT"},
                         {"O", "O", "B-Farbe", "O"}, rep % 3));
    }
    for (const std::string& word : rejected) {
      data.push_back(Seq({"Farbe", ":", word, "."},
                         {"NN", "PUNCT", "ADJ", "PUNCT"},
                         {"O", "O", "O", "O"}, rep % 3));
    }
    for (const std::string& brand : brands) {
      data.push_back(Seq({"Marke", ":", brand, "Staubsauger", "."},
                         {"NN", "PUNCT", "NE", "NN", "PUNCT"},
                         {"O", "O", "B-Marke", "O", "O"}, rep % 3));
    }
  }
  return data;
}

std::unique_ptr<crf::CrfTagger> Trained(
    const std::vector<text::LabeledSequence>& data, int window = 2) {
  crf::CrfOptions options;
  options.max_iterations = 40;
  options.features.window = window;
  auto tagger = std::make_unique<crf::CrfTagger>(options);
  EXPECT_TRUE(tagger->Train(data).ok());
  return tagger;
}

std::vector<const text::LabeledSequence*> Pointers(
    const std::vector<text::LabeledSequence>& sentences) {
  std::vector<const text::LabeledSequence*> out;
  for (const text::LabeledSequence& s : sentences) out.push_back(&s);
  return out;
}

void ExpectSameOutcome(const std::vector<core::FilteredSentence>& expected,
                       const std::vector<core::FilteredSentence>& actual,
                       const std::string& arm) {
  ASSERT_EQ(expected.size(), actual.size()) << arm;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].negated, actual[i].negated)
        << arm << " sentence " << i;
    EXPECT_EQ(expected[i].confidence_dropped, actual[i].confidence_dropped)
        << arm << " sentence " << i;
    ASSERT_EQ(expected[i].spans.size(), actual[i].spans.size())
        << arm << " sentence " << i;
    for (size_t k = 0; k < expected[i].spans.size(); ++k) {
      EXPECT_EQ(expected[i].spans[k].attribute, actual[i].spans[k].attribute)
          << arm << " sentence " << i << " span " << k;
      EXPECT_EQ(expected[i].spans[k].begin, actual[i].spans[k].begin)
          << arm << " sentence " << i << " span " << k;
      EXPECT_EQ(expected[i].spans[k].end, actual[i].spans[k].end)
          << arm << " sentence " << i << " span " << k;
    }
  }
}

/// Runs the compiled path through `cache` (built on first use, rebound
/// after) with no pool and with 1 and 4 threads, at confidence bars 0
/// and 0.6, and checks each arm against the uncompiled path. Returns
/// the uncompiled outcome at bar 0.
std::vector<core::FilteredSentence> ExpectCompiledMatchesUncompiled(
    const crf::CrfTagger& tagger,
    const std::vector<text::LabeledSequence>& sentences,
    crf::CompiledCorpus* cache) {
  const auto pointers = Pointers(sentences);
  const text::NegationDetector negation(text::Language::kDe);
  std::vector<core::FilteredSentence> reference_at_zero;
  for (double bar : {0.0, 0.6}) {
    std::vector<core::FilteredSentence> reference;
    const core::TagFilterTally reference_tally = core::TagAndFilter(
        tagger, pointers, &negation, bar, nullptr, nullptr, &reference);
    EXPECT_EQ(reference_tally.tagged,
              reference_tally.sentences - reference_tally.negation_dropped);
    if (bar == 0.0) reference_at_zero = reference;
    for (int threads : {0, 1, 4}) {
      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
      std::vector<core::FilteredSentence> compiled;
      const core::TagFilterTally tally = core::TagAndFilter(
          tagger, pointers, &negation, bar, cache, pool.get(), &compiled);
      const std::string arm = "bar " + std::to_string(bar) + " threads " +
                              std::to_string(threads);
      ExpectSameOutcome(reference, compiled, arm);
      EXPECT_EQ(tally.sentences, reference_tally.sentences) << arm;
      EXPECT_EQ(tally.negation_dropped, reference_tally.negation_dropped)
          << arm;
      EXPECT_EQ(tally.confidence_dropped, reference_tally.confidence_dropped)
          << arm;
      EXPECT_EQ(tally.spans, reference_tally.spans) << arm;
      EXPECT_LE(tally.tagged, reference_tally.tagged) << arm;
    }
  }
  return reference_at_zero;
}

bool SameSpans(const core::FilteredSentence& a,
               const core::FilteredSentence& b) {
  if (a.spans.size() != b.spans.size()) return false;
  for (size_t k = 0; k < a.spans.size(); ++k) {
    if (a.spans[k].attribute != b.spans[k].attribute ||
        a.spans[k].begin != b.spans[k].begin ||
        a.spans[k].end != b.spans[k].end) {
      return false;
    }
  }
  return true;
}

TEST(TagFilterTest, ExactDuplicatesScoredOnce) {
  const auto tagger = Trained(TrainingSet());
  const text::LabeledSequence colour =
      Seq({"Farbe", ":", "rot", "."}, {"NN", "PUNCT", "ADJ", "PUNCT"});
  const text::LabeledSequence brand =
      Seq({"Marke", ":", "Miele", "Staubsauger", "."},
          {"NN", "PUNCT", "NE", "NN", "PUNCT"});
  const std::vector<text::LabeledSequence> sentences = {colour, brand, colour,
                                                        colour, brand};
  crf::CompiledCorpus cache;
  const auto reference =
      ExpectCompiledMatchesUncompiled(*tagger, sentences, &cache);
  EXPECT_EQ(cache.num_stored(), 2u);
  EXPECT_EQ(cache.num_groups(), 2u);
  EXPECT_EQ(cache.group(0), cache.group(2));
  EXPECT_EQ(cache.group(1), cache.group(4));
  EXPECT_NE(cache.group(0), cache.group(1));
  ASSERT_EQ(reference[0].spans.size(), 1u);
  EXPECT_EQ(reference[0].spans[0].attribute, "Farbe");

  std::vector<core::FilteredSentence> out;
  const text::NegationDetector negation(text::Language::kDe);
  const core::TagFilterTally tally = core::TagAndFilter(
      *tagger, Pointers(sentences), &negation, 0.0, &cache, nullptr, &out);
  EXPECT_EQ(tally.sentences, 5);
  EXPECT_EQ(tally.tagged, 2);
}

TEST(TagFilterTest, TwinsDifferingInAnUnknownTokenShareAGroup) {
  const auto tagger = Trained(TrainingSet());
  // "qqq" and "zzz" are unknown to the model, and so is every window
  // feature naming them: the two sentences compile identically.
  const std::vector<text::LabeledSequence> sentences = {
      Seq({"Farbe", ":", "rot", "qqq", "."},
          {"NN", "PUNCT", "ADJ", "NN", "PUNCT"}),
      Seq({"Farbe", ":", "rot", "zzz", "."},
          {"NN", "PUNCT", "ADJ", "NN", "PUNCT"}),
  };
  crf::CompiledCorpus cache;
  const auto reference =
      ExpectCompiledMatchesUncompiled(*tagger, sentences, &cache);
  EXPECT_EQ(cache.num_stored(), 2u);
  EXPECT_EQ(cache.num_groups(), 1u);
  EXPECT_EQ(cache.group(0), cache.group(1));
  EXPECT_FALSE(reference[0].spans.empty());
}

TEST(TagFilterTest, NegationReadsEachTwinsOwnTokens) {
  const auto tagger = Trained(TrainingSet());
  // "nicht" is a negation cue the model never saw, so both orders put a
  // negated and a kept sentence into one group.
  const text::LabeledSequence kept = Seq(
      {"Farbe", ":", "rot", "qqq", "."}, {"NN", "PUNCT", "ADJ", "NN", "PUNCT"});
  const text::LabeledSequence negated =
      Seq({"Farbe", ":", "rot", "nicht", "."},
          {"NN", "PUNCT", "ADJ", "NN", "PUNCT"});
  for (const auto& sentences :
       {std::vector<text::LabeledSequence>{kept, negated},
        std::vector<text::LabeledSequence>{negated, kept}}) {
    crf::CompiledCorpus cache;
    const auto reference =
        ExpectCompiledMatchesUncompiled(*tagger, sentences, &cache);
    EXPECT_EQ(cache.num_groups(), 1u);
    EXPECT_NE(reference[0].negated, reference[1].negated);
    EXPECT_FALSE(reference[reference[0].negated ? 1 : 0].spans.empty());
  }
}

TEST(TagFilterTest, EqualFlatIdsWithOtherTokenBoundariesStayApart) {
  // Window 0: a token's features are w[0], p[0], pwin and sent. Bucket 5
  // is unknown to the model, and so are "zzz" and the tag "QQ". Both
  // sentences flatten to [w[0]=rot, p[0]=ADJ, pwin=ADJ], split 1+2 in
  // the first and 3+0 in the second.
  const auto tagger = Trained(TrainingSet(), /*window=*/0);
  const std::vector<text::LabeledSequence> sentences = {
      Seq({"rot", "zzz"}, {"QQ", "ADJ"}, {}, 5),
      Seq({"rot", "zzz"}, {"ADJ", "QQ"}, {}, 5),
  };
  crf::CompiledCorpus cache;
  cache.Build(Pointers(sentences), tagger->options().features);
  cache.Bind(tagger->model(), tagger->Generation());
  crf::CompiledSequence first, second;
  cache.Materialize(0, &first);
  cache.Materialize(1, &second);
  std::vector<int> first_flat, second_flat;
  for (const auto& token : first.features) {
    first_flat.insert(first_flat.end(), token.begin(), token.end());
  }
  for (const auto& token : second.features) {
    second_flat.insert(second_flat.end(), token.begin(), token.end());
  }
  ASSERT_EQ(first_flat, second_flat);
  ASSERT_NE(first.features, second.features);
  EXPECT_EQ(cache.num_groups(), 2u);
  EXPECT_NE(cache.group(0), cache.group(1));

  const auto a = tagger->PredictScored(sentences[0]);
  const auto b = tagger->PredictScored(sentences[1]);
  ASSERT_TRUE(a.labels != b.labels || a.confidence != b.confidence);
  ExpectCompiledMatchesUncompiled(*tagger, sentences, &cache);
}

TEST(TagFilterTest, RebindSplitsAGroupWhenANewFeatureIsLearned) {
  // Generation 1 knows neither "Kabel" nor "qqq": the two sentences
  // share a group. Generation 2 learned that "Kabel" is no colour, which
  // splits them.
  const std::vector<text::LabeledSequence> sentences = {
      Seq({"Farbe", ":", "Kabel", "."}, {"NN", "PUNCT", "ADJ", "PUNCT"}),
      Seq({"Farbe", ":", "qqq", "."}, {"NN", "PUNCT", "ADJ", "PUNCT"}),
  };
  crf::CompiledCorpus cache;
  const auto first = Trained(TrainingSet());
  ExpectCompiledMatchesUncompiled(*first, sentences, &cache);
  EXPECT_EQ(cache.num_groups(), 1u);

  const auto second = Trained(TrainingSet({"Kabel"}));
  ASSERT_NE(first->Generation(), second->Generation());
  const auto reference =
      ExpectCompiledMatchesUncompiled(*second, sentences, &cache);
  EXPECT_EQ(cache.num_groups(), 2u);
  EXPECT_NE(cache.group(0), cache.group(1));
  ASSERT_FALSE(SameSpans(reference[0], reference[1]));
}

TEST(TagFilterTest, RandomCorpusWithRepeatsAndUnknownNoise) {
  const auto tagger = Trained(TrainingSet());
  const std::vector<std::string> words = {
      "Farbe", ":", "rot", "blau", "Marke", "Miele", ".", "qqq", "zzz",
      "nicht", "Staubsauger"};
  const std::vector<std::string> tags = {"NN", "PUNCT", "ADJ", "NE"};
  Rng rng(7);
  std::vector<text::LabeledSequence> distinct;
  for (int i = 0; i < 40; ++i) {
    text::LabeledSequence seq;
    const int len = rng.NextInt(0, 7);
    for (int t = 0; t < len; ++t) {
      seq.tokens.push_back(words[rng.NextBounded(words.size())]);
      seq.pos.push_back(tags[rng.NextBounded(tags.size())]);
    }
    seq.sentence_index = rng.NextInt(0, 4);
    distinct.push_back(std::move(seq));
  }
  std::vector<text::LabeledSequence> sentences;
  for (int i = 0; i < 300; ++i) {
    sentences.push_back(distinct[rng.NextBounded(distinct.size())]);
  }
  crf::CompiledCorpus cache;
  ExpectCompiledMatchesUncompiled(*tagger, sentences, &cache);
  EXPECT_LE(cache.num_stored(), distinct.size());
  EXPECT_LE(cache.num_groups(), cache.num_stored());
}

}  // namespace
}  // namespace pae
