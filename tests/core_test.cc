#include <gtest/gtest.h>

#include <unordered_map>

#include "core/cleaning.h"
#include "core/document.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/normalize.h"
#include "core/preprocess.h"
#include "core/tag_filter.h"
#include "core/tagging.h"
#include "core/types.h"
#include "util/rng.h"

namespace pae::core {
namespace {

// ---------------- normalize ----------------

TEST(NormalizeTest, StripsSpacesAndLowercases) {
  EXPECT_EQ(NormalizeValue("2,5 kg"), "2,5kg");
  EXPECT_EQ(NormalizeValue("  A B C "), "abc");
  EXPECT_EQ(NormalizeValue("重量　5kg"), "重量5kg");  // ideographic space
  EXPECT_EQ(NormalizeValue(""), "");
}

TEST(NormalizeTest, PairKey) {
  EXPECT_EQ(PairKey("a", "b"), "a\tb");
}

// ---------------- distant supervision ----------------

text::LabeledSequence Sent(std::vector<std::string> tokens) {
  text::LabeledSequence seq;
  seq.tokens = std::move(tokens);
  seq.pos.assign(seq.tokens.size(), "NN");
  return seq;
}

std::vector<SeedPair> SimpleSeed() {
  return {
      {"色", {"赤"}, "赤"},
      {"重量", {"5", "kg"}, "5kg"},
      {"重量", {"2", ".", "5", "kg"}, "2.5kg"},
  };
}

TEST(DistantSupervisorTest, LabelsOccurrences) {
  DistantSupervisor ds(SimpleSeed());
  auto seq = Sent({"色", "は", "赤", "です"});
  EXPECT_EQ(ds.Label(&seq), 1);
  EXPECT_EQ(seq.labels,
            (std::vector<std::string>{"O", "O", "B-色", "O"}));
}

TEST(DistantSupervisorTest, MultiTokenValue) {
  DistantSupervisor ds(SimpleSeed());
  auto seq = Sent({"重量", "は", "5", "kg", "です"});
  ds.Label(&seq);
  EXPECT_EQ(seq.labels[2], "B-重量");
  EXPECT_EQ(seq.labels[3], "I-重量");
}

TEST(DistantSupervisorTest, LongestMatchWins) {
  DistantSupervisor ds(SimpleSeed());
  auto seq = Sent({"2", ".", "5", "kg"});
  EXPECT_EQ(ds.Label(&seq), 1);
  EXPECT_EQ(seq.labels,
            (std::vector<std::string>{"B-重量", "I-重量", "I-重量",
                                      "I-重量"}));
}

TEST(DistantSupervisorTest, PartialSuffixMatchIsTheDocumentedNoise) {
  // Without the decimal value in the seed, "2.5kg" gets its suffix
  // "5kg" tagged — the §VIII-A label-noise mechanism.
  DistantSupervisor ds({{"重量", {"5", "kg"}, "5kg"}});
  auto seq = Sent({"2", ".", "5", "kg"});
  EXPECT_EQ(ds.Label(&seq), 1);
  EXPECT_EQ(seq.labels,
            (std::vector<std::string>{"O", "O", "B-重量", "I-重量"}));
}

TEST(DistantSupervisorTest, NonOverlappingLeftToRight) {
  DistantSupervisor ds({{"a", {"x", "y"}, "xy"}, {"b", {"y", "z"}, "yz"}});
  auto seq = Sent({"x", "y", "z"});
  ds.Label(&seq);
  // "xy" claims positions 0-1; "yz" cannot overlap.
  EXPECT_EQ(seq.labels,
            (std::vector<std::string>{"B-a", "I-a", "O"}));
}

TEST(DistantSupervisorTest, EarlierPairWinsTies) {
  DistantSupervisor ds({{"first", {"v"}, "v"}, {"second", {"v"}, "v"}});
  auto seq = Sent({"v"});
  ds.Label(&seq);
  EXPECT_EQ(seq.labels[0], "B-first");
}

TEST(DistantSupervisorTest, EmptySentence) {
  DistantSupervisor ds(SimpleSeed());
  auto seq = Sent({});
  EXPECT_EQ(ds.Label(&seq), 0);
  EXPECT_TRUE(seq.labels.empty());
}

// ---------------- attribute aggregation ----------------

CandidateSet MakeCandidates(
    const std::vector<std::tuple<std::string, std::string, int>>& raw) {
  CandidateSet set;
  for (const auto& [attr, value, count] : raw) {
    CandidatePair pair;
    pair.attribute = attr;
    pair.value = value;
    pair.count = count;
    for (int i = 0; i < count; ++i) {
      pair.product_ids.push_back(std::string("p").append(std::to_string(i)));
    }
    set.pairs.push_back(std::move(pair));
  }
  return set;
}

TEST(AggregationTest, MergesHighOverlapSurfaces) {
  CandidateSet set = MakeCandidates({
      {"メーカー", "A社", 5},
      {"メーカー", "B社", 4},
      {"メーカー", "C社", 3},
      {"製造元", "A社", 2},
      {"製造元", "B社", 2},
      {"カラー", "赤", 6},
      {"カラー", "青", 5},
  });
  auto mapping = AggregateAttributes(set, AggregationConfig{});
  EXPECT_EQ(mapping.at("製造元"), "メーカー");  // higher support wins
  EXPECT_EQ(mapping.at("メーカー"), "メーカー");
  EXPECT_EQ(mapping.at("カラー"), "カラー");    // disjoint stays apart
}

TEST(AggregationTest, NoMergeWithoutOverlap) {
  CandidateSet set = MakeCandidates({
      {"a", "v1", 3},
      {"a", "v2", 3},
      {"b", "w1", 3},
      {"b", "w2", 3},
  });
  auto mapping = AggregateAttributes(set, AggregationConfig{});
  EXPECT_EQ(mapping.at("a"), "a");
  EXPECT_EQ(mapping.at("b"), "b");
}

TEST(AggregationTest, ThresholdControlsMerging) {
  CandidateSet set = MakeCandidates({
      {"a", "shared", 3},
      {"a", "v1", 3},
      {"a", "v2", 3},
      {"a", "v3", 3},
      {"b", "shared", 3},
      {"b", "w1", 3},
      {"b", "w2", 3},
      {"b", "w3", 3},
  });
  AggregationConfig strict;
  strict.threshold = 0.9;
  auto mapping = AggregateAttributes(set, strict);
  EXPECT_EQ(mapping.at("a"), "a");
  EXPECT_EQ(mapping.at("b"), "b");
}

// ---------------- veto rules ----------------

TaggedCandidate Cand(const std::string& attr,
                     std::vector<std::string> tokens, int items) {
  TaggedCandidate c;
  c.attribute = attr;
  c.value_tokens = std::move(tokens);
  std::string display;
  for (const auto& t : c.value_tokens) display += t;
  c.value_display = display;
  c.item_count = items;
  return c;
}

TEST(VetoTest, SymbolEntitiesRemoved) {
  CleaningStats stats;
  auto out = ApplyVetoRules({Cand("a", {";"}, 5), Cand("a", {"赤"}, 5)},
                            VetoConfig{}, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value_display, "赤");
  EXPECT_EQ(stats.veto_symbol, 1u);
}

TEST(VetoTest, MarkupRemoved) {
  CleaningStats stats;
  auto out = ApplyVetoRules(
      {Cand("a", {"<b>", "赤"}, 5), Cand("a", {"★", "白"}, 5),
       Cand("a", {"青"}, 5)},
      VetoConfig{}, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.veto_markup, 2u);
}

TEST(VetoTest, LongValuesRemoved) {
  CleaningStats stats;
  std::string long_token(40, 'x');
  auto out = ApplyVetoRules(
      {Cand("a", {long_token}, 5), Cand("a", {"ok"}, 5)}, VetoConfig{},
      &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.veto_long, 1u);
}

TEST(VetoTest, LengthIsMeasuredInCodepoints) {
  CleaningStats stats;
  // 29 CJK chars = 87 bytes but below the 30-codepoint limit.
  std::string cjk;
  for (int i = 0; i < 29; ++i) cjk += "赤";
  auto out =
      ApplyVetoRules({Cand("a", {cjk}, 5)}, VetoConfig{}, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.veto_long, 0u);
}

TEST(VetoTest, UnpopularTailRemoved) {
  CleaningStats stats;
  std::vector<TaggedCandidate> candidates;
  for (int i = 0; i < 10; ++i) {
    candidates.push_back(
        Cand("a", {"v" + std::to_string(i)}, 100 - i * 10));
  }
  auto out = ApplyVetoRules(std::move(candidates), VetoConfig{}, &stats);
  EXPECT_EQ(out.size(), 8u);  // top 80 %
  EXPECT_EQ(stats.veto_unpopular, 2u);
  for (const auto& c : out) EXPECT_GT(c.item_count, 10);
}

TEST(VetoTest, UnpopularRuleIsPerAttribute) {
  CleaningStats stats;
  std::vector<TaggedCandidate> candidates;
  for (int i = 0; i < 5; ++i) {
    candidates.push_back(Cand("a", {"a" + std::to_string(i)}, 10 - i));
    candidates.push_back(Cand("b", {"b" + std::to_string(i)}, 10 - i));
  }
  auto out = ApplyVetoRules(std::move(candidates), VetoConfig{}, &stats);
  EXPECT_EQ(out.size(), 8u);  // ceil(0.8·5)=4 per attribute
}

TEST(VetoTest, VetoIsMonotoneInKeepFraction) {
  // Property: a larger keep fraction never yields fewer survivors.
  std::vector<TaggedCandidate> base;
  for (int i = 0; i < 12; ++i) {
    base.push_back(Cand("a", {"v" + std::to_string(i)}, 50 - i));
  }
  size_t prev = 0;
  for (double keep : {0.2, 0.5, 0.8, 1.0}) {
    CleaningStats stats;
    VetoConfig config;
    config.unpopular_keep_fraction = keep;
    auto out = ApplyVetoRules(base, config, &stats);
    EXPECT_GE(out.size(), prev);
    prev = out.size();
  }
}

// ---------------- semantic cleaner ----------------

TEST(SemanticCleanerTest, MergedToken) {
  EXPECT_EQ(SemanticCleaner::MergedToken({"solo"}), "solo");
  EXPECT_EQ(SemanticCleaner::MergedToken({"100", "%", "cotton"}),
            "100_%_cotton");
}

TEST(SemanticCleanerTest, RemovesDriftedValues) {
  // Build a corpus where colors live in color contexts and one drifted
  // word ("flower") lives in a different context.
  Corpus corpus;
  corpus.category = "t";
  corpus.language = text::Language::kDe;
  Rng rng(13);
  const std::vector<std::string> colors = {"rot", "blau", "gruen", "weiss"};
  for (int i = 0; i < 500; ++i) {
    ProductPage page;
    page.product_id = std::string("p").append(std::to_string(i));
    const std::string c1 = colors[rng.NextBounded(4)];
    const std::string c2 = colors[rng.NextBounded(4)];
    page.html = "<p>farbe ist " + c1 + " und " + c2 + " lack.</p>" +
                "<p>blume hat form rosette und blatt stern garten.</p>";
    corpus.pages.push_back(std::move(page));
  }
  ProcessedCorpus processed = IngestCorpus(corpus, {}).corpus;

  SemanticCleaner::Config config;
  config.threshold = 0.5;
  config.word2vec.dim = 24;
  config.word2vec.epochs = 6;
  SemanticCleaner cleaner(config);
  std::vector<SeedPair> merge;
  ASSERT_TRUE(cleaner.Train(processed, merge).ok());

  std::unordered_map<std::string, std::vector<std::vector<std::string>>>
      known;
  known["farbe"] = {{"rot"}, {"blau"}, {"gruen"}};

  CleaningStats stats;
  auto out = cleaner.Filter(
      {Cand("farbe", {"weiss"}, 5), Cand("farbe", {"rosette"}, 5)}, known,
      &stats);
  // The in-topic value survives; the drifted one is removed.
  bool weiss_kept = false, rosette_kept = false;
  for (const auto& c : out) {
    if (c.value_display == "weiss") weiss_kept = true;
    if (c.value_display == "rosette") rosette_kept = true;
  }
  EXPECT_TRUE(weiss_kept);
  EXPECT_FALSE(rosette_kept);
  EXPECT_EQ(stats.semantic_removed, 1u);
}

TEST(SemanticCleanerTest, SmallCoreSkipsFiltering) {
  Corpus corpus;
  corpus.language = text::Language::kDe;
  ProductPage page;
  page.product_id = "p";
  page.html = "<p>a b c d e f g h.</p>";
  corpus.pages.assign(30, page);
  ProcessedCorpus processed = IngestCorpus(corpus, {}).corpus;
  SemanticCleaner cleaner(SemanticCleaner::Config{});
  ASSERT_TRUE(cleaner.Train(processed, {}).ok());
  std::unordered_map<std::string, std::vector<std::vector<std::string>>>
      known;  // no known values at all
  CleaningStats stats;
  auto out = cleaner.Filter({Cand("x", {"a"}, 3)}, known, &stats);
  EXPECT_EQ(out.size(), 1u);  // kept: no reliable core
}

TEST(SemanticCleanerTest, CachedNormScoringMatchesPerPairCosines) {
  // Filter now normalizes the core embeddings once per pass and scores
  // candidates with a single MatVec instead of per-pair cosine calls
  // that recompute both norms every time. This replays the filtering
  // decision with the naive per-pair formula and asserts both agree.
  Corpus corpus;
  corpus.category = "t";
  corpus.language = text::Language::kDe;
  Rng rng(13);
  const std::vector<std::string> colors = {"rot", "blau", "gruen", "weiss"};
  for (int i = 0; i < 300; ++i) {
    ProductPage page;
    page.product_id = std::string("p").append(std::to_string(i));
    const std::string c1 = colors[rng.NextBounded(4)];
    const std::string c2 = colors[rng.NextBounded(4)];
    page.html = "<p>farbe ist " + c1 + " und " + c2 + " lack.</p>" +
                "<p>blume hat form rosette und blatt stern garten.</p>";
    corpus.pages.push_back(std::move(page));
  }
  ProcessedCorpus processed = IngestCorpus(corpus, {}).corpus;

  SemanticCleaner::Config config;
  config.threshold = 0.5;
  config.core_size = 0;  // core = every in-vocab known value (replayable)
  config.word2vec.dim = 24;
  config.word2vec.epochs = 6;
  SemanticCleaner cleaner(config);
  ASSERT_TRUE(cleaner.Train(processed, {}).ok());

  std::unordered_map<std::string, std::vector<std::vector<std::string>>>
      known;
  known["farbe"] = {{"rot"}, {"blau"}, {"gruen"}, {"weiss"}};
  const std::vector<TaggedCandidate> candidates = {
      Cand("farbe", {"rot"}, 5),     Cand("farbe", {"lack"}, 4),
      Cand("farbe", {"rosette"}, 3), Cand("farbe", {"stern"}, 2),
      Cand("farbe", {"garten"}, 2),  Cand("farbe", {"blatt"}, 1)};

  CleaningStats stats;
  const auto kept = cleaner.Filter(candidates, known, &stats);
  std::unordered_set<std::string> kept_values;
  for (const auto& c : kept) kept_values.insert(c.value_display);

  // Naive replica: per-pair similarities, norms recomputed every call.
  const embed::Word2Vec& model = cleaner.model();
  std::vector<std::string> core;
  for (const auto& tokens : known["farbe"]) {
    const std::string merged = SemanticCleaner::MergedToken(tokens);
    if (model.Contains(merged)) core.push_back(merged);
  }
  ASSERT_GE(core.size(), 3u);
  auto naive_score = [&](const std::string& value) {
    double log_sum = 0;
    int n = 0;
    for (const std::string& member : core) {
      if (member == value) continue;
      const double cos = model.Similarity(value, member);
      log_sum += std::log(std::max(1e-6, (cos + 1.0) / 2.0));
      ++n;
    }
    return (n > 0) ? std::exp(log_sum / n) : 1.0;
  };
  double cohesion = 0;
  for (const std::string& member : core) cohesion += naive_score(member);
  cohesion /= static_cast<double>(core.size());
  const double bar = std::max(config.threshold,
                              config.relative_alpha * cohesion);
  size_t expected_removed = 0;
  for (const auto& c : candidates) {
    const std::string merged = SemanticCleaner::MergedToken(c.value_tokens);
    const bool expect_keep =
        !model.Contains(merged) || naive_score(merged) >= bar;
    EXPECT_EQ(kept_values.count(c.value_display) > 0, expect_keep)
        << c.value_display;
    if (!expect_keep) ++expected_removed;
  }
  EXPECT_EQ(stats.semantic_removed, expected_removed);
}

// ---------------- evaluation ----------------

TruthSample MakeTruth() {
  TruthSample truth;
  truth.attribute_aliases["色"] = "カラー";
  truth.attribute_aliases["カラー"] = "カラー";
  auto add = [&](const std::string& pid, const std::string& attr,
                 const std::string& value, bool correct) {
    TruthEntry e;
    e.triple = {pid, attr, value};
    e.triple_correct = correct;
    truth.entries.push_back(e);
    if (correct) {
      truth.valid_pairs.insert(
          PairKey(truth.Canonical(attr), NormalizeValue(value)));
    }
  };
  add("p1", "カラー", "赤", true);
  add("p1", "重量", "5kg", true);
  add("p2", "カラー", "青", true);
  add("p2", "カラー", "偽", false);
  return truth;
}

TEST(EvalTest, CorrectIncorrectMaybeUnjudged) {
  TruthSample truth = MakeTruth();
  std::vector<Triple> triples = {
      {"p1", "カラー", "赤"},   // correct
      {"p2", "カラー", "偽"},   // judged incorrect
      {"p1", "カラー", "白"},   // maybe incorrect (same pid+attr)
      {"p9", "カラー", "赤"},   // unjudged (unknown product)
  };
  TripleMetrics m = EvaluateTriples(triples, truth, 10);
  EXPECT_EQ(m.total, 4u);
  EXPECT_EQ(m.correct, 1u);
  EXPECT_EQ(m.incorrect, 1u);
  EXPECT_EQ(m.maybe_incorrect, 1u);
  EXPECT_EQ(m.unjudged, 1u);
  EXPECT_NEAR(m.precision, 100.0 / 3.0, 1e-9);
  EXPECT_EQ(m.covered_products, 3u);
  EXPECT_NEAR(m.coverage, 30.0, 1e-9);
}

TEST(EvalTest, AliasAndNormalizationApplied) {
  TruthSample truth = MakeTruth();
  // Surface name 色 and a spaced value still match.
  std::vector<Triple> triples = {{"p1", "色", " 赤 "}};
  TripleMetrics m = EvaluateTriples(triples, truth, 10);
  EXPECT_EQ(m.correct, 1u);
}

TEST(EvalTest, DuplicateTriplesCountedOnce) {
  TruthSample truth = MakeTruth();
  std::vector<Triple> triples = {{"p1", "カラー", "赤"},
                                 {"p1", "色", "赤"}};
  TripleMetrics m = EvaluateTriples(triples, truth, 10);
  EXPECT_EQ(m.total, 1u);
}

TEST(EvalTest, EmptySystemOutput) {
  TripleMetrics m = EvaluateTriples({}, MakeTruth(), 10);
  EXPECT_EQ(m.total, 0u);
  EXPECT_EQ(m.precision, 0.0);
  EXPECT_EQ(m.coverage, 0.0);
}

TEST(EvalTest, PairPrecision) {
  TruthSample truth = MakeTruth();
  std::vector<AttributeValue> pairs = {
      {"カラー", "赤"},  // valid
      {"色", "青"},      // valid via alias
      {"カラー", "紫"},  // not a valid pair
  };
  PairMetrics m = EvaluatePairs(pairs, truth);
  EXPECT_EQ(m.total, 3u);
  EXPECT_EQ(m.valid, 2u);
  EXPECT_NEAR(m.precision, 200.0 / 3.0, 1e-9);
}

TEST(EvalTest, PerAttributeCoverage) {
  TruthSample truth = MakeTruth();
  std::vector<Triple> triples = {
      {"p1", "カラー", "赤"},
      {"p2", "色", "青"},
      {"p1", "重量", "5kg"},
  };
  auto coverage = PerAttributeCoverage(triples, truth, 10);
  EXPECT_NEAR(coverage["カラー"], 20.0, 1e-9);  // p1+p2, alias folded
  EXPECT_NEAR(coverage["重量"], 10.0, 1e-9);
}

// ---------------- document processing ----------------

TEST(DocumentTest, ProcessesPagesIntoSentences) {
  Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"重量", "です"};
  ProductPage page;
  page.product_id = "p1";
  page.html =
      "<html><body><p>重量は5kgです。</p>"
      "<table><tr><th>重量</th><td>5kg</td></tr>"
      "<tr><th>色</th><td>赤</td></tr></table></body></html>";
  corpus.pages.push_back(page);
  ProcessedCorpus processed = IngestCorpus(corpus, {}).corpus;
  ASSERT_EQ(processed.pages.size(), 1u);
  EXPECT_EQ(processed.pages[0].tables.size(), 1u);
  ASSERT_FALSE(processed.pages[0].sentences.empty());
  const auto& first = processed.pages[0].sentences[0];
  EXPECT_EQ(first.tokens[0], "重量");
  EXPECT_EQ(first.pos.size(), first.tokens.size());
}

TEST(DocumentTest, DetokenizeByLanguage) {
  // A span's surface value joins its tokens without a separator for
  // Japanese and with single spaces otherwise.
  text::LabeledSequence sentence;
  sentence.tokens = {"x", "a", "b"};
  const text::ValueSpan span{"attr", 1, 3};
  SpanValue value;
  ReadSpanValue(sentence, span, text::Language::kJa, &value);
  EXPECT_EQ(value.tokens, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(value.display, "ab");
  ReadSpanValue(sentence, span, text::Language::kDe, &value);
  EXPECT_EQ(value.display, "a b");
  EXPECT_EQ(value.key, PairKey("attr", NormalizeValue("a b")));
}

}  // namespace
}  // namespace pae::core
