// Unit tests for the §V-A seed-construction chain on hand-built
// corpora: candidate discovery, aggregation edge cases, value cleaning,
// and value diversification.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/document.h"
#include "core/ingest.h"
#include "core/preprocess.h"

namespace pae::core {
namespace {

/// Builds a corpus whose pages each contain exactly one dictionary
/// table with the given rows (and a matching text mention per row).
ProcessedCorpus TableCorpus(
    const std::vector<std::vector<std::pair<std::string, std::string>>>&
        pages,
    std::vector<std::string> queries = {},
    text::Language language = text::Language::kJa) {
  Corpus corpus;
  corpus.language = language;
  corpus.query_log = std::move(queries);
  corpus.tokenizer_lexicon = {"重量", "カラー", "色",  "です",
                              "容量", "サイズ", "備考"};
  int id = 0;
  for (const auto& rows : pages) {
    ProductPage page;
    page.product_id = "p" + std::to_string(id++);
    std::string html = "<table>";
    for (const auto& [k, v] : rows) {
      html += "<tr><th>" + k + "</th><td>" + v + "</td></tr>";
    }
    // Structural padding: single-row grids are not dictionary-form
    // (by design), and empty cells are skipped by extraction.
    html += "<tr><th>空欄</th><td></td></tr>";
    html += "</table>";
    for (const auto& [k, v] : rows) {
      html += "<p>" + k + "は" + v + "です。</p>";
    }
    page.html = html;
    corpus.pages.push_back(std::move(page));
  }
  return IngestCorpus(corpus, {}).corpus;
}

TEST(DiscoverCandidatesTest, CountsAndProducts) {
  ProcessedCorpus corpus = TableCorpus({
      {{"カラー", "赤"}, {"重量", "5kg"}},
      {{"カラー", "赤"}},
      {{"カラー", "青"}},
  });
  CandidateSet set = DiscoverCandidates(corpus);
  ASSERT_EQ(set.pairs.size(), 3u);
  // Sorted by support: (カラー, 赤) has count 2.
  EXPECT_EQ(set.pairs[0].attribute, "カラー");
  EXPECT_EQ(set.pairs[0].value, "赤");
  EXPECT_EQ(set.pairs[0].count, 2);
  EXPECT_EQ(set.pairs[0].product_ids.size(), 2u);
}

TEST(DiscoverCandidatesTest, EmptyCorpus) {
  ProcessedCorpus corpus = TableCorpus({});
  EXPECT_TRUE(DiscoverCandidates(corpus).pairs.empty());
}

TEST(AggregationTest, SubsetRuleMergesSmallRangeIntoLarge) {
  // 色 has 3 values, 2 of which are inside カラー's range of 6 — the
  // small-corpus subset rule should merge them.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages;
  for (const char* v : {"赤", "青", "白", "黒", "緑", "紫"}) {
    pages.push_back({{"カラー", v}});
  }
  pages.push_back({{"色", "赤"}});
  pages.push_back({{"色", "青"}});
  pages.push_back({{"色", "金"}});
  ProcessedCorpus corpus = TableCorpus(pages);
  CandidateSet set = DiscoverCandidates(corpus);
  auto mapping = AggregateAttributes(set, AggregationConfig{});
  EXPECT_EQ(mapping.at("色"), "カラー");
}

TEST(AggregationTest, ComparableRangesStayApart) {
  // Two attributes sharing most values but with equal range sizes
  // (sibling attributes like optical/digital zoom) must NOT merge via
  // the subset rule.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages;
  for (const char* v : {"2倍", "4倍", "8倍", "10倍", "20倍"}) {
    pages.push_back({{"光学", v}});
    pages.push_back({{"デジタル", v}});
  }
  ProcessedCorpus corpus = TableCorpus(pages);
  CandidateSet set = DiscoverCandidates(corpus);
  AggregationConfig config;
  config.threshold = 0.95;  // keep the overlap rule out of the way
  auto mapping = AggregateAttributes(set, config);
  EXPECT_EQ(mapping.at("光学"), "光学");
  EXPECT_EQ(mapping.at("デジタル"), "デジタル");
}

TEST(BuildSeedTest, QueryLogRescuesRareValues) {
  // "金" appears once (below min_count) but is searched by users.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages = {
      {{"カラー", "赤"}}, {{"カラー", "赤"}}, {{"カラー", "赤"}},
      {{"カラー", "金"}},
  };
  PreprocessConfig config;
  config.value_min_count = 3;
  config.enable_diversification = false;

  ProcessedCorpus without_queries = TableCorpus(pages);
  Seed seed_without = BuildSeed(without_queries, config);
  bool gold_without = false;
  for (const auto& pair : seed_without.pairs) {
    if (pair.value_display == "金") gold_without = true;
  }
  EXPECT_FALSE(gold_without);

  ProcessedCorpus with_queries = TableCorpus(pages, {"金"});
  Seed seed_with = BuildSeed(with_queries, config);
  bool gold_with = false;
  for (const auto& pair : seed_with.pairs) {
    if (pair.value_display == "金") gold_with = true;
  }
  EXPECT_TRUE(gold_with);
}

TEST(BuildSeedTest, DiversificationRecoversRareShapeValues) {
  // Frequent integer weights + several rare decimal weights sharing one
  // PoS shape: cleaning drops the decimals, diversification restores
  // the most frequent ones per shape.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages = {
      {{"重量", "5kg"}}, {{"重量", "5kg"}}, {{"重量", "5kg"}},
      {{"重量", "7kg"}}, {{"重量", "7kg"}}, {{"重量", "7kg"}},
      {{"重量", "2.5kg"}}, {{"重量", "3.5kg"}}, {{"重量", "4.5kg"}},
      {{"重量", "1.5kg"}},
  };
  PreprocessConfig config;
  config.value_min_count = 3;
  config.diversify_min_shape_support = 3;

  config.enable_diversification = false;
  Seed seed_off = BuildSeed(TableCorpus(pages), config);
  int decimals_off = 0;
  for (const auto& pair : seed_off.pairs) {
    if (pair.value_display.find('.') != std::string::npos) ++decimals_off;
  }
  EXPECT_EQ(decimals_off, 0);

  config.enable_diversification = true;
  Seed seed_on = BuildSeed(TableCorpus(pages), config);
  int decimals_on = 0;
  for (const auto& pair : seed_on.pairs) {
    if (pair.value_display.find('.') != std::string::npos) ++decimals_on;
  }
  EXPECT_GT(decimals_on, 0);
  EXPECT_GT(seed_on.pairs_added_by_diversification, 0u);
}

TEST(BuildSeedTest, DiversificationShapeFloorBlocksScatteredJunk) {
  // The junk attribute 備考 gets unique long sentences: no shape reaches
  // the support floor, so diversification never resurrects it.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages = {
      {{"カラー", "赤"}}, {{"カラー", "赤"}}, {{"カラー", "赤"}},
      {{"備考", "カラーと重量と色です"}},
      {{"備考", "サイズは容量です"}},
      {{"備考", "重量"}},
  };
  PreprocessConfig config;
  config.value_min_count = 3;
  config.diversify_min_shape_support = 3;
  Seed seed = BuildSeed(TableCorpus(pages), config);
  for (const auto& attribute : seed.attributes) {
    EXPECT_NE(attribute, "備考");
  }
}

TEST(BuildSeedTest, AttributeFilterMatchesSynonymSurfaces) {
  // Filter entries name any surface; the cluster must be kept whichever
  // synonym won the representative election.
  std::vector<std::vector<std::pair<std::string, std::string>>> pages;
  // 色 is the more frequent surface → becomes representative.
  for (const char* v : {"赤", "青", "白", "黒"}) {
    pages.push_back({{"色", v}});
    pages.push_back({{"色", v}});
    pages.push_back({{"色", v}});
    pages.push_back({{"カラー", v}});
    pages.push_back({{"カラー", v}});
  }
  ProcessedCorpus corpus = TableCorpus(pages);
  PreprocessConfig config;
  config.value_min_count = 2;
  config.attribute_filter = {"カラー"};  // the losing surface
  Seed seed = BuildSeed(corpus, config);
  ASSERT_FALSE(seed.pairs.empty());
  EXPECT_EQ(seed.attributes.size(), 1u);
  EXPECT_EQ(seed.attributes[0], "色");  // cluster representative
}

TEST(BuildSeedTest, TableTriplesReferenceSourceProducts) {
  ProcessedCorpus corpus = TableCorpus({
      {{"カラー", "赤"}}, {{"カラー", "赤"}}, {{"カラー", "赤"}},
  });
  PreprocessConfig config;
  config.value_min_count = 2;
  Seed seed = BuildSeed(corpus, config);
  ASSERT_EQ(seed.table_triples.size(), 3u);
  for (const auto& triple : seed.table_triples) {
    EXPECT_EQ(triple.attribute, "カラー");
    EXPECT_EQ(triple.value, "赤");
  }
}

}  // namespace
}  // namespace pae::core
