#include <gtest/gtest.h>

#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "core/document.h"
#include "core/ingest.h"
#include "core/normalize.h"
#include "datagen/generator.h"
#include "datagen/schema.h"
#include "datagen/word_factory.h"
#include "html/parser.h"
#include "support/oracle.h"
#include "text/char_class.h"
#include "text/utf8.h"
#include "util/rng.h"

namespace pae::datagen {
namespace {

// ---------------- word factory ----------------

TEST(WordFactoryTest, JapaneseNounsAreKatakana) {
  WordFactory wf(text::Language::kJa);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    std::string w = wf.MakeNoun(&rng, 3);
    for (char32_t cp : text::DecodeUtf8(w)) {
      EXPECT_EQ(text::ClassifyChar(cp), text::CharClass::kKatakana) << w;
    }
  }
}

TEST(WordFactoryTest, GermanNounsCapitalized) {
  WordFactory wf(text::Language::kDe);
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    std::string w = wf.MakeNoun(&rng, 2);
    ASSERT_FALSE(w.empty());
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(w[0]))) << w;
  }
}

TEST(WordFactoryTest, IdeographWordLength) {
  WordFactory wf(text::Language::kJa);
  Rng rng(3);
  EXPECT_EQ(text::Utf8Length(wf.MakeIdeographWord(&rng, 2)), 2u);
  EXPECT_EQ(text::Utf8Length(wf.MakeIdeographWord(&rng, 3)), 3u);
}

TEST(WordFactoryTest, NumberFormattingJapanese) {
  WordFactory wf(text::Language::kJa);
  EXPECT_EQ(wf.FormatNumber(2.5, 1, false), "2.5");
  EXPECT_EQ(wf.FormatNumber(2430, 0, true), "2,430");
  EXPECT_EQ(wf.FormatNumber(1234567, 0, true), "1,234,567");
  EXPECT_EQ(wf.FormatNumber(5, 0, false), "5");
}

TEST(WordFactoryTest, NumberFormattingGermanUsesCommaDecimal) {
  WordFactory wf(text::Language::kDe);
  EXPECT_EQ(wf.FormatNumber(2.5, 1, false), "2,5");
  EXPECT_EQ(wf.FormatNumber(2430, 0, true), "2.430");
}

// ---------------- schema ----------------

TEST(SchemaTest, AllCategoriesBuild) {
  for (CategoryId id : AllCategories()) {
    CategorySpec spec = BuildCategorySpec(id);
    EXPECT_FALSE(spec.name.empty());
    if (spec.heterogeneous()) {
      EXPECT_GE(spec.mixture.size(), 2u);
    } else {
      EXPECT_GE(spec.attributes.size(), 4u) << spec.name;
      for (const auto& attr : spec.attributes) {
        EXPECT_FALSE(attr.canonical.empty());
        if (attr.kind == ValueKind::kEnum) {
          EXPECT_GE(attr.enum_values.size(), 3u) << attr.canonical;
        }
      }
    }
  }
}

TEST(SchemaTest, PaperTableCategoriesMatchPaperOrder) {
  const auto& cats = PaperTableCategories();
  ASSERT_EQ(cats.size(), 8u);
  EXPECT_EQ(CategoryName(cats[0]), std::string("Tennis"));
  EXPECT_EQ(CategoryName(cats[7]), std::string("Vacuum Cleaner"));
}

TEST(SchemaTest, SchemasAreDeterministic) {
  CategorySpec a = BuildCategorySpec(CategoryId::kGarden);
  CategorySpec b = BuildCategorySpec(CategoryId::kGarden);
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t i = 0; i < a.attributes.size(); ++i) {
    EXPECT_EQ(a.attributes[i].canonical, b.attributes[i].canonical);
    EXPECT_EQ(a.attributes[i].enum_values, b.attributes[i].enum_values);
  }
}

TEST(SchemaTest, ConfusablePairsAreSymmetric) {
  for (CategoryId id : AllCategories()) {
    CategorySpec spec = BuildCategorySpec(id);
    const auto check = [](const CategorySpec& s) {
      for (size_t i = 0; i < s.attributes.size(); ++i) {
        const int j = s.attributes[i].confusable_with;
        if (j >= 0) {
          ASSERT_LT(static_cast<size_t>(j), s.attributes.size());
          EXPECT_EQ(s.attributes[static_cast<size_t>(j)].confusable_with,
                    static_cast<int>(i));
        }
      }
    };
    if (spec.heterogeneous()) {
      for (const auto& sub : spec.mixture) check(sub);
    } else {
      check(spec);
    }
  }
}

TEST(SchemaTest, LanguageAssignment) {
  EXPECT_EQ(CategoryLanguage(CategoryId::kGarden), text::Language::kJa);
  EXPECT_EQ(CategoryLanguage(CategoryId::kMailboxDe), text::Language::kDe);
}

TEST(SchemaTest, VacuumWeightHasDiversificationLever) {
  // The §VIII-A case study requires integer-biased tables with decimal
  // text values for the vacuum-cleaner weight.
  CategorySpec spec = BuildCategorySpec(CategoryId::kVacuumCleaner);
  const AttributeSpec* weight = nullptr;
  for (const auto& attr : spec.attributes) {
    if (attr.canonical == "重量") weight = &attr;
  }
  ASSERT_NE(weight, nullptr);
  EXPECT_LT(weight->numeric.decimal_prob_table, 0.15);
  EXPECT_GT(weight->numeric.decimal_prob_text, 0.5);
}

// ---------------- generator ----------------

GeneratedCategory SmallCategory(CategoryId id, uint64_t seed = 9) {
  GeneratorConfig config;
  config.num_products = 120;
  config.seed = seed;
  return GenerateCategory(id, config);
}

TEST(GeneratorTest, ProducesRequestedProducts) {
  GeneratedCategory cat = SmallCategory(CategoryId::kTennis);
  EXPECT_EQ(cat.corpus.pages.size(), 120u);
  EXPECT_FALSE(cat.corpus.query_log.empty());
  EXPECT_FALSE(cat.truth.entries.empty());
  EXPECT_FALSE(cat.attribute_names.empty());
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  GeneratedCategory a = SmallCategory(CategoryId::kKitchen, 5);
  GeneratedCategory b = SmallCategory(CategoryId::kKitchen, 5);
  ASSERT_EQ(a.corpus.pages.size(), b.corpus.pages.size());
  for (size_t i = 0; i < a.corpus.pages.size(); ++i) {
    EXPECT_EQ(a.corpus.pages[i].html, b.corpus.pages[i].html);
  }
  EXPECT_EQ(a.truth.entries.size(), b.truth.entries.size());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratedCategory a = SmallCategory(CategoryId::kKitchen, 5);
  GeneratedCategory b = SmallCategory(CategoryId::kKitchen, 6);
  size_t same = 0;
  for (size_t i = 0; i < a.corpus.pages.size(); ++i) {
    if (a.corpus.pages[i].html == b.corpus.pages[i].html) ++same;
  }
  EXPECT_LT(same, a.corpus.pages.size() / 2);
}

TEST(GeneratorTest, PagesAreParseableHtml) {
  GeneratedCategory cat = SmallCategory(CategoryId::kCosmetics);
  for (const auto& page : cat.corpus.pages) {
    auto dom = html::ParseHtml(page.html);
    ASSERT_NE(dom, nullptr);
    EXPECT_FALSE(html::ExtractText(*dom).empty()) << page.product_id;
  }
}

TEST(GeneratorTest, TableFractionRoughlyHonored) {
  GeneratorConfig config;
  config.num_products = 600;
  config.seed = 10;
  GeneratedCategory bags =
      GenerateCategory(CategoryId::kLadiesBags, config);
  GeneratedCategory garden = GenerateCategory(CategoryId::kGarden, config);
  auto table_count = [](const GeneratedCategory& cat) {
    size_t n = 0;
    for (const auto& page : cat.corpus.pages) {
      auto dom = html::ParseHtml(page.html);
      if (!oracle::ExtractDictionaryTables(*dom).empty()) ++n;
    }
    return n;
  };
  const size_t bags_tables = table_count(bags);
  const size_t garden_tables = table_count(garden);
  // Ladies Bags ≈ 42 % ≫ Garden ≈ 8.5 % (Table I coverage ordering).
  EXPECT_GT(bags_tables, garden_tables * 2);
}

TEST(GeneratorTest, TruthEntriesReferenceExistingProducts) {
  GeneratedCategory cat = SmallCategory(CategoryId::kShoes);
  std::unordered_set<std::string> ids;
  for (const auto& page : cat.corpus.pages) ids.insert(page.product_id);
  for (const auto& entry : cat.truth.entries) {
    EXPECT_TRUE(ids.count(entry.triple.product_id) > 0);
  }
}

TEST(GeneratorTest, CorrectTruthValuesAppearOnTheirPage) {
  GeneratedCategory cat = SmallCategory(CategoryId::kVacuumCleaner);
  std::unordered_map<std::string, std::string> page_text;
  for (const auto& page : cat.corpus.pages) {
    auto dom = html::ParseHtml(page.html);
    page_text[page.product_id] =
        core::NormalizeValue(html::ExtractText(*dom));
  }
  size_t checked = 0;
  for (const auto& entry : cat.truth.entries) {
    if (!entry.triple_correct) continue;
    const std::string norm = core::NormalizeValue(entry.triple.value);
    EXPECT_NE(page_text[entry.triple.product_id].find(norm),
              std::string::npos)
        << entry.triple.product_id << " " << entry.triple.value;
    if (++checked > 200) break;
  }
}

TEST(GeneratorTest, AliasesMapSynonymsToCanonical) {
  GeneratedCategory cat = SmallCategory(CategoryId::kVacuumCleaner);
  // メーカー synonyms map to the canonical name.
  EXPECT_EQ(cat.truth.Canonical("製造元"), "メーカー");
  EXPECT_EQ(cat.truth.Canonical("ブランド"), "メーカー");
  EXPECT_EQ(cat.truth.Canonical("メーカー"), "メーカー");
  // Unknown names map to themselves.
  EXPECT_EQ(cat.truth.Canonical("備考"), "備考");
}

TEST(GeneratorTest, ValidPairsCoverCorrectEntries) {
  GeneratedCategory cat = SmallCategory(CategoryId::kTennis);
  for (const auto& entry : cat.truth.entries) {
    if (!entry.triple_correct || !entry.pair_valid) continue;
    const std::string key =
        core::PairKey(cat.truth.Canonical(entry.triple.attribute),
                      core::NormalizeValue(entry.triple.value));
    EXPECT_TRUE(cat.truth.valid_pairs.count(key) > 0);
  }
}

TEST(GeneratorTest, IncorrectEntriesExist) {
  GeneratorConfig config;
  config.num_products = 400;
  config.seed = 20;
  GeneratedCategory cat = GenerateCategory(CategoryId::kGarden, config);
  size_t incorrect = 0;
  for (const auto& entry : cat.truth.entries) {
    if (!entry.triple_correct) ++incorrect;
  }
  EXPECT_GT(incorrect, 10u);  // noise sources are active
}

TEST(GeneratorTest, HeterogeneousCategoryMixesSchemas) {
  GeneratedCategory cat = SmallCategory(CategoryId::kBabyGoods);
  // Attributes from all three sub-schemas are present.
  std::unordered_set<std::string> names(cat.attribute_names.begin(),
                                        cat.attribute_names.end());
  EXPECT_TRUE(names.count("対象年齢") > 0);
  EXPECT_TRUE(names.count("サイズ") > 0);   // clothes
  EXPECT_TRUE(names.count("電池") > 0);     // toys
  EXPECT_TRUE(names.count("安全基準") > 0); // carriers
}

TEST(GeneratorTest, GermanCorpusIsLatinScript) {
  GeneratedCategory cat = SmallCategory(CategoryId::kMailboxDe);
  EXPECT_EQ(cat.corpus.language, text::Language::kDe);
  auto dom = html::ParseHtml(cat.corpus.pages[0].html);
  const std::string page_text = html::ExtractText(*dom);
  for (char32_t cp : text::DecodeUtf8(page_text)) {
    EXPECT_NE(text::ClassifyChar(cp), text::CharClass::kKatakana);
    EXPECT_NE(text::ClassifyChar(cp), text::CharClass::kCjk);
  }
}

TEST(GeneratorTest, LexiconCoversSchemaWords) {
  GeneratedCategory cat = SmallCategory(CategoryId::kVacuumCleaner);
  std::unordered_set<std::string> lexicon(
      cat.corpus.tokenizer_lexicon.begin(),
      cat.corpus.tokenizer_lexicon.end());
  EXPECT_TRUE(lexicon.count("重量") > 0);
  EXPECT_TRUE(lexicon.count("集じん方式") > 0);
  EXPECT_TRUE(lexicon.count("です") > 0);
}

TEST(GeneratorTest, TokenizedPagesRoundTripValues) {
  // Processing the corpus must let the distant supervisor find seed
  // values: tokenize a known correct truth value and ensure its token
  // sequence appears in the page's sentences.
  GeneratedCategory cat = SmallCategory(CategoryId::kLadiesBags, 33);
  core::ProcessedCorpus corpus = core::IngestCorpus(cat.corpus, {}).corpus;
  std::unordered_map<std::string, const core::ProcessedPage*> by_id;
  for (const auto& page : corpus.pages) by_id[page.product_id] = &page;

  size_t found = 0, checked = 0;
  for (const auto& entry : cat.truth.entries) {
    if (!entry.triple_correct) continue;
    std::vector<std::string> value_tokens =
        corpus.Tokenize(entry.triple.value);
    if (value_tokens.empty()) continue;
    const core::ProcessedPage* page = by_id[entry.triple.product_id];
    ASSERT_NE(page, nullptr);
    bool hit = false;
    for (const auto& sentence : page->sentences) {
      for (size_t start = 0;
           start + value_tokens.size() <= sentence.tokens.size() && !hit;
           ++start) {
        hit = std::equal(value_tokens.begin(), value_tokens.end(),
                         sentence.tokens.begin() + static_cast<long>(start));
      }
      if (hit) break;
    }
    found += hit ? 1 : 0;
    if (++checked >= 120) break;
  }
  // The overwhelming majority of correct mentions must be retrievable
  // after tokenization (a few live only inside the title's decorations).
  EXPECT_GT(found * 10, checked * 9);
}

// Property sweep: every category generates a corpus whose pages parse
// and whose truth sample is internally consistent.
class GeneratorPropertyTest
    : public ::testing::TestWithParam<CategoryId> {};

TEST_P(GeneratorPropertyTest, CategoryGeneratesConsistently) {
  GeneratorConfig config;
  config.num_products = 60;
  config.seed = 77;
  GeneratedCategory cat = GenerateCategory(GetParam(), config);
  EXPECT_EQ(cat.corpus.pages.size(), 60u);
  EXPECT_FALSE(cat.truth.entries.empty());
  for (const auto& entry : cat.truth.entries) {
    EXPECT_FALSE(entry.triple.attribute.empty());
    EXPECT_FALSE(entry.triple.value.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllCategories, GeneratorPropertyTest,
                         ::testing::ValuesIn(AllCategories()),
                         [](const auto& info) {
                           std::string name = CategoryName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               out.push_back(c);
                             }
                           }
                           return out;
                         });

}  // namespace
}  // namespace pae::datagen
