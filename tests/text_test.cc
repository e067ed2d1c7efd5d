#include <gtest/gtest.h>

#include "text/char_class.h"
#include "text/labeled_sequence.h"
#include "text/negation.h"
#include "text/pos_tagger.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "text/utf8.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pae::text {
namespace {

// ---------------- UTF-8 ----------------

TEST(Utf8Test, AsciiRoundTrip) {
  const std::string s = "hello 123!";
  EXPECT_EQ(EncodeUtf8(DecodeUtf8(s)), s);
  EXPECT_EQ(Utf8Length(s), s.size());
}

TEST(Utf8Test, MultibyteRoundTrip) {
  const std::string s = "重量は2.5kgです。";
  EXPECT_EQ(EncodeUtf8(DecodeUtf8(s)), s);
  EXPECT_EQ(Utf8Length("重量"), 2u);
}

TEST(Utf8Test, FourByteCodepoint) {
  const std::string s = EncodeUtf8(static_cast<char32_t>(0x1F600));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(DecodeUtf8(s)[0], static_cast<char32_t>(0x1F600));
}

TEST(Utf8Test, InvalidBytesBecomeReplacement) {
  std::string bad = "a";
  bad.push_back(static_cast<char>(0xFF));
  bad.push_back('b');
  std::vector<char32_t> cps = DecodeUtf8(bad);
  ASSERT_EQ(cps.size(), 3u);
  EXPECT_EQ(cps[1], kReplacementChar);
}

TEST(Utf8Test, TruncatedSequenceIsReplacement) {
  std::string truncated = EncodeUtf8(static_cast<char32_t>(0x91CF));
  truncated.pop_back();
  std::vector<char32_t> cps = DecodeUtf8(truncated);
  EXPECT_EQ(cps[0], kReplacementChar);
}

TEST(Utf8Test, OverlongEncodingRejected) {
  // 0xC0 0xAF is an overlong encoding of '/'.
  std::string overlong = "\xC0\xAF";
  std::vector<char32_t> cps = DecodeUtf8(overlong);
  EXPECT_EQ(cps[0], kReplacementChar);
}

TEST(Utf8Test, SurrogatesRejectedOnEncode) {
  EXPECT_EQ(EncodeUtf8(static_cast<char32_t>(0xD800)),
            EncodeUtf8(kReplacementChar));
}

// Property: round-trip of random valid code points.
class Utf8RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(Utf8RoundTripTest, RandomCodepointsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<char32_t> cps;
  for (int i = 0; i < 64; ++i) {
    char32_t cp;
    do {
      cp = static_cast<char32_t>(rng.NextBounded(0x10FFFF) + 1);
    } while (cp >= 0xD800 && cp <= 0xDFFF);
    cps.push_back(cp);
  }
  EXPECT_EQ(DecodeUtf8(EncodeUtf8(cps)), cps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Utf8RoundTripTest, ::testing::Range(0, 8));

// ---------------- char classes ----------------

TEST(CharClassTest, Classification) {
  EXPECT_EQ(ClassifyChar(U'7'), CharClass::kDigit);
  EXPECT_EQ(ClassifyChar(U'a'), CharClass::kLatin);
  EXPECT_EQ(ClassifyChar(U'ü'), CharClass::kLatin);
  EXPECT_EQ(ClassifyChar(U'の'), CharClass::kHiragana);
  EXPECT_EQ(ClassifyChar(U'カ'), CharClass::kKatakana);
  EXPECT_EQ(ClassifyChar(U'重'), CharClass::kCjk);
  EXPECT_EQ(ClassifyChar(U'.'), CharClass::kSymbol);
  EXPECT_EQ(ClassifyChar(U' '), CharClass::kSpace);
  EXPECT_EQ(ClassifyChar(static_cast<char32_t>(0x3000)), CharClass::kSpace);
  EXPECT_EQ(ClassifyChar(static_cast<char32_t>(0x3002)),
            CharClass::kSymbol);  // 。
}

// ---------------- Latin tokenizer ----------------

TEST(LatinTokenizerTest, SplitsOnWhitespaceAndPunct) {
  LatinTokenizer tok;
  EXPECT_EQ(tok.Tokenize("Der Gewicht: 5 kg."),
            (std::vector<std::string>{"Der", "Gewicht", ":", "5", "kg",
                                      "."}));
}

TEST(LatinTokenizerTest, KeepsDecimalCommaInsideNumbers) {
  LatinTokenizer tok;
  EXPECT_EQ(tok.Tokenize("2,5 kg und 1.299 Watt"),
            (std::vector<std::string>{"2,5", "kg", "und", "1.299", "Watt"}));
}

TEST(LatinTokenizerTest, TrailingSeparatorIsNotPartOfNumber) {
  LatinTokenizer tok;
  EXPECT_EQ(tok.Tokenize("5, und"),
            (std::vector<std::string>{"5", ",", "und"}));
}

TEST(LatinTokenizerTest, EmptyInput) {
  LatinTokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("   ").empty());
}

// ---------------- CJK tokenizer ----------------

TEST(CjkTokenizerTest, DecimalSplitsIntoThreeTokens) {
  // §V-A footnote 3: the Japanese tokenizer splits 1.5 into 3 tokens.
  CjkTokenizer tok({});
  EXPECT_EQ(tok.Tokenize("1.5kg"),
            (std::vector<std::string>{"1", ".", "5", "kg"}));
}

TEST(CjkTokenizerTest, ThousandsSeparatorSplits) {
  CjkTokenizer tok({});
  EXPECT_EQ(tok.Tokenize("2,430万画素"),
            (std::vector<std::string>{"2", ",", "430", "万", "画", "素"}));
}

TEST(CjkTokenizerTest, LexiconLongestMatch) {
  CjkTokenizer tok({"重量", "万画素"});
  EXPECT_EQ(tok.Tokenize("重量2430万画素"),
            (std::vector<std::string>{"重量", "2430", "万画素"}));
}

TEST(CjkTokenizerTest, KatakanaRunIsOneToken) {
  CjkTokenizer tok({});
  EXPECT_EQ(tok.Tokenize("カラーはブラック"),
            (std::vector<std::string>{"カラー", "は", "ブラック"}));
}

TEST(CjkTokenizerTest, LatinRunInsideCjkText) {
  CjkTokenizer tok({"重量"});
  EXPECT_EQ(tok.Tokenize("重量5kgです"),
            (std::vector<std::string>{"重量", "5", "kg", "で", "す"}));
}

TEST(CjkTokenizerTest, LexiconSegmentsHiragana) {
  CjkTokenizer tok({"です"});
  EXPECT_EQ(tok.Tokenize("ですです"),
            (std::vector<std::string>{"です", "です"}));
}

TEST(CjkTokenizerTest, GreedyPrefersLongestWord) {
  CjkTokenizer tok({"最大", "最大積載重量", "重量"});
  EXPECT_EQ(tok.Tokenize("最大積載重量"),
            (std::vector<std::string>{"最大積載重量"}));
}

TEST(CjkTokenizerTest, DropsAllWhitespace) {
  CjkTokenizer tok({});
  EXPECT_EQ(tok.Tokenize(" a　b "),
            (std::vector<std::string>{"a", "b"}));
}

// Property: concatenating CJK tokens reproduces the input minus spaces.
class CjkTokenizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CjkTokenizerPropertyTest, TokensConcatenateToInput) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  CjkTokenizer tok({"重量", "です", "カラー"});
  const std::vector<std::string> pieces = {"重量", "です",  "カラー", "5",
                                           ".",    "kg",    "。",     "ブラック",
                                           "は",   "2430", "万"};
  std::string input;
  for (int i = 0; i < 30; ++i) input += pieces[rng.NextBounded(pieces.size())];
  std::string reassembled = StrJoin(tok.Tokenize(input), "");
  EXPECT_EQ(reassembled, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CjkTokenizerPropertyTest,
                         ::testing::Range(0, 10));

TEST(TokenizerFactoryTest, SelectsByLanguage) {
  auto ja = MakeTokenizer(Language::kJa, {"重量"});
  auto de = MakeTokenizer(Language::kDe, {});
  EXPECT_EQ(ja->Tokenize("重量5kg").size(), 3u);
  EXPECT_EQ(de->Tokenize("Gewicht 5 kg").size(), 3u);
}

// ---------------- PoS tagger ----------------

TEST(PosTaggerTest, LexiconWins) {
  PosLexicon lex;
  lex.word_tags["kg"] = std::string(kPosUnit);
  PosTagger tagger(Language::kJa, lex);
  EXPECT_EQ(tagger.TagToken("kg"), kPosUnit);
}

TEST(PosTaggerTest, FallbackRules) {
  PosTagger tagger(Language::kJa, {});
  EXPECT_EQ(tagger.TagToken("123"), kPosNumber);
  EXPECT_EQ(tagger.TagToken("2,5"), kPosNumber);
  EXPECT_EQ(tagger.TagToken("."), kPosSymbol);
  EXPECT_EQ(tagger.TagToken("の"), kPosParticle);
  EXPECT_EQ(tagger.TagToken("カラー"), kPosNoun);
  EXPECT_EQ(tagger.TagToken("重量"), kPosNoun);
  EXPECT_EQ(tagger.TagToken("Gewicht"), kPosNoun);
}

TEST(PosTaggerTest, TagsWholeSequence) {
  PosTagger tagger(Language::kJa, {});
  std::vector<std::string> tags =
      tagger.Tag({"重量", "は", "5", "kg", "です"});
  EXPECT_EQ(tags, (std::vector<std::string>{"NN", "PRT", "NUM", "NN",
                                            "PRT"}));
}

// ---------------- sentence splitting ----------------

TEST(SentenceTest, SplitsOnJapanesePeriod) {
  auto s = SplitSentences("重量は5kgです。カラーはブラックです。");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "重量は5kgです。");
}

TEST(SentenceTest, DecimalPointDoesNotSplit) {
  auto s = SplitSentences("Das Gewicht ist 2.5 kg. Danke.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "Das Gewicht ist 2.5 kg.");
}

TEST(SentenceTest, NewlinesSplit) {
  auto s = SplitSentences("line one\nline two\n\n");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceTest, EmptyInput) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences(" \n ").empty());
}

// ---------------- vocab ----------------

TEST(VocabTest, UnkIsIdZero) {
  Vocab v;
  EXPECT_EQ(v.Lookup("missing"), Vocab::kUnkId);
  EXPECT_EQ(v.Word(Vocab::kUnkId), "<unk>");
}

TEST(VocabTest, GetOrAddStable) {
  Vocab v;
  int32_t a = v.GetOrAdd("x");
  int32_t b = v.GetOrAdd("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.Lookup("x"), a);
  EXPECT_EQ(v.Word(a), "x");
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabTest, HeterogeneousStringViewLookup) {
  Vocab v;
  const int32_t id = v.GetOrAdd(std::string_view("重量"));
  // A view sliced out of unrelated storage resolves without ever
  // materializing a std::string.
  const char buffer[] = "xx重量yy";
  const std::string_view slice(buffer + 2, 6);  // the 2 UTF-8 code points
  EXPECT_EQ(v.Lookup(slice), id);
  EXPECT_TRUE(v.Contains(slice));
  EXPECT_FALSE(v.Contains(std::string_view(buffer + 2, 3)));
  EXPECT_EQ(v.Lookup("absent"), Vocab::kUnkId);
  EXPECT_EQ(v.Word(id), "重量");
}

TEST(VocabTest, WordViewsStableAcrossGrowth) {
  Vocab v;
  const std::string_view early = v.Word(v.GetOrAdd("anchor"));
  for (int i = 0; i < 5000; ++i) {
    v.GetOrAdd(std::string("w").append(std::to_string(i)));
  }
  EXPECT_EQ(early, "anchor");  // interner arena never reallocates keys
  EXPECT_EQ(v.Lookup(early), 1);
}

// ---------------- BIO machinery ----------------

TEST(BioTest, ParseLabels) {
  std::string attr;
  bool begin = false;
  EXPECT_TRUE(ParseBioLabel("B-色", &attr, &begin));
  EXPECT_EQ(attr, "色");
  EXPECT_TRUE(begin);
  EXPECT_TRUE(ParseBioLabel("I-色", &attr, &begin));
  EXPECT_FALSE(begin);
  EXPECT_FALSE(ParseBioLabel("O", &attr, &begin));
  EXPECT_FALSE(ParseBioLabel("X-色", &attr, &begin));
}

TEST(BioTest, DecodeSpans) {
  std::vector<ValueSpan> spans =
      DecodeBioSpans({"O", "B-a", "I-a", "O", "B-b"});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].attribute, "a");
  EXPECT_EQ(spans[0].begin, 1u);
  EXPECT_EQ(spans[0].end, 3u);
  EXPECT_EQ(spans[1].attribute, "b");
  EXPECT_EQ(spans[1].begin, 4u);
  EXPECT_EQ(spans[1].end, 5u);
}

TEST(BioTest, OrphanInsideStartsSpan) {
  std::vector<ValueSpan> spans = DecodeBioSpans({"O", "I-a", "I-a"});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 1u);
  EXPECT_EQ(spans[0].end, 3u);
}

TEST(BioTest, AdjacentBStartsNewSpan) {
  std::vector<ValueSpan> spans = DecodeBioSpans({"B-a", "B-a"});
  ASSERT_EQ(spans.size(), 2u);
}

TEST(BioTest, AttributeChangeSplitsSpan) {
  std::vector<ValueSpan> spans = DecodeBioSpans({"B-a", "I-b"});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].attribute, "a");
  EXPECT_EQ(spans[1].attribute, "b");
}

// ---------------- negation ----------------

TEST(NegationTest, JapaneseCues) {
  NegationDetector det(Language::kJa);
  EXPECT_TRUE(det.IsNegated({"ケース", "は", "付属しません", "。"}));
  EXPECT_TRUE(det.IsNegated({"カラー", "は", "赤", "ではありません"}));
  EXPECT_FALSE(det.IsNegated({"カラー", "は", "赤", "です"}));
}

TEST(NegationTest, GermanCues) {
  NegationDetector det(Language::kDe);
  EXPECT_TRUE(det.IsNegated({"Der", "Farbe", "ist", "nicht", "rot"}));
  EXPECT_TRUE(det.IsNegated({"ohne", "Deckel"}));
  EXPECT_FALSE(det.IsNegated({"Die", "Farbe", "ist", "rot"}));
}

TEST(NegationTest, EmptySentence) {
  NegationDetector det(Language::kJa);
  EXPECT_FALSE(det.IsNegated({}));
}

TEST(NegationTest, CueMustBeWholeToken) {
  NegationDetector det(Language::kDe);
  // "nichtig" is one token and not a cue.
  EXPECT_FALSE(det.IsNegated({"nichtig"}));
}

}  // namespace
}  // namespace pae::text
