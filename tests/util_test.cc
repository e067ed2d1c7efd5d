#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace pae {
namespace {

// ---------------- Status / Result ----------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesSetTheirCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsThrough() {
  PAE_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

// ---------------- contract macros ----------------

using ContractDeathTest = testing::Test;

TEST(ContractDeathTest, CheckAbortsWithMessage) {
  EXPECT_DEATH(PAE_CHECK(1 + 1 == 3) << "math broke", "Check failed");
  EXPECT_DEATH(PAE_CHECK_EQ(2, 3), "Check failed");
  EXPECT_DEATH(PAE_CHECK_LT(5, 5), "Check failed");
}

TEST(ContractDeathTest, CheckPassesSilently) {
  PAE_CHECK(true) << "never printed";
  PAE_CHECK_EQ(2, 2);
  PAE_CHECK_GE(3, 2);
}

TEST(ContractDeathTest, DcheckMatchesBuildTier) {
#if PAE_DCHECK_IS_ON
  EXPECT_DEATH(PAE_DCHECK(false) << "contract violated", "Check failed");
  EXPECT_DEATH(PAE_DCHECK_EQ(1, 2), "Check failed");
  EXPECT_DEATH(PAE_DCHECK_FINITE(std::nan("")), "Check failed");
  std::vector<double> poisoned = {1.0, std::nan(""), 3.0};
  EXPECT_DEATH(PAE_DCHECK_FINITE_VEC(poisoned), "Check failed");
#else
  // Release tier: the whole statement must compile to nothing, even
  // with a false condition and a streamed message.
  PAE_DCHECK(false) << "compiled out";
  PAE_DCHECK_EQ(1, 2);
  PAE_DCHECK_FINITE(std::nan(""));
  std::vector<double> poisoned = {std::nan("")};
  PAE_DCHECK_FINITE_VEC(poisoned);
#endif
}

TEST(ContractDeathTest, DcheckOperandsStayEvaluatedExactlyZeroTimes) {
  // The compiled-out form must not evaluate operands; the on form
  // evaluates them once. Either way a passing condition side-effects at
  // most once.
  int calls = 0;
  auto count = [&]() {
    ++calls;
    return true;
  };
  PAE_DCHECK(count());
  EXPECT_EQ(calls, PAE_DCHECK_IS_ON ? 1 : 0);
}

TEST(ContractDeathTest, FiniteGuardsAcceptFiniteValues) {
  PAE_DCHECK_FINITE(0.0);
  PAE_DCHECK_FINITE(-1e300);
  const std::vector<float> ok = {1.0f, -2.5f, 0.0f};
  PAE_DCHECK_FINITE_VEC(ok);
  EXPECT_TRUE(IsFiniteVec(ok));
  const std::vector<double> bad = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(IsFiniteVec(bad));
}

TEST(ContractDeathTest, ResultMisuseDies) {
#if PAE_DCHECK_IS_ON
  // value() on an error Result and constructing a Result from an OK
  // status are both contract violations, not recoverable errors.
  EXPECT_DEATH(
      {
        Result<int> r(Status::NotFound("gone"));
        (void)r.value();
      },
      "Result::value\\(\\) on error");
  EXPECT_DEATH({ Result<int> r(Status::Ok()); }, "OK status needs a value");
#else
  GTEST_SKIP() << "Result contracts compiled out (PAE_DCHECK off)";
#endif
}

// ---------------- strings ----------------

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitSkipEmpty) {
  EXPECT_EQ(StrSplitSkipEmpty(",a,,b,", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(StrJoin({}, "-"), "");
  EXPECT_EQ(StrJoin({"only"}, "-"), "only");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(StringsTest, AsciiToLowerLeavesUtf8Alone) {
  EXPECT_EQ(AsciiToLower("AbC"), "abc");
  EXPECT_EQ(AsciiToLower("重量X"), "重量x");
}

TEST(StringsTest, IsAsciiDigits) {
  EXPECT_TRUE(IsAsciiDigits("0123"));
  EXPECT_FALSE(IsAsciiDigits(""));
  EXPECT_FALSE(IsAsciiDigits("12a"));
  EXPECT_FALSE(IsAsciiDigits("1.2"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(StrReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(StrReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(StrReplaceAll("abc", "", "zz"), "abc");
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

// ---------------- rng ----------------

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------------- table printer ----------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t("Demo");
  t.SetHeader({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22 |"), std::string::npos);
  EXPECT_NE(out.find("| a         | 1  |"), std::string::npos);
}

TEST(TablePrinterTest, EmptyTitleOmitted) {
  TablePrinter t("");
  t.SetHeader({"h"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str().find("=="), std::string::npos);
}

// ---------------- ErrnoString ----------------

TEST(ErrnoStringTest, KnownErrnoFormats) {
  const std::string msg = ErrnoString(ENOENT);
  EXPECT_FALSE(msg.empty());
  // Exact text is libc's business, but ENOENT universally mentions the
  // file or directory.
  EXPECT_NE(msg.find("file"), std::string::npos) << msg;
}

TEST(ErrnoStringTest, DistinctErrnosDistinctMessages) {
  EXPECT_NE(ErrnoString(ENOENT), ErrnoString(EACCES));
}

// ---------------- MmapFile error paths ----------------
//
// Every branch must come back as a clean Status — no crash, no leak
// (the ASan legs run this binary), no half-constructed mapping.

std::string MmapTempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("pae_mmap_" + name))
      .string();
}

TEST(MmapFileTest, NonexistentFileIsNotFound) {
  auto result = util::MmapFile::Open(MmapTempPath("does_not_exist.bin"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(MmapFileTest, EmptyFileMapsWithZeroSize) {
  const std::string path = MmapTempPath("empty.bin");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  auto result = util::MmapFile::Open(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().size(), 0u);
  EXPECT_EQ(result.value().data(), nullptr);
  EXPECT_TRUE(result.value().mapped());
  std::remove(path.c_str());
}

TEST(MmapFileTest, DirectoryIsInvalidArgument) {
  auto result = util::MmapFile::Open(
      std::filesystem::temp_directory_path().string());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("not a regular file"),
            std::string::npos);
}

TEST(MmapFileTest, UnreadableFileIsNotFound) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores file modes; cannot provoke EACCES";
  }
  const std::string path = MmapTempPath("unreadable.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "secret";
  }
  ASSERT_EQ(::chmod(path.c_str(), 0), 0);
  auto result = util::MmapFile::Open(path);
  EXPECT_FALSE(result.ok());
  ::chmod(path.c_str(), 0600);
  std::remove(path.c_str());
}

TEST(MmapFileTest, RegularFileRoundTrips) {
  const std::string path = MmapTempPath("round_trip.bin");
  const std::string payload = "paez bytes \x01\x02\x03";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
  }
  auto result = util::MmapFile::Open(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(result.value().data(), payload.data(),
                        payload.size()),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pae
