#include "util/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pae::util {
namespace {

TEST(FlatStringInternerTest, AssignsDenseFirstInsertionIds) {
  FlatStringInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.Intern("beta"), 1);
  EXPECT_EQ(interner.Intern("gamma"), 2);
  // Re-interning returns the original id without growing the table.
  EXPECT_EQ(interner.Intern("beta"), 1);
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.key(0), "alpha");
  EXPECT_EQ(interner.key(1), "beta");
  EXPECT_EQ(interner.key(2), "gamma");
}

TEST(FlatStringInternerTest, FindAndContainsDoNotInsert) {
  FlatStringInterner interner;
  interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), 0);
  EXPECT_EQ(interner.Find("absent"), -1);
  EXPECT_TRUE(interner.Contains("present"));
  EXPECT_FALSE(interner.Contains("absent"));
  EXPECT_EQ(interner.size(), 1u);
}

TEST(FlatStringInternerTest, HandlesEmptyKey) {
  FlatStringInterner interner;
  const int id = interner.Intern("");
  EXPECT_EQ(interner.Find(""), id);
  EXPECT_EQ(interner.key(id), "");
  EXPECT_NE(interner.Intern("nonempty"), id);
}

TEST(FlatStringInternerTest, HeterogeneousLookupMatchesStringBytes) {
  FlatStringInterner interner;
  const std::string owned = "w[0]=重量";
  const int id = interner.Intern(owned);
  // A view over different storage with the same bytes must resolve to
  // the same id; a view that is a strict prefix must not.
  const char buffer[] = "w[0]=重量tail";
  EXPECT_EQ(interner.Find(std::string_view(buffer, owned.size())), id);
  EXPECT_EQ(interner.Find(std::string_view(buffer, owned.size() - 1)), -1);
  EXPECT_EQ(interner.Find(std::string_view(buffer)), -1);
}

TEST(FlatStringInternerTest, ViewsStayValidAcrossRehashes) {
  FlatStringInterner interner;
  // Grow well past several doublings of the initial 16-slot table and
  // keep the early views around: the arena guarantee says they must
  // still point at the right bytes afterwards.
  std::vector<std::string_view> early;
  for (int i = 0; i < 64; ++i) {
    early.push_back(interner.key(interner.Intern("early" + std::to_string(i))));
  }
  for (int i = 0; i < 20000; ++i) {
    interner.Intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(interner.size(), 64u + 20000u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(early[static_cast<size_t>(i)], "early" + std::to_string(i));
    EXPECT_EQ(interner.Find(early[static_cast<size_t>(i)]), i);
  }
  // Every filler key still resolves and round-trips after all rehashes.
  for (int i = 0; i < 20000; ++i) {
    const std::string k = "filler" + std::to_string(i);
    const int id = interner.Find(k);
    ASSERT_GE(id, 64);
    EXPECT_EQ(interner.key(id), k);
  }
}

TEST(FlatStringInternerTest, OversizedKeysGetDedicatedBlocks) {
  FlatStringInterner interner;
  interner.Intern("small-before");
  const std::string huge_a(200000, 'a');  // > the 64 KiB arena block
  const std::string huge_b(70000, 'b');
  const int id_a = interner.Intern(huge_a);
  const std::string_view view_a = interner.key(id_a);
  const int id_b = interner.Intern(huge_b);
  // Small keys keep packing into the regular fill block around them.
  for (int i = 0; i < 5000; ++i) {
    interner.Intern("small" + std::to_string(i));
  }
  EXPECT_EQ(view_a, huge_a);
  EXPECT_EQ(interner.key(id_a), huge_a);
  EXPECT_EQ(interner.key(id_b), huge_b);
  EXPECT_EQ(interner.Find(huge_a), id_a);
  EXPECT_EQ(interner.Find(huge_b), id_b);
  EXPECT_EQ(interner.Find("small-before"), 0);
}

TEST(FlatStringInternerTest, SimilarShortKeysAllDistinct) {
  // The feature templates produce exactly this shape — short keys with
  // long shared prefixes — which is where a weak hash would cluster.
  FlatStringInterner interner;
  std::vector<std::string> keys;
  for (int d = -3; d <= 3; ++d) {
    for (int v = 0; v < 500; ++v) {
      keys.push_back("w[" + std::to_string(d) + "]=" + std::to_string(v));
      keys.push_back("p[" + std::to_string(d) + "]=" + std::to_string(v));
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Intern(keys[i]), static_cast<int>(i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Find(keys[i]), static_cast<int>(i));
  }
}

TEST(FlatStringInternerTest, UnicodeKeysRoundTrip) {
  FlatStringInterner interner;
  const std::vector<std::string> keys = {
      "重量", "サイズ", "色=青", "w[0]=☃", "größe", "пример"};
  for (const std::string& k : keys) interner.Intern(k);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Find(keys[i]), static_cast<int>(i));
    EXPECT_EQ(interner.key(static_cast<int>(i)), keys[i]);
  }
}

TEST(FlatStringInternerTest, ReserveDoesNotDisturbContents) {
  FlatStringInterner interner;
  interner.Intern("a");
  interner.Intern("b");
  interner.Reserve(100000);
  EXPECT_EQ(interner.Find("a"), 0);
  EXPECT_EQ(interner.Find("b"), 1);
  for (int i = 0; i < 1000; ++i) {
    interner.Intern(std::string("k").append(std::to_string(i)));
  }
  EXPECT_EQ(interner.size(), 1002u);
}

TEST(FlatStringInternerTest, ReservePreAllocatesTheProbeTable) {
  FlatStringInterner interner;
  interner.Reserve(10000);
  const size_t reserved_capacity = interner.capacity();
  // 10000 keys fit under the interner's load factor, so the bulk build
  // never rehashes: capacity is untouched by the inserts.
  for (int i = 0; i < 10000; ++i) {
    interner.Intern(std::string("k").append(std::to_string(i)));
  }
  EXPECT_EQ(interner.capacity(), reserved_capacity);
  EXPECT_EQ(interner.size(), 10000u);
  // An unreserved build of the same keys goes through the doubling
  // storm and lands on the same final capacity or smaller.
  FlatStringInterner unreserved;
  for (int i = 0; i < 10000; ++i) {
    unreserved.Intern(std::string("k").append(std::to_string(i)));
  }
  EXPECT_LE(unreserved.capacity(), reserved_capacity);
}

TEST(FlatStringInternerTest, CopyReInternsIndependently) {
  FlatStringInterner original;
  for (int i = 0; i < 300; ++i) original.Intern("key" + std::to_string(i));
  FlatStringInterner copy(original);
  ASSERT_EQ(copy.size(), original.size());
  for (int i = 0; i < 300; ++i) {
    const std::string k = "key" + std::to_string(i);
    EXPECT_EQ(copy.Find(k), i);
    EXPECT_EQ(copy.key(i), k);
    // Same bytes, distinct arenas.
    EXPECT_NE(copy.key(i).data(), original.key(i).data());
  }
  copy.Intern("only-in-copy");
  EXPECT_FALSE(original.Contains("only-in-copy"));

  FlatStringInterner assigned;
  assigned.Intern("stale");
  assigned = original;
  EXPECT_FALSE(assigned.Contains("stale"));
  EXPECT_EQ(assigned.Find("key0"), 0);
  EXPECT_EQ(assigned.size(), original.size());
}

TEST(FlatStringInternerTest, MovePreservesViews) {
  FlatStringInterner original;
  const int id = original.Intern("movable");
  const std::string_view view = original.key(id);
  FlatStringInterner moved(std::move(original));
  EXPECT_EQ(moved.Find("movable"), id);
  EXPECT_EQ(moved.key(id), view);
  EXPECT_EQ(moved.key(id).data(), view.data());  // arena moved, not copied
}

TEST(FlatStringInternerTest, HashIsStableAndSpreads) {
  const uint64_t h = FlatStringInterner::Hash("w[0]=重量");
  EXPECT_EQ(h, FlatStringInterner::Hash("w[0]=重量"));
  EXPECT_NE(FlatStringInterner::Hash("sent=1"),
            FlatStringInterner::Hash("sent=2"));
  // Single-character keys must not collapse into the low bits.
  EXPECT_NE(FlatStringInterner::Hash("a") & 0xff,
            FlatStringInterner::Hash("b") & 0xff);
}

}  // namespace
}  // namespace pae::util
