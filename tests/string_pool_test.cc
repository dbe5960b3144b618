#include "common/string_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "storage/value.h"

namespace dbfa {
namespace {

TEST(StringPoolTest, InternReturnsIdenticalRefForSameContent) {
  StringPool pool;
  StringRef a = pool.Intern("hello");
  StringRef b = pool.Intern(std::string("hel") + "lo");
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.len, 5u);
  EXPECT_EQ(a.pool_id, pool.pool_id());
  EXPECT_EQ(a.view(), "hello");

  StringRef c = pool.Intern("world");
  EXPECT_NE(c.id, a.id);
  EXPECT_EQ(pool.GetStats().distinct_count, 2u);
}

TEST(StringPoolTest, FindDoesNotInsert) {
  StringPool pool;
  EXPECT_FALSE(pool.Find("absent").has_value());
  EXPECT_EQ(pool.GetStats().distinct_count, 0u);
  StringRef r = pool.Intern("present");
  auto found = pool.Find("present");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->data, r.data);
  EXPECT_EQ(found->id, r.id);
}

TEST(StringPoolTest, CachedHashMatchesOwnedStringHash) {
  // The HashRecord/CompareRecords compatibility invariant: a Value holding
  // an interned ref and a Value owning the same bytes must hash
  // identically, because both route through HashStringContent (interned
  // refs cache it at intern time). Documented in common/string_ref.h.
  StringPool pool;
  std::vector<std::string> samples = {"", "a", "delete-marked row",
                                      std::string(500, 'x'),
                                      std::string("nul\0byte", 8)};
  for (const std::string& s : samples) {
    StringRef r = pool.Intern(s);
    EXPECT_EQ(r.hash, HashStringContent(s)) << "content: " << s;
    Value interned = Value::InternedStr(r);
    Value owned = Value::Str(s);
    EXPECT_EQ(interned.Hash(), owned.Hash()) << "content: " << s;
    EXPECT_EQ(Value::Compare(interned, owned), 0) << "content: " << s;
  }
}

TEST(StringPoolTest, ManyStringsSurviveTableGrowth) {
  StringPool pool(/*shard_count=*/2);
  std::vector<StringRef> refs;
  for (int i = 0; i < 5000; ++i) {
    refs.push_back(pool.Intern("key-" + std::to_string(i)));
  }
  // Growth rehashes the tables but never moves string bytes: every ref
  // taken before the growth still reads back its content.
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(refs[static_cast<size_t>(i)].view(),
              "key-" + std::to_string(i));
    StringRef again = pool.Intern("key-" + std::to_string(i));
    EXPECT_EQ(again.data, refs[static_cast<size_t>(i)].data);
  }
  EXPECT_EQ(pool.GetStats().distinct_count, 5000u);
}

TEST(StringPoolTest, ShardChoiceIsContentDeterministic) {
  // The shard a string lands in depends only on its content hash and the
  // shard count — never on which thread interned it first. Two pools with
  // the same shard count must therefore agree on every (data-pointer
  // aside) structural property observable through stats as strings arrive
  // in different orders.
  StringPool forward(/*shard_count=*/4);
  StringPool backward(/*shard_count=*/4);
  std::vector<std::string> words;
  for (int i = 0; i < 200; ++i) words.push_back("w" + std::to_string(i));
  for (const std::string& w : words) forward.Intern(w);
  for (auto it = words.rbegin(); it != words.rend(); ++it) {
    backward.Intern(*it);
  }
  StringPool::Stats fs = forward.GetStats();
  StringPool::Stats bs = backward.GetStats();
  EXPECT_EQ(fs.distinct_count, bs.distinct_count);
  EXPECT_EQ(fs.string_bytes, bs.string_bytes);
  EXPECT_EQ(fs.shard_count, bs.shard_count);
  // Same contents -> same arena footprint, insertion order immaterial.
  EXPECT_EQ(fs.arena_bytes_used, bs.arena_bytes_used);
}

TEST(StringPoolTest, StatsAndBytesUsedAccountForContent) {
  StringPool pool(/*shard_count=*/1);
  size_t baseline = pool.BytesUsed();
  pool.Intern(std::string(1000, 'a'));
  pool.Intern(std::string(2000, 'b'));
  pool.Intern(std::string(1000, 'a'));  // duplicate: no new bytes
  StringPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.distinct_count, 2u);
  EXPECT_EQ(stats.string_bytes, 3000u);
  EXPECT_GE(stats.arena_bytes_used, 3000u);
  EXPECT_GE(stats.arena_bytes_reserved, stats.arena_bytes_used);
  EXPECT_GE(pool.BytesUsed(), baseline + 3000);
  EXPECT_GE(pool.BytesUsed(),
            stats.arena_bytes_reserved + stats.table_bytes);
}

TEST(StringPoolTest, ConcurrentInternIsRaceFreeAndConsistent) {
  // Run under the `sanitize` label so TSan sees real interleavings: eight
  // threads intern overlapping working sets; every thread must observe the
  // canonical ref for each string, and the pool must end with exactly the
  // union of distinct contents.
  StringPool pool;
  constexpr int kThreads = 8;
  constexpr int kDistinct = 300;
  std::vector<std::vector<StringRef>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &pool, &seen] {
      std::vector<StringRef>& mine = seen[static_cast<size_t>(t)];
      mine.resize(kDistinct);
      for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < kDistinct; ++i) {
          // Start each thread at a different offset so first-intern races
          // happen on every string, not just the low indices.
          int k = (i + t * 37) % kDistinct;
          mine[static_cast<size_t>(k)] =
              pool.Intern("shared-" + std::to_string(k));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pool.GetStats().distinct_count, static_cast<size_t>(kDistinct));
  for (int k = 0; k < kDistinct; ++k) {
    const StringRef& canonical = seen[0][static_cast<size_t>(k)];
    EXPECT_EQ(canonical.view(), "shared-" + std::to_string(k));
    for (int t = 1; t < kThreads; ++t) {
      const StringRef& other =
          seen[static_cast<size_t>(t)][static_cast<size_t>(k)];
      ASSERT_EQ(canonical.data, other.data) << "string " << k;
      ASSERT_EQ(canonical.id, other.id) << "string " << k;
    }
  }
}

TEST(StringPoolTest, DistinctPoolsHaveDistinctIdentity) {
  StringPool a;
  StringPool b;
  EXPECT_NE(a.pool_id(), b.pool_id());
  EXPECT_NE(a.pool_id(), 0u);
  // Same content in different pools: content-equal, identity-distinct.
  Value va = Value::InternedStr(a.Intern("x"));
  Value vb = Value::InternedStr(b.Intern("x"));
  EXPECT_EQ(Value::Compare(va, vb), 0);
  EXPECT_NE(va.interned_ref().pool_id, vb.interned_ref().pool_id);
}

TEST(StringPoolTest, PoolSetHoldsEachPoolOnceAndKeepsItAlive) {
  auto a = std::make_shared<StringPool>();
  auto b = std::make_shared<StringPool>();
  StringRef ref = a->Intern("held");
  StringPoolSet set(a);
  set.Add(a);
  set.Add(nullptr);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Holds(a->pool_id()));
  EXPECT_FALSE(set.Holds(b->pool_id()));
  set.Add(b);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Holds(b->pool_id()));
  a.reset();  // the set's reference keeps the pool and its bytes alive
  EXPECT_EQ(ref.view(), "held");
}

}  // namespace
}  // namespace dbfa
