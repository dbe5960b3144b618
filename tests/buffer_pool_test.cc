#include <gtest/gtest.h>

#include <cstring>

#include "engine/buffer_pool.h"

namespace dbfa {
namespace {

constexpr uint32_t kPageSize = 512;

/// Backing store over an in-memory map; counts IO.
class MapBacking : public PageBacking {
 public:
  Status ReadPage(PageKey key, uint8_t* out) override {
    ++reads;
    auto it = pages.find(key);
    if (it == pages.end()) {
      std::memset(out, 0, kPageSize);
      pages[key] = Bytes(kPageSize, 0);
      return Status::Ok();
    }
    std::memcpy(out, it->second.data(), kPageSize);
    return Status::Ok();
  }
  Status WritePage(PageKey key, const uint8_t* data) override {
    ++writes;
    pages[key] = Bytes(data, data + kPageSize);
    return Status::Ok();
  }

  std::unordered_map<PageKey, Bytes, PageKeyHash> pages;
  int reads = 0;
  int writes = 0;
};

TEST(BufferPoolTest, HitAvoidsBackingRead) {
  MapBacking backing;
  BufferPool pool(4, kPageSize, &backing);
  { auto h = pool.Fetch({1, 1}); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(backing.reads, 1);
  { auto h = pool.Fetch({1, 1}); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(backing.reads, 1);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEvict) {
  MapBacking backing;
  BufferPool pool(2, kPageSize, &backing);
  {
    auto h = pool.Fetch({1, 1});
    ASSERT_TRUE(h.ok());
    h->data()[0] = 0xAB;
    h->MarkDirty();
  }
  // Fill the pool to force eviction of (1,1).
  { auto h = pool.Fetch({1, 2}); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch({1, 3}); ASSERT_TRUE(h.ok()); }
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_EQ((backing.pages[PageKey{1, 1}][0]), 0xAB);
}

TEST(BufferPoolTest, LruPrefersOldest) {
  MapBacking backing;
  BufferPool pool(2, kPageSize, &backing);
  { auto h = pool.Fetch({1, 1}); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch({1, 2}); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch({1, 1}); ASSERT_TRUE(h.ok()); }  // refresh 1
  { auto h = pool.Fetch({1, 3}); ASSERT_TRUE(h.ok()); }  // evicts 2
  auto keys = pool.CachedKeys();
  bool has1 = false;
  bool has2 = false;
  for (PageKey k : keys) {
    if (k.page_id == 1) has1 = true;
    if (k.page_id == 2) has2 = true;
  }
  EXPECT_TRUE(has1);
  EXPECT_FALSE(has2);
}

TEST(BufferPoolTest, PinnedPagesSurviveAndPoolGrowsWhenAllPinned) {
  MapBacking backing;
  BufferPool pool(2, kPageSize, &backing);
  auto h1 = pool.Fetch({1, 1});
  auto h2 = pool.Fetch({1, 2});
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  h1->data()[0] = 0x11;
  auto h3 = pool.Fetch({1, 3});  // all frames pinned -> pool grows
  ASSERT_TRUE(h3.ok());
  EXPECT_GE(pool.capacity(), 3u);
  EXPECT_EQ(h1->data()[0], 0x11) << "pinned frame must not be recycled";
}

TEST(BufferPoolTest, FlushAllWritesDirtyFrames) {
  MapBacking backing;
  BufferPool pool(4, kPageSize, &backing);
  {
    auto h = pool.Fetch({2, 1});
    ASSERT_TRUE(h.ok());
    h->data()[5] = 0x77;
    h->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ((backing.pages[PageKey{2, 1}][5]), 0x77);
}

TEST(BufferPoolTest, SnapshotRamHasFrameGranularity) {
  MapBacking backing;
  BufferPool pool(3, kPageSize, &backing);
  {
    auto h = pool.Fetch({1, 1});
    ASSERT_TRUE(h.ok());
    h->data()[0] = 0x42;
    h->MarkDirty();
  }
  Bytes ram = pool.SnapshotRam();
  EXPECT_EQ(ram.size(), 3u * kPageSize);
  EXPECT_EQ(ram[0], 0x42);
}

TEST(BufferPoolTest, ClearDropsEverything) {
  MapBacking backing;
  BufferPool pool(2, kPageSize, &backing);
  {
    auto h = pool.Fetch({1, 1});
    ASSERT_TRUE(h.ok());
    h->data()[0] = 0x55;
    h->MarkDirty();
  }
  ASSERT_TRUE(pool.Clear().ok());
  EXPECT_TRUE(pool.CachedKeys().empty());
  EXPECT_EQ((backing.pages[PageKey{1, 1}][0]), 0x55)
      << "dirty data flushed first";
  Bytes ram = pool.SnapshotRam();
  EXPECT_EQ(ram[0], 0x00) << "frames zeroed";
}

}  // namespace
}  // namespace dbfa
