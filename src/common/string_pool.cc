#include "common/string_pool.h"

#include <atomic>

#include "common/bytes.h"

namespace dbfa {

namespace {

// Pool identities start at 1 so that pool_id == 0 always means "no pool".
std::atomic<uint64_t> g_next_pool_id{1};

constexpr size_t kInitialSlots = 64;  // power of two

// Each thread's most recent interns, direct-mapped by hash, in front of the
// shard locks: carved cells repeat (status tags, enum-like columns), and a
// hit here skips the shard lock and the table probe. An entry serves only
// the pool whose id it carries, and pool ids are never reused, so a hit
// always points into the live pool being asked.
constexpr size_t kRecentSlots = 256;  // power of two
thread_local StringRef t_recent[kRecentSlots];

}  // namespace

StringPool::StringPool(size_t shard_count) {
  if (shard_count < 1) shard_count = 1;
  if (shard_count > 64) shard_count = 64;
  size_t n = 1;
  uint32_t bits = 0;
  while (n < shard_count) {
    n *= 2;
    ++bits;
  }
  shard_mask_ = n - 1;
  shard_bits_ = bits;
  pool_id_ = g_next_pool_id.fetch_add(1, std::memory_order_relaxed);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->slots.assign(kInitialSlots, kEmptySlot);
    shards_.push_back(std::move(sh));
  }
}

void StringPool::GrowLocked(Shard* sh) {
  size_t new_size = sh->slots.size() * 2;
  std::vector<uint32_t> slots(new_size, kEmptySlot);
  size_t mask = new_size - 1;
  for (uint32_t e = 0; e < sh->entries.size(); ++e) {
    size_t i = sh->entries[e].hash & mask;
    while (slots[i] != kEmptySlot) i = (i + 1) & mask;
    slots[i] = e;
  }
  sh->slots.swap(slots);
}

StringRef StringPool::InternHashed(std::string_view s, size_t h) {
  StringRef& recent = t_recent[h & (kRecentSlots - 1)];
  if (recent.pool_id == pool_id_ && recent.hash == h &&
      recent.len == s.size() && recent.view() == s) {
    return recent;
  }
  const size_t shard_index = ShardOf(h);
  Shard& sh = *shards_[shard_index];
  MutexLock lock(&sh.mu);
  size_t mask = sh.slots.size() - 1;
  size_t i = h & mask;
  while (sh.slots[i] != kEmptySlot) {
    const StringRef& r = sh.entries[sh.slots[i]];
    if (r.hash == h && r.len == s.size() && r.view() == s) {
      recent = r;
      return r;
    }
    i = (i + 1) & mask;
  }
  char* dst = sh.arena.Allocate(s.size(), /*align=*/1);
  CopyBytes(dst, s.data(), s.size());
  StringRef ref;
  ref.data = dst;
  ref.len = static_cast<uint32_t>(s.size());
  ref.id = static_cast<uint32_t>((sh.entries.size() << shard_bits_) |
                                 shard_index);
  ref.pool_id = pool_id_;
  ref.hash = h;
  sh.slots[i] = static_cast<uint32_t>(sh.entries.size());
  sh.entries.push_back(ref);
  sh.string_bytes += s.size();
  // Keep load factor under 0.7 (entries / slots, checked after insert).
  if (sh.entries.size() * 10 >= sh.slots.size() * 7) GrowLocked(&sh);
  recent = ref;
  return ref;
}

std::optional<StringRef> StringPool::Find(std::string_view s) const {
  const size_t h = HashStringContent(s);
  const Shard& sh = *shards_[ShardOf(h)];
  MutexLock lock(&sh.mu);
  size_t mask = sh.slots.size() - 1;
  size_t i = h & mask;
  while (sh.slots[i] != kEmptySlot) {
    const StringRef& r = sh.entries[sh.slots[i]];
    if (r.hash == h && r.len == s.size() && r.view() == s) return r;
    i = (i + 1) & mask;
  }
  return std::nullopt;
}

StringPool::Stats StringPool::GetStats() const {
  Stats st;
  st.shard_count = shards_.size();
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    MutexLock lock(&sh.mu);
    st.distinct_count += sh.entries.size();
    st.string_bytes += sh.string_bytes;
    st.arena_bytes_used += sh.arena.bytes_used();
    st.arena_bytes_reserved += sh.arena.bytes_reserved();
    st.table_bytes += sh.slots.capacity() * sizeof(uint32_t) +
                      sh.entries.capacity() * sizeof(StringRef);
  }
  return st;
}

size_t StringPool::BytesUsed() const {
  Stats st = GetStats();
  return st.arena_bytes_reserved + st.table_bytes +
         st.shard_count * sizeof(Shard);
}

void StringPoolSet::Add(std::shared_ptr<const StringPool> pool) {
  if (pool == nullptr || Holds(pool->pool_id())) return;
  pools_.push_back(std::move(pool));
}

bool StringPoolSet::Holds(uint64_t pool_id) const {
  for (const auto& pool : pools_) {
    if (pool->pool_id() == pool_id) return true;
  }
  return false;
}

}  // namespace dbfa
