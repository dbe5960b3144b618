// Arena-backed string interning, sharded for lock-cheap concurrent interning
// by parallel decode workers.
//
// Each distinct string is stored once in a shard-private Arena and mapped to
// a stable StringRef {ptr, len, id} via an open-addressing table (the idiom
// follows the DuckDB StringTable / hash-trie exemplars in SNIPPETS.md). The
// shard is chosen from the content hash, so where a string lands — and
// therefore its ref — depends only on its content and the pool's shard
// count, never on which thread interned it first ("cross-shard interning
// determinism"; the shard-local *id* still depends on insertion order, see
// StringRef).
#ifndef DBFA_COMMON_STRING_POOL_H_
#define DBFA_COMMON_STRING_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/mutex.h"
#include "common/string_ref.h"

namespace dbfa {

/// Thread-safe interning table. Intern() may be called concurrently from any
/// number of threads; a string's bytes are copied into the owning shard's
/// arena exactly once and every later Intern() of the same content returns
/// the identical StringRef (same pointer, same id).
class StringPool {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// `shard_count` is rounded up to a power of two in [1, 64].
  explicit StringPool(size_t shard_count = kDefaultShards);

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Interns `s`, copying it into the pool on first sight. Strings longer
  /// than UINT32_MAX bytes are unsupported (carved cells are bounded by the
  /// 32 KiB page-size ceiling long before that).
  StringRef Intern(std::string_view s);

  /// Returns the ref for `s` if it has been interned, without inserting.
  std::optional<StringRef> Find(std::string_view s) const;

  struct Stats {
    size_t distinct_count = 0;   // number of distinct strings interned
    size_t string_bytes = 0;     // sum of lengths of distinct strings
    size_t arena_bytes_used = 0;
    size_t arena_bytes_reserved = 0;
    size_t table_bytes = 0;  // open-addressing slots + entry vectors
    size_t shard_count = 0;
  };
  Stats GetStats() const;

  /// Total bytes owned by the pool (arenas + tables).
  size_t BytesUsed() const;

  /// Process-unique pool identity stamped into every ref this pool returns.
  uint64_t pool_id() const { return pool_id_; }

 private:
  struct Shard {
    // Innermost rank in the tree; shards of one pool never nest (the
    // shard choice is a pure function of the content hash).
    mutable Mutex mu{"string_pool/shard", lock_rank::kStringPoolShard};
    Arena arena DBFA_GUARDED_BY(mu);
    std::vector<StringRef> entries DBFA_GUARDED_BY(mu);
    // Open addressing, linear probing; values index `entries`, kEmptySlot
    // marks a free slot. Grown (power-of-two) before load factor hits 0.7.
    std::vector<uint32_t> slots DBFA_GUARDED_BY(mu);
    size_t string_bytes DBFA_GUARDED_BY(mu) = 0;
  };

  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  size_t ShardIndex(size_t hash) const { return (hash >> 48) & shard_mask_; }
  static void GrowLocked(Shard* sh);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;
  uint32_t shard_bits_;
  uint64_t pool_id_;
};

/// The pools a result's interned cells point into. Every public type that
/// carries carved Values holds one, filled by the function that builds the
/// result from its sources, so the result stays readable after those
/// sources are gone (docs/columnar_memory.md).
class StringPoolSet {
 public:
  StringPoolSet() = default;
  explicit StringPoolSet(std::shared_ptr<const StringPool> pool) {
    Add(std::move(pool));
  }

  /// Holds `pool` too; null and already-held pools are ignored.
  void Add(std::shared_ptr<const StringPool> pool);

  /// True when a held pool has this identity (StringRef::pool_id).
  bool Holds(uint64_t pool_id) const;

  size_t size() const { return pools_.size(); }

 private:
  std::vector<std::shared_ptr<const StringPool>> pools_;
};

}  // namespace dbfa

#endif  // DBFA_COMMON_STRING_POOL_H_
