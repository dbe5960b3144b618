// StringRef: a non-owning reference to a string interned in a StringPool.
//
// Split out of string_pool.h so that storage/value.h (included nearly
// everywhere) can hold interned strings without pulling in the pool's
// mutex/arena machinery.
#ifndef DBFA_COMMON_STRING_REF_H_
#define DBFA_COMMON_STRING_REF_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace dbfa {

/// Content hash used for every string in dbfa — owned std::string cells and
/// interned StringRefs alike. Value::Hash routes both string representations
/// through this function (interned refs cache the result at intern time), so
/// HashRecord stays compatible with CompareRecords equality regardless of
/// which representation a cell uses. Invariant tested in string_pool_test.
inline size_t HashStringContent(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

/// Reference to a string interned in a StringPool.
///
/// Lifetime: `data` points into the pool's arena and is valid exactly as
/// long as the owning pool is alive; the bytes never move (see
/// docs/columnar_memory.md for the lifetime rules).
///
/// Identity: within one pool, interning the same content always returns the
/// same ref — equal (pool_id, id) implies equal content and vice versa. Ids
/// are dense-ish and stable for the pool's lifetime. A carve interns its
/// string cells shard by shard in page order at every thread count, so the
/// ids of a fresh carve do not depend on its thread count
/// (Carver::CarveContent); a pool that has interned other strings first (a
/// snapshot repository's) gives the same content other ids. Ids must never
/// leak into persisted or user-visible output — comparisons fall back to
/// content whenever pools differ.
///
/// A ref with pool_id 0 is a decoded string cell not yet interned: `data`
/// views the page bytes it was decoded from and `hash` is already computed.
/// Only the carver's content pass holds such cells; it interns every one
/// before its result leaves it.
struct StringRef {
  const char* data = nullptr;
  uint32_t len = 0;
  /// Unique within the owning pool: (shard-local index << shard_bits) | shard.
  uint32_t id = 0;
  /// Process-unique identity of the owning pool; 0 = none (not interned).
  uint64_t pool_id = 0;
  /// Cached HashStringContent(view()), computed once at intern time.
  size_t hash = 0;

  std::string_view view() const { return std::string_view(data, len); }
};

}  // namespace dbfa

#endif  // DBFA_COMMON_STRING_REF_H_
