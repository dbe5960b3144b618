// Shared differential-test helpers: assert two CarveResults are
// element-wise identical — every artifact collection, in order — and, for
// two fresh carves, that their string cells carry the same interned ids.
// Used to prove ParallelCarver output equals serial Carver output for any
// thread count / chunk size. Stats are intentionally NOT compared: wall
// times differ run to run, and the parallel detector probes a superset of
// the serial cursor's offsets.
#ifndef DBFA_TESTS_CARVE_EQUIVALENCE_H_
#define DBFA_TESTS_CARVE_EQUIVALENCE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/artifacts.h"

namespace dbfa {

inline void ExpectSameCarveResult(const CarveResult& expected,
                                  const CarveResult& actual) {
  EXPECT_EQ(expected.dialect, actual.dialect);
  EXPECT_EQ(expected.image_size, actual.image_size);

  ASSERT_EQ(expected.pages.size(), actual.pages.size());
  for (size_t i = 0; i < expected.pages.size(); ++i) {
    EXPECT_EQ(expected.pages[i], actual.pages[i])
        << "page " << i << " differs (expected offset "
        << expected.pages[i].image_offset << ", actual "
        << actual.pages[i].image_offset << ")";
  }

  ASSERT_EQ(expected.records.size(), actual.records.size());
  for (size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(expected.records[i], actual.records[i])
        << "record " << i << " differs (expected page_id "
        << expected.records[i].page_id << " slot "
        << expected.records[i].slot << ", actual page_id "
        << actual.records[i].page_id << " slot " << actual.records[i].slot
        << ")";
  }

  ASSERT_EQ(expected.index_entries.size(), actual.index_entries.size());
  for (size_t i = 0; i < expected.index_entries.size(); ++i) {
    EXPECT_EQ(expected.index_entries[i], actual.index_entries[i])
        << "index entry " << i << " differs";
  }

  ASSERT_EQ(expected.catalog_entries.size(), actual.catalog_entries.size());
  for (size_t i = 0; i < expected.catalog_entries.size(); ++i) {
    EXPECT_EQ(expected.catalog_entries[i], actual.catalog_entries[i])
        << "catalog entry " << i << " differs";
  }

  EXPECT_EQ(expected.schemas, actual.schemas);
  EXPECT_EQ(expected.indexes, actual.indexes);
  EXPECT_EQ(expected.dropped_objects, actual.dropped_objects);
}

/// The id of every string cell of `result` (records, then index entries),
/// with a failure for each cell that is not interned in result.string_pool:
/// an owned string, an unresolved cell (pool_id 0) or another pool's ref.
inline std::vector<uint32_t> InternedIds(const CarveResult& result) {
  std::vector<uint32_t> ids;
  size_t foreign = 0;
  auto add = [&](const std::vector<Value>& values) {
    for (const Value& v : values) {
      if (v.type() != ValueType::kString) continue;
      if (!v.is_interned() ||
          v.interned_ref().pool_id != result.string_pool->pool_id()) {
        ++foreign;
        continue;
      }
      ids.push_back(v.interned_ref().id);
    }
  };
  for (const CarvedRecord& r : result.records) add(r.values);
  for (const CarvedIndexEntry& e : result.index_entries) add(e.keys);
  EXPECT_EQ(foreign, 0u)
      << "string cells not interned in the result's own pool";
  return ids;
}

/// Asserts that `a` and `b` interned their string cells to the same ids,
/// cell by cell, each in its own pool. Only two fresh carves of one image
/// compare this way: a snapshot repository's pool has interned other
/// strings first, so its ids differ from a fresh carve's by design.
inline void ExpectSameInternedIds(const CarveResult& a, const CarveResult& b) {
  ASSERT_NE(a.string_pool, nullptr);
  ASSERT_NE(b.string_pool, nullptr);
  std::vector<uint32_t> ids_a = InternedIds(a);
  std::vector<uint32_t> ids_b = InternedIds(b);
  ASSERT_EQ(ids_a.size(), ids_b.size());
  size_t differ = 0;
  size_t first = ids_a.size();
  for (size_t i = 0; i < ids_a.size(); ++i) {
    if (ids_a[i] == ids_b[i]) continue;
    if (differ++ == 0) first = i;
  }
  EXPECT_EQ(differ, 0u) << "interned ids differ, first at string cell "
                        << first << " of " << ids_a.size();
}

/// Sanity conditions both carvers' stats must satisfy for `result`.
inline void ExpectSaneCarveStats(const CarveResult& result) {
  EXPECT_EQ(result.stats.bytes_scanned, result.image_size);
  EXPECT_EQ(result.stats.pages_accepted, result.pages.size());
  EXPECT_GE(result.stats.pages_probed, result.stats.pages_accepted);
  size_t bad = 0;
  for (const CarvedPage& p : result.pages) {
    if (!p.checksum_ok) ++bad;
  }
  EXPECT_EQ(result.stats.checksum_failures, bad);
}

}  // namespace dbfa

#endif  // DBFA_TESTS_CARVE_EQUIVALENCE_H_
