// Storage artifacts reconstructed by the carver (Figure 2, output H):
// pages, user records (active and deleted), index entries, and system
// catalog content. These are the inputs to meta-querying (Section II-C),
// DBDetective (III-A) and DBStorageAuditor (III-B).
#ifndef DBFA_CORE_ARTIFACTS_H_
#define DBFA_CORE_ARTIFACTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/string_pool.h"

#include "storage/page_formatter.h"
#include "storage/page_layout.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace dbfa {

/// One reconstructed page.
struct CarvedPage {
  size_t image_offset = 0;  // byte offset within the carved image
  uint32_t page_id = 0;
  uint32_t object_id = 0;
  PageType type = PageType::kData;
  uint16_t record_count = 0;
  uint32_t next_page = 0;  // heap / leaf chain
  uint64_t lsn = 0;
  bool checksum_ok = true;

  bool operator==(const CarvedPage&) const = default;
};

enum class RowStatus { kActive, kDeleted };

inline const char* RowStatusName(RowStatus s) {
  return s == RowStatus::kActive ? "ACTIVE" : "DELETED";
}

/// One reconstructed record.
struct CarvedRecord {
  size_t page_index = 0;  // index into CarveResult::pages
  uint32_t object_id = 0;
  uint32_t page_id = 0;
  /// Slot within the page; kOrphanSlot when recovered by the raw scan
  /// (slot directory bypassed).
  uint16_t slot = 0;
  static constexpr uint16_t kOrphanSlot = 0xFFFF;

  RowStatus status = RowStatus::kActive;
  uint64_t row_id = 0;
  uint64_t page_lsn = 0;
  Record values;
  /// True when a reconstructed schema drove the decoding; false for
  /// best-effort untyped decoding.
  bool typed = false;

  bool operator==(const CarvedRecord&) const = default;
};

/// One reconstructed index entry ("deleted values" live here after the
/// record they point to is deleted).
struct CarvedIndexEntry {
  size_t page_index = 0;
  uint32_t object_id = 0;
  uint32_t page_id = 0;
  /// True for leaf entries (pointer = row pointer); false for internal
  /// separators (pointer.page_id = child index page).
  bool leaf = true;
  std::vector<Value> keys;
  RowPointer pointer;

  bool operator==(const CarvedIndexEntry&) const = default;
};

/// One reconstructed system-catalog row.
struct CarvedCatalogEntry {
  std::string entry_type;  // "TABLE" / "INDEX"
  std::string name;
  uint32_t object_id = 0;
  uint32_t table_object_id = 0;
  uint32_t root_page = 0;
  std::string info;  // serialized schema / index column list
  RowStatus status = RowStatus::kActive;

  bool operator==(const CarvedCatalogEntry&) const = default;
};

/// Index metadata recovered from the catalog.
struct CarvedIndexMeta {
  std::string name;
  uint32_t object_id = 0;
  uint32_t table_object_id = 0;
  uint32_t root_page = 0;
  std::vector<std::string> columns;
  bool dropped = false;

  bool operator==(const CarvedIndexMeta&) const = default;
};

/// Lightweight carve metrics, populated by `Carver::Carve` on any pool.
/// Artifact outputs are identical for every pool; only `pages_probed` may
/// be higher on a pool of more than one worker, because the chunked page
/// scan probes the full detection grid (it cannot skip accepted-page
/// interiors the way the serial cursor does). Phase wall times on a pool
/// measure the whole concurrent pass.
struct CarveStats {
  size_t bytes_scanned = 0;      // image bytes the detection pass covered
  size_t pages_probed = 0;       // offsets where the magic test ran
  size_t pages_accepted = 0;     // offsets accepted as pages
  size_t checksum_failures = 0;  // accepted pages failing their checksum
  double detect_seconds = 0.0;   // pass 1: page detection
  double catalog_seconds = 0.0;  // pass 2: catalog reconstruction
  double content_seconds = 0.0;  // passes 3-4: content + raw-scan fallback

  double TotalSeconds() const {
    return detect_seconds + catalog_seconds + content_seconds;
  }
  /// Raw image MB/s through the whole pipeline; 0 when no time elapsed.
  double ThroughputMBps() const;
  std::string ToString() const;
};

/// Everything reconstructed from one image with one dialect config.
struct CarveResult {
  std::string dialect;
  size_t image_size = 0;

  /// Timing and probe counters for the carve that produced this result.
  /// Not part of the artifact output: equivalence checks compare the
  /// collections below, never stats.
  CarveStats stats;

  /// The pool every string cell of `records` and `index_entries` is
  /// interned in; never null in a result the carver or a snapshot
  /// repository returns. A carve has a pool of its own; every result a
  /// SnapshotRepo assembles shares the repository's pool. Shared so the
  /// results built from this carve can hold it (StringPoolSet) and stay
  /// readable after it is gone.
  std::shared_ptr<StringPool> string_pool;

  std::vector<CarvedPage> pages;
  std::vector<CarvedRecord> records;
  std::vector<CarvedIndexEntry> index_entries;
  std::vector<CarvedCatalogEntry> catalog_entries;

  /// object id -> schema, from catalog TABLE entries (active or deleted).
  std::map<uint32_t, TableSchema> schemas;
  /// index object id -> metadata, from catalog INDEX entries.
  std::map<uint32_t, CarvedIndexMeta> indexes;
  /// Objects whose catalog entries are all delete-marked: dropped tables /
  /// rebuilt indexes — the "deleted pages" category.
  std::set<uint32_t> dropped_objects;

  /// Table schema by (case-insensitive) name; nullptr when unknown.
  const TableSchema* SchemaByName(const std::string& table) const;
  /// Object id for a table name; 0 when unknown.
  uint32_t ObjectIdByName(const std::string& table) const;

  /// Records of one table (by name), optionally filtered by status.
  std::vector<const CarvedRecord*> RecordsForTable(
      const std::string& table,
      std::optional<RowStatus> status = std::nullopt) const;

  /// Index entries belonging to one index object.
  std::vector<const CarvedIndexEntry*> EntriesForIndex(
      uint32_t index_object_id) const;

  /// Counts by status for quick reporting.
  size_t CountRecords(RowStatus status) const;

  /// Human-readable inventory summary.
  std::string Summary() const;
};

}  // namespace dbfa

#endif  // DBFA_CORE_ARTIFACTS_H_
