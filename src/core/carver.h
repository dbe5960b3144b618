// The carver (Figure 2, component F): reconstructs database content from
// any byte stream — disk images, RAM snapshots, or arbitrary files —
// using only a page-layout configuration. No DBMS, no filesystem.
//
// Pipeline per image:
//   1. page detection  — scan at sector granularity for pages matching the
//      config's magic + sane header fields; checksums classify corruption.
//   2. catalog pass    — decode pages of the catalog object untyped (the
//      catalog's column shape is universal: strings + integers), recover
//      table schemas and index metadata, including delete-marked entries
//      (dropped objects).
//   3. content pass    — decode data pages (typed when a schema is known),
//      classify every record active/deleted per the dialect's delete
//      strategy, parse index pages into (key, pointer) entries.
//   4. raw-scan pass   — slot-directory-independent record scan on pages
//      whose structure looks damaged, recovering what slots no longer
//      reference.
#ifndef DBFA_CORE_CARVER_H_
#define DBFA_CORE_CARVER_H_

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/artifacts.h"
#include "core/config_io.h"

namespace dbfa {

struct CarveOptions {
  /// Scan step for page detection. 512 models disk-sector granularity;
  /// images assembled from files and sector-sized garbage runs are always
  /// detected. Set to 1 for exhaustive (slow) scans of arbitrary blobs.
  size_t scan_step = 512;
  /// Parse pages whose checksum fails (flagged in CarvedPage::checksum_ok).
  bool parse_bad_checksum_pages = true;
  /// Run the slot-independent raw scan on pages whose slot directory is
  /// missing records or damaged.
  bool raw_scan_fallback = true;
  /// Worker threads of the pool ParallelCarver and SnapshotRepo create;
  /// 0 means hardware concurrency. Carver itself runs on the pool it is
  /// handed.
  size_t num_threads = 0;
  /// Pages per detection chunk of a parallel scan (core/page_scanner.h); 0
  /// sizes chunks automatically from the image and thread count. Exposed
  /// mainly so tests can force pages onto chunk edges.
  size_t chunk_pages = 0;
};

class Carver {
 public:
  explicit Carver(CarverConfig config, CarveOptions options = {});

  const CarverConfig& config() const { return config_; }

  /// Reconstructs all artifacts of this config's dialect from `image`.
  /// With a `pool` of more than one worker, page detection and content
  /// decoding fan out over it; the artifacts are identical for every pool
  /// (docs/parallel_carving.md). String cells of records and index keys
  /// are interned into the result's own CarveResult::string_pool.
  Result<CarveResult> Carve(ByteView image, ThreadPool* pool = nullptr) const;

  /// Runs one carver per candidate config over the same image (multi-DBMS
  /// images); returns one result per config, same order.
  static Result<std::vector<CarveResult>> CarveMulti(
      ByteView image, const std::vector<CarverConfig>& configs,
      CarveOptions options = {}, ThreadPool* pool = nullptr);

 private:
  /// True when the bytes at `offset` look like a page of this dialect.
  bool LooksLikePage(ByteView image, size_t offset, bool* checksum_ok) const;

  /// Probes one offset; returns the decoded page header when the bytes
  /// there look like a page of this dialect. Position-independent: reads
  /// only [offset, offset + page_size).
  std::optional<CarvedPage> ProbePage(ByteView image, size_t offset) const;

  /// Passes 3-4 over base.pages[i] for every i in `pages` (ascending):
  /// appends their records and index entries to *records and *entries in
  /// page order, with every string cell interned into base.string_pool,
  /// exactly as the serial walk does. On a `pool`, contiguous runs of
  /// `pages` decode concurrently leaving string cells unresolved, then one
  /// task per pool shard interns that shard's cells in page order, so the
  /// interned ids equal the serial walk's (docs/parallel_carving.md).
  /// `base` supplies page metadata, schemas and the string pool; its
  /// artifact collections are never read.
  void CarveContent(ByteView image, ThreadPool* pool, const CarveResult& base,
                    const std::vector<size_t>& pages,
                    std::vector<CarvedRecord>* records,
                    std::vector<CarvedIndexEntry>* entries) const;

  /// Pass 2: catalog reconstruction over base->pages (reads the page list,
  /// fills catalog_entries / schemas / indexes / dropped_objects).
  void CarveCatalog(ByteView image, CarveResult* result) const;

  /// Passes 3-4 over page `i` of base.pages, appending to *records or
  /// *entries with string cells left unresolved (StringCells::kUnresolved).
  void CarvePage(ByteView image, const CarveResult& base, size_t i,
                 std::vector<CarvedRecord>* records,
                 std::vector<CarvedIndexEntry>* entries) const;

  void CarveDataPage(ByteView page, size_t page_index, const CarvedPage& meta,
                     const TableSchema* schema,
                     std::vector<CarvedRecord>* out) const;
  void CarveIndexPage(ByteView page, size_t page_index,
                      const CarvedPage& meta,
                      std::vector<CarvedIndexEntry>* out) const;

  friend class SnapshotRepo;  // store-first detection + per-page decode

  CarverConfig config_;
  PageFormatter fmt_;
  CarveOptions options_;
};

}  // namespace dbfa

#endif  // DBFA_CORE_CARVER_H_
