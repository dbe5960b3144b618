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

  /// Passes 3-4 over all of result->pages, in contiguous page ranges on
  /// `pool` (or inline when it is null) concatenated in range order.
  void CarveContent(ByteView image, ThreadPool* pool,
                    CarveResult* result) const;

  /// Pass 2: catalog reconstruction over base->pages (reads the page list,
  /// fills catalog_entries / schemas / indexes / dropped_objects).
  void CarveCatalog(ByteView image, CarveResult* result) const;

  /// Passes 3-4 over pages [begin, end) of base.pages: decodes data and
  /// index pages in page order, appending to *records and *entries exactly
  /// as the serial content pass would. `base` supplies page metadata and
  /// schemas and is never written, so disjoint ranges can run concurrently.
  void CarveContentRange(ByteView image, const CarveResult& base,
                         size_t begin, size_t end,
                         std::vector<CarvedRecord>* records,
                         std::vector<CarvedIndexEntry>* entries) const;

  void CarveDataPage(ByteView page, size_t page_index, const CarvedPage& meta,
                     const TableSchema* schema, StringPool* pool,
                     std::vector<CarvedRecord>* out) const;
  void CarveIndexPage(ByteView page, size_t page_index,
                      const CarvedPage& meta, StringPool* pool,
                      std::vector<CarvedIndexEntry>* out) const;

  friend class SnapshotRepo;  // store-first detection + per-page decode

  CarverConfig config_;
  PageFormatter fmt_;
  CarveOptions options_;
};

}  // namespace dbfa

#endif  // DBFA_CORE_CARVER_H_
