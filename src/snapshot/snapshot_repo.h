// SnapshotRepo: a persistent repository of successive storage captures of
// one DBMS, with content-addressed incremental carving.
//
// DBDetective's workflow (PAPER.md III-A, Figure 4) is repeated: storage
// is snapshotted periodically and each snapshot is matched against the
// audit log. A one-shot carver makes the Nth snapshot cost the same as the
// first even when almost nothing changed. The repository dedupes unchanged
// pages against a content-addressed page store and re-carves only the
// delta, while guaranteeing that the assembled artifacts are byte-identical
// to a fresh serial Carver::Carve of the full image (the differential fuzz
// test in tests/snapshot_fuzz_test.cc enforces this for any thread count).
//
// On-disk layout (docs/snapshot_store.md), versioned and self-describing
// like EvidencePackage: one append-only block file, <dir>/repo.bin,
// created by Create(), so a capture creates no file. Its first block is
// the header (format version, fixed carve options and the dialect
// config); every later block is a page-store entry, an artifact-cache
// entry or a snapshot manifest, tagged by kind (BlockKind). A complete
// manifest block commits its snapshot. The file is also the repository
// lock.
//
// Carve options are fixed at repository creation: every cached artifact
// was produced under them, so changing them would invalidate the cache.
// Open() restores them from the header.
#ifndef DBFA_SNAPSHOT_SNAPSHOT_REPO_H_
#define DBFA_SNAPSHOT_SNAPSHOT_REPO_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/carver.h"
#include "detective/dbdetective.h"
#include "metaquery/session.h"
#include "snapshot/artifact_cache.h"
#include "snapshot/page_store.h"
#include "snapshot/snapshot_codec.h"

namespace dbfa {

/// One ingested snapshot, as listed by List().
struct SnapshotInfo {
  uint64_t id = 0;
  size_t image_size = 0;
  size_t page_count = 0;

  std::string ToString() const;
};

/// What one Ingest() did and what it cost.
struct IngestStats {
  uint64_t snapshot_id = 0;
  size_t image_bytes = 0;
  size_t pages_total = 0;
  size_t pages_reused = 0;      // dedup hits in the page store
  size_t pages_new = 0;         // pages stored by this ingest
  size_t artifacts_reused = 0;  // content pass served from the cache
  size_t artifacts_carved = 0;  // pages decoded fresh
  double detect_seconds = 0.0;
  double catalog_seconds = 0.0;
  double content_seconds = 0.0;

  double TotalSeconds() const {
    return detect_seconds + catalog_seconds + content_seconds;
  }
  double ThroughputMBps() const;
  std::string ToString() const;
};

/// Page-level delta between two snapshots. Pages are identified by
/// (object_id, page_id); a page whose identity persists but whose content
/// hash differs is "changed", identities only in the target are "added",
/// identities only in the base are "vanished".
struct SnapshotDiff {
  struct PageRef {
    uint32_t object_id = 0;
    uint32_t page_id = 0;
    PageHash hash;
  };
  struct PageChange {
    uint32_t object_id = 0;
    uint32_t page_id = 0;
    PageHash base_hash;
    PageHash target_hash;
  };

  uint64_t base_id = 0;
  uint64_t target_id = 0;
  std::vector<PageRef> added;
  std::vector<PageChange> changed;
  std::vector<PageRef> vanished;

  bool Empty() const {
    return added.empty() && changed.empty() && vanished.empty();
  }
  std::string ToString() const;
};

/// Where one record's exact values were seen across the snapshot sequence.
struct RecordHistory {
  std::string table;
  Record values;  // interned in the repository's pool
  StringPoolSet string_pools;  // the repository's pool
  uint64_t first_seen = 0;  // snapshot id; 0 = never seen
  uint64_t last_seen = 0;
  std::vector<uint64_t> seen_in;  // ascending snapshot ids

  std::string ToString() const;
};

/// Result of incremental detection: only records living on pages that
/// changed (or appeared) since the base snapshot are re-matched against
/// the audit log — records on unchanged pages were vetted when the base
/// snapshot was analyzed, and unchanged bytes cannot change the verdict.
struct IncrementalDetection {
  /// Holds the pool of `carve`, the assembly the findings' values come
  /// from.
  explicit IncrementalDetection(const CarveResult& carve)
      : string_pools(carve.string_pool) {}

  uint64_t base_id = 0;
  uint64_t target_id = 0;
  size_t pages_rematched = 0;
  size_t records_rematched = 0;
  size_t deleted_checked = 0;
  size_t active_checked = 0;
  std::vector<UnattributedModification> modifications;
  StringPoolSet string_pools;  // the repository's pool

  std::string ToString() const;
};

/// One verified defect found by Fsck().
struct FsckIssue {
  std::string file;  // repository-relative file the defect lives in
  std::string detail;

  std::string ToString() const;
};

/// Repository integrity report (`dbfa_snapshot fsck`).
struct FsckReport {
  std::vector<FsckIssue> issues;
  size_t pages_checked = 0;      // page-store entries decoded and verified
  size_t artifacts_checked = 0;  // artifact-cache entries decoded
  size_t manifests_checked = 0;  // snapshot manifests parsed

  bool Clean() const { return issues.empty(); }
  std::string ToString() const;
};

class SnapshotRepo {
 public:
  /// Creates a new repository at `dir`, and the directory if missing; a
  /// directory that already holds a repository is AlreadyExists.
  /// `options.scan_step`, `parse_bad_checksum_pages` and
  /// `raw_scan_fallback` become permanent properties of the repository;
  /// `num_threads` only sizes the ingest worker pool and is not persisted.
  static Result<std::unique_ptr<SnapshotRepo>> Create(
      const std::string& dir, const CarverConfig& config,
      CarveOptions options = {});

  /// Opens an existing repository, restoring config + options from disk.
  /// A final block cut short by a crash (an ingest that never committed)
  /// is truncated away; any other damage is Corruption, and a repository
  /// of another format version is FailedPrecondition.
  ///
  /// A repository is one block file, `repo.bin` (docs/snapshot_store.md).
  /// Both factories lock it (BlockFile::OpenLocked, an flock) and hold it
  /// for the repository's lifetime, so a long-running daemon ingest and a
  /// concurrent one-shot CLI can never interleave appends: the loser gets
  /// Status::Unavailable, never a corrupt repository. The kernel releases
  /// the lock when its owner dies.
  static Result<std::unique_ptr<SnapshotRepo>> Open(const std::string& dir,
                                                    size_t num_threads = 0);

  const std::string& dir() const { return dir_; }
  const CarverConfig& config() const { return config_; }
  const CarveOptions& options() const { return options_; }
  const PageStore& page_store() const { return page_store_; }
  const ArtifactCache& artifact_cache() const { return artifact_cache_; }

  /// Ingests one capture as the next snapshot (ids are 1, 2, ...).
  /// Detection is the carver's page scan (core/page_scanner.h) on the
  /// worker pool with a store-first probe: at each offset the page magic is
  /// memcmp'd, then the 128-bit content hash is looked up in the page
  /// store, and only a store miss is probed as a page — so a warm re-ingest
  /// accepts unchanged pages for one hash each, without re-verifying their
  /// checksums, and reuses their cached artifacts without decoding.
  /// New/changed pages are decoded page-parallel on the same pool; outputs
  /// are merged in page order, so the result is identical for every thread
  /// count.
  Result<IngestStats> Ingest(ByteView image);

  /// Snapshots in ascending id order.
  std::vector<SnapshotInfo> List() const;

  /// Reconstructs the full CarveResult of snapshot `id` from the page
  /// store + artifact cache — byte-identical to the serial carve of the
  /// original image (stats fields excepted; they time the assembly).
  Result<CarveResult> AssembleCarve(uint64_t id);

  /// Page-level delta between two snapshots.
  Result<SnapshotDiff> Diff(uint64_t base_id, uint64_t target_id) const;

  /// First/last snapshot containing an exact-valued record of `table`
  /// (active or deleted; matches both typed and raw-scan recoveries). The
  /// history's copy of `values` is interned in the repository's pool.
  Result<RecordHistory> History(const std::string& table,
                                const Record& values);

  /// Matches only records from pages changed/added since `base_id` against
  /// the audit log (Figure 4's check, restricted to the delta). `base_id` 0
  /// stands for the empty repository: every record of the target is
  /// matched, exactly as DbDetective::FindUnattributedModifications would.
  ///
  /// The delta is the target pages whose content hash is not among the
  /// base's pages, and only their records are materialized: one call costs
  /// the base's hash set, the target's page list, the catalog pages (read
  /// from the page store; schemas and decode contexts need them), the
  /// changed pages' artifacts (a cache miss decodes the page from the page
  /// store), binding the log per table, and the sweep over the delta.
  /// Unchanged pages cost one hash lookup each, however many records they
  /// hold.
  ///
  /// The repository keeps one AuditLogIndex across calls: when `log`
  /// extends the log of the previous call (its entries start with the same
  /// shared handles) only the new entries are indexed, each parsed at most
  /// once; any other log rebuilds the index.
  Result<IncrementalDetection> DetectIncremental(uint64_t base_id,
                                                 uint64_t target_id,
                                                 const AuditLog& log);

  /// Offline integrity check of a repository at `dir`, one walk over its
  /// committed blocks: the framing CRC of each, then the header's strict
  /// parse, each page entry's stored CRC-32 and content hash against its
  /// page bytes, each artifact entry's decode, and each manifest's parse
  /// and id, checking that every page it references is stored before it.
  /// Takes the repository lock for the duration; defects are
  /// reported per corruption in the returned report, not as an error (the
  /// Status is for environmental failures: lock contention, unreadable
  /// directory).
  static Result<FsckReport> Fsck(const std::string& dir);

  /// Registers every schema-bearing table of the given snapshots (default:
  /// all) as "Snap<id><Table>" for cross-snapshot meta-queries, e.g.
  ///   SELECT * FROM Snap1Customer AS A JOIN Snap2Customer AS B
  ///     ON A.Id = B.Id WHERE A.City <> B.City
  Status RegisterSnapshots(MetaQuerySession* session,
                           const std::vector<uint64_t>& ids = {},
                           std::vector<std::string>* skipped = nullptr);

 private:
  struct Snapshot {
    uint64_t id = 0;
    size_t image_size = 0;
    std::vector<size_t> offsets;  // image offset per page, ascending
    std::vector<const PageStore::Stored*> pages;  // parallel to offsets
  };

  SnapshotRepo(std::string dir, CarverConfig config, CarveOptions options,
               BlockFile file);

  const Snapshot* FindSnapshot(uint64_t id) const;

  /// Builds `snap`'s CarveResult with the page list, catalog and schemas of
  /// the whole snapshot, but records and index entries only of the pages
  /// listed in `content_pages` (ascending page indices). AssembleCarve
  /// passes every page; DetectIncremental passes the delta.
  Result<CarveResult> Assemble(const Snapshot& snap,
                               const std::vector<size_t>& content_pages);

  /// Indexes one committed block of the repository file by its kind.
  Status LoadBlock(uint64_t offset, const std::string& payload);
  /// Adds the snapshot of one committed manifest.
  Status LoadManifest(std::string_view text);
  /// Appends `snap`'s manifest block: the snapshot's commit point.
  Status WriteManifest(const Snapshot& snap);

  /// Context hashes shared by every page of one carve: per-object schema
  /// contexts plus the untyped/index constants. Hashing a serialized schema
  /// once per page would dominate a warm content pass, so both Ingest and
  /// AssembleCarve build this once per carve result.
  struct ContextSet {
    std::unordered_map<uint32_t, PageHash> schema;  // object_id -> context
    PageHash untyped;
    PageHash index;
  };
  ContextSet BuildContexts(const CarveResult& base) const;

  /// Artifact-cache context for page i of `base` (schemas already carved).
  /// Returns false for pages the content pass never decodes (free pages,
  /// catalog data pages, bad-checksum pages when parsing them is off).
  bool ContextFor(const CarveResult& base, const ContextSet& contexts,
                  size_t i, PageHash* context) const;

  /// Worker pool for detection and the content pass; nullptr when running
  /// inline.
  ThreadPool* Pool();

  std::string dir_;
  CarverConfig config_;
  CarveOptions options_;
  Carver carver_;
  BlockFile file_;  // repo.bin, locked for the repository's lifetime
  /// Every string the repository decodes is interned here: Ingest's
  /// content pass, Assemble's cache misses and the artifact cache's lazy
  /// decodes. Shared by every result the repository returns, so those
  /// outlive it; grows with the distinct strings seen, never shrinks.
  std::shared_ptr<StringPool> string_pool_;
  PageStore page_store_;
  ArtifactCache artifact_cache_;
  std::vector<Snapshot> snapshots_;  // ascending id
  std::unique_ptr<ThreadPool> pool_;
  AuditLogIndex log_index_;  // DetectIncremental's, extended across calls
};

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_SNAPSHOT_REPO_H_
