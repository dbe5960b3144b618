// Per-page carve artifact cache: the records and index entries the content
// pass produced for one (page content, decode context) pair, stored as an
// artifact block of the repository's append-only checksummed block file.
//
// Cache correctness rests on the carver's per-page determinism: for a fixed
// repository (fixed carve options, stored in its header) the content pass
// over one page depends only on the page bytes and the schema that drove
// typed decoding — so the key is (page hash, context hash), where the
// context is the serialized schema or a constant for untyped/index/catalog
// decodes. A schema change (ALTER TABLE seen in a later snapshot) changes
// the context hash, which *is* the invalidation rule: stale entries are
// never returned, merely left unreferenced.
//
// Entries are decoded lazily and memoized, so reopening a large repository
// costs one index pass over the file, not a full artifact decode. Decoded
// string cells are interned into the repository's pool, so memoized
// artifacts hold refs and assembly copies them without allocating.
// Single-orchestrator contract, like PageStore.
#ifndef DBFA_SNAPSHOT_ARTIFACT_CACHE_H_
#define DBFA_SNAPSHOT_ARTIFACT_CACHE_H_

#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/file_io.h"
#include "common/status.h"
#include "snapshot/snapshot_codec.h"

namespace dbfa {

class ArtifactCache {
 public:
  /// An empty cache over `file`; decodes intern into `pool`. Both must
  /// outlive it. Artifact blocks reach the index through Load (a scan of
  /// the file) or Put.
  ArtifactCache(BlockFile* file, StringPool* pool)
      : file_(file), pool_(pool) {}

  /// Indexes the artifact block at `offset`, given its payload; only the
  /// key is decoded.
  Status Load(uint64_t offset, std::string_view payload);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  size_t size() const { return index_.size(); }

  bool Contains(const ArtifactKey& key) const {
    return index_.find(key) != index_.end();
  }

  /// Entries read from the file and decoded since the repository was
  /// opened — lazy first
  /// accesses only; memoized hits and Put() do not count.
  size_t decodes() const { return decodes_; }

  /// Returns the cached artifacts for `key`, or nullptr when absent.
  /// First access per key reads and verifies the block from disk; repeat
  /// accesses return the memoized decode.
  Result<std::shared_ptr<const PageArtifacts>> Get(const ArtifactKey& key);

  /// Inserts artifacts for `key` (no-op when already present) and returns
  /// the memoized entry. The given artifacts are memoized as-is, so
  /// callers must pass them already in canonical form (page_index == 0 on
  /// every record and index entry), with strings interned in the cache's
  /// pool.
  Result<std::shared_ptr<const PageArtifacts>> Put(const ArtifactKey& key,
                                                   PageArtifacts artifacts);

 private:
  struct Slot {
    uint64_t file_offset = 0;
    std::shared_ptr<const PageArtifacts> decoded;  // lazy
  };

  BlockFile* file_;
  StringPool* pool_;
  std::unordered_map<ArtifactKey, Slot, ArtifactKeyHasher> index_;
  size_t decodes_ = 0;
};

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_ARTIFACT_CACHE_H_
