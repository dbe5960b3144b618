// Content-addressed page store: every unique page seen across snapshots,
// stored once as a page block of the repository's append-only checksummed
// block file.
//
// The in-memory index is small — one map node per unique page — because
// page bytes stay on disk and are re-read only during assembly (catalog
// pages, cache-miss fallback decodes). It is keyed by the 128-bit content
// hash alone; each entry's CRC-32 is a stored integrity value (Fsck and
// manifest loading verify it), not a lookup key.
//
// Concurrency contract: const Find may run on any number of threads while
// no Put runs (ingest's detection scan probes the store from the worker
// pool); Load, Put and ReadPage belong to one orchestrating thread.
#ifndef DBFA_SNAPSHOT_PAGE_STORE_H_
#define DBFA_SNAPSHOT_PAGE_STORE_H_

#include <string_view>
#include <unordered_map>

#include "common/bytes.h"
#include "common/file_io.h"
#include "common/status.h"
#include "snapshot/snapshot_codec.h"

namespace dbfa {

class PageStore {
 public:
  /// One stored page: its content address, content-derived carve metadata,
  /// and where its bytes live in the repository file.
  struct Stored {
    PageStoreEntry entry;
    uint64_t file_offset = 0;  // start of its block
  };

  /// An empty store over `file`, which must outlive it. Page blocks reach
  /// the index through Load (a scan of the file) or Put.
  PageStore(BlockFile* file, size_t page_size)
      : page_size_(page_size), file_(file) {}

  /// Indexes the page block at `offset`, given its payload.
  Status Load(uint64_t offset, std::string_view payload);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  size_t page_size() const { return page_size_; }
  size_t size() const { return index_.size(); }

  /// The stored page with content hash `hash`; nullptr when there is none.
  /// The returned pointer is stable until the store is destroyed.
  const Stored* Find(const PageHash& hash) const {
    auto it = index_.find(hash);
    return it == index_.end() ? nullptr : &it->second;
  }

  /// Appends a page block (no-op returning the existing entry when the hash is
  /// already stored). `entry.meta.image_offset` is ignored and stored as 0.
  Result<const Stored*> Put(const PageStoreEntry& entry, ByteView page);

  /// Re-reads and verifies one stored page's bytes from disk.
  Status ReadPage(const Stored& stored, Bytes* out) const;

 private:
  /// Adds an entry stored at `offset` to the in-memory index.
  const Stored* Index(const PageStoreEntry& entry, uint64_t offset);

  size_t page_size_;
  BlockFile* file_;

  // Node-based, so Stored addresses survive rehashing.
  std::unordered_map<PageHash, Stored, PageHashHasher> index_;
};

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_PAGE_STORE_H_
