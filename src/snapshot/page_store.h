// Content-addressed page store: every unique page seen across snapshots,
// stored once in an append-only checksummed block file (pages.bin).
//
// The in-memory index is small — one map node per unique page — because
// page bytes stay on disk and are re-read only during assembly (catalog
// pages, cache-miss fallback decodes). It is keyed by the 128-bit content
// hash alone; each entry's CRC-32 is a stored integrity value (Fsck and
// manifest loading verify it), not a lookup key.
//
// Concurrency contract: const Find may run on any number of threads while
// no Put runs (ingest's detection scan probes the store from the worker
// pool); open, Put and ReadPage belong to one orchestrating thread.
#ifndef DBFA_SNAPSHOT_PAGE_STORE_H_
#define DBFA_SNAPSHOT_PAGE_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/file_io.h"
#include "common/status.h"
#include "snapshot/snapshot_codec.h"

namespace dbfa {

class PageStore {
 public:
  /// One stored page: its content address, content-derived carve metadata,
  /// and where its bytes live in pages.bin.
  struct Stored {
    PageStoreEntry entry;
    uint64_t file_offset = 0;  // block start within pages.bin
  };

  /// Opens (or creates) the store file and rebuilds the index by scanning
  /// its blocks. A torn final block — crash mid-append — is reported as
  /// Corruption: the repository manifest is written after the store, so a
  /// consistent repo never has one.
  static Result<std::unique_ptr<PageStore>> Open(const std::string& path,
                                                 size_t page_size);

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

  /// Appends a page (no-op returning the existing entry when the hash is
  /// already stored). `entry.meta.image_offset` is ignored and stored as 0.
  Result<const Stored*> Put(const PageStoreEntry& entry, ByteView page);

  /// Re-reads and verifies one stored page's bytes from disk.
  Status ReadPage(const Stored& stored, Bytes* out) const;

 private:
  explicit PageStore(size_t page_size) : page_size_(page_size) {}

  /// Adds an entry stored at `offset` to the in-memory index.
  const Stored* Index(const PageStoreEntry& entry, uint64_t offset);

  size_t page_size_;
  BlockFile file_;

  // Node-based, so Stored addresses survive rehashing.
  std::unordered_map<PageHash, Stored, PageHashHasher> index_;
};

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_PAGE_STORE_H_
