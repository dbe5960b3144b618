// Content-addressed page store: every unique page seen across snapshots,
// stored once in an append-only checksummed block file (pages.bin).
//
// The in-memory index is small — ~48 bytes per unique page — because page
// bytes stay on disk and are re-read only during assembly (catalog pages,
// cache-miss fallback decodes). Lookup is two-tier: the CRC-32 bucket is
// the fast reject (a brand-new page almost never has a stored CRC twin),
// and only bucket hits pay the 128-bit strong-hash comparison.
//
// Single-orchestrator contract, like SpillManager: one thread opens,
// queries and appends. Ingest workers decode from the *image*, never from
// the store, so the store needs no locking.
#ifndef DBFA_SNAPSHOT_PAGE_STORE_H_
#define DBFA_SNAPSHOT_PAGE_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

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
  size_t size() const { return entries_.size(); }

  /// Fast reject: false means no stored page has this CRC-32, so the
  /// caller can skip the strong hash entirely.
  bool MaybeContains(uint32_t crc) const {
    return buckets_.find(crc) != buckets_.end();
  }

  /// Exact lookup; nullptr when the page is not stored. The returned
  /// pointer is stable until the store is destroyed.
  const Stored* Find(uint32_t crc, const PageHash& hash) const;

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

  // Owned entries in append order; buckets_ maps CRC-32 to the entries
  // sharing it (almost always exactly one).
  std::vector<std::unique_ptr<Stored>> entries_;
  std::unordered_map<uint32_t, std::vector<const Stored*>> buckets_;
};

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_PAGE_STORE_H_
