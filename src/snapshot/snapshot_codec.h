// Wire formats of the snapshot repository (docs/snapshot_store.md).
//
// Two codecs live here, and ONLY here — this is the single snapshot file
// allowed raw byte reads by dbfa_lint (tools/dbfa_lint/allowlist.txt):
//
//   PageHash       128-bit endian-stable content hash. The page store keys
//                  pages by it alone; ingest detection hashes every
//                  candidate page once and looks the hash up.
//   entry payloads the page-store entry (hash + content-derived CarvedPage
//                  metadata + page bytes) and the artifact-cache entry
//                  (per-page carved records and index entries, serialized
//                  through the bit-exact sql/row_codec Value codec).
//
// The entries are stored as blocks of the repository file
// (common/file_io.h), whose framing detects torn and bit-flipped blocks. Every decode path is
// bounds-checked against hostile input: repository files are evidence and
// may be handed to us tampered.
#ifndef DBFA_SNAPSHOT_SNAPSHOT_CODEC_H_
#define DBFA_SNAPSHOT_SNAPSHOT_CODEC_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/artifacts.h"

namespace dbfa {

/// 128-bit content hash: the page store's address space. Endian-stable, so
/// a repository created on one host resolves on any other. Not
/// cryptographic — dedup keys, not signatures; 128 bits make an
/// accidental collision vanishingly unlikely, and the store keeps the full
/// page bytes so any suspected collision is checkable.
struct PageHash {
  std::array<uint8_t, 16> bytes{};

  bool operator==(const PageHash&) const = default;
  bool operator<(const PageHash& o) const { return bytes < o.bytes; }

  /// First 8 bytes as a little-endian integer (bucket key for hash maps).
  uint64_t Prefix64() const;

  std::string ToHex() const;  // 32 lower-case hex chars
  static Result<PageHash> FromHex(std::string_view hex);
};

struct PageHashHasher {
  size_t operator()(const PageHash& h) const {
    return static_cast<size_t>(h.Prefix64());
  }
};

/// Hashes arbitrary bytes (pages, schema fingerprints, manifest lines).
PageHash HashBytes(ByteView data);
inline PageHash HashString(std::string_view s) {
  return HashBytes(AsByteView(s));
}

// ---- Repository blocks ---------------------------------------------------

/// A repository is one block file (docs/snapshot_store.md). Its first
/// block is the header text; every later payload starts with one of these
/// bytes. The entry codecs below write and check their own.
enum class BlockKind : char {
  kPage = 'P',
  kArtifact = 'A',
  kManifest = 'M',
};

// ---- Page-store entry ----------------------------------------------------

/// One stored page: its content address plus the content-derived CarvedPage
/// metadata, so a warm ingest accepts a known page without re-probing it.
/// `meta.image_offset` is position-dependent and always stored as 0.
struct PageStoreEntry {
  PageHash hash;
  uint32_t crc = 0;  // CRC-32 of the page bytes (verified by Fsck)
  CarvedPage meta;
};

/// payload := 'P' hash(16) crc(u32) page_id(u32) object_id(u32) type(u8)
///            record_count(u16) next_page(u32) lsn(u64) checksum_ok(u8)
///            page bytes
void EncodePageEntry(const PageStoreEntry& entry, ByteView page,
                     std::string* out);

/// Decodes the fixed-size header; *page_bytes receives the offset of the
/// page image within `payload`. Rejects payloads whose page image is not
/// exactly `page_size` bytes.
Status DecodePageEntry(std::string_view payload, size_t page_size,
                       PageStoreEntry* entry, size_t* page_bytes);

// ---- Artifact-cache entry ------------------------------------------------

/// Everything the content pass produces for one page. `page_index` (the
/// only position-dependent artifact field) is canonicalized to 0 in the
/// cache and re-stamped when a snapshot is assembled.
struct PageArtifacts {
  std::vector<CarvedRecord> records;
  std::vector<CarvedIndexEntry> index_entries;
};

/// Cache key: page content plus the decode context — the serialized schema
/// (or lack of one) that drove typed decoding. Carve options are fixed per
/// repository (its header), so they are not part of the key.
struct ArtifactKey {
  PageHash page;
  PageHash context;

  bool operator==(const ArtifactKey&) const = default;
};

struct ArtifactKeyHasher {
  size_t operator()(const ArtifactKey& k) const {
    return static_cast<size_t>(k.page.Prefix64() ^
                               (k.context.Prefix64() * 0x9E3779B97F4A7C15ull));
  }
};

/// payload := 'A' page_hash(16) context_hash(16)
///            record_count(u32) records  entry_count(u32) entries
/// record  := object_id(u32) page_id(u32) slot(u16) status(u8) typed(u8)
///            row_id(u64) page_lsn(u64) values(row_codec record)
/// entry   := object_id(u32) page_id(u32) leaf(u8) ptr_page(u32)
///            ptr_slot(u16) keys(row_codec record)
/// Decoding interns every string cell into `pool`, like the carver.
void EncodeArtifactEntry(const ArtifactKey& key, const PageArtifacts& artifacts,
                         std::string* out);
Status DecodeArtifactEntry(std::string_view payload, StringPool* pool,
                           ArtifactKey* key, PageArtifacts* artifacts);

/// Decodes only the leading key of an artifact entry — what the cache's
/// open-time index scan needs, skipping the artifact decode itself.
Status DecodeArtifactKey(std::string_view payload, ArtifactKey* key);

}  // namespace dbfa

#endif  // DBFA_SNAPSHOT_SNAPSHOT_CODEC_H_
