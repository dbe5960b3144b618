#include "snapshot/snapshot_codec.h"

#include <bit>
#include <cstring>

#include "common/checksum.h"
#include "common/strings.h"
#include "sql/row_codec.h"

namespace dbfa {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// splitmix64 finalizer: full-avalanche 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Unaligned little-endian 64-bit load. The memcpy is the audited raw read
/// this file is allowlisted for (tools/dbfa_lint/allowlist.txt): the hash
/// inner loop runs over every ingested byte, and byte-at-a-time assembly
/// through ReadU64 halves ingest throughput. Callers guarantee 8 readable
/// bytes.
// dbfa-lint: allow(raw-byte-read): word-at-a-time hash loads over a
// length-checked span; LE-normalized so hashes are endian-stable.
inline uint64_t Load64LE(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = ((w & 0x00000000000000FFull) << 56) |
        ((w & 0x000000000000FF00ull) << 40) |
        ((w & 0x0000000000FF0000ull) << 24) |
        ((w & 0x00000000FF000000ull) << 8) |
        ((w & 0x000000FF00000000ull) >> 8) |
        ((w & 0x0000FF0000000000ull) >> 24) |
        ((w & 0x00FF000000000000ull) >> 40) |
        ((w & 0xFF00000000000000ull) >> 56);
  }
  return w;
}

constexpr uint64_t kMul1 = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kMul2 = 0xC2B2AE3D27D4EB4Full;

// ---- Fixed-width appends / bounds-checked reads over std::string ---------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU16(std::string* out, uint16_t v) {
  uint8_t buf[2];
  WriteU16(buf, v, /*big_endian=*/false);
  out->append(AsStringView(ByteView(buf, sizeof(buf))));
}
void AppendU32(std::string* out, uint32_t v) {
  uint8_t buf[4];
  WriteU32(buf, v, /*big_endian=*/false);
  out->append(AsStringView(ByteView(buf, sizeof(buf))));
}
void AppendU64(std::string* out, uint64_t v) {
  uint8_t buf[8];
  WriteU64(buf, v, /*big_endian=*/false);
  out->append(AsStringView(ByteView(buf, sizeof(buf))));
}

Status TakeU8(std::string_view buf, size_t* pos, uint8_t* v) {
  if (*pos + 1 > buf.size()) return Status::Corruption("entry: truncated u8");
  *v = static_cast<uint8_t>(buf[*pos]);
  *pos += 1;
  return Status::Ok();
}
Status TakeU16(std::string_view buf, size_t* pos, uint16_t* v) {
  auto r = TryReadU16(AsByteView(buf), *pos, /*big_endian=*/false);
  if (!r.has_value()) return Status::Corruption("entry: truncated u16");
  *v = *r;
  *pos += 2;
  return Status::Ok();
}
Status TakeU32(std::string_view buf, size_t* pos, uint32_t* v) {
  auto r = TryReadU32(AsByteView(buf), *pos, /*big_endian=*/false);
  if (!r.has_value()) return Status::Corruption("entry: truncated u32");
  *v = *r;
  *pos += 4;
  return Status::Ok();
}
Status TakeU64(std::string_view buf, size_t* pos, uint64_t* v) {
  auto r = TryReadU64(AsByteView(buf), *pos, /*big_endian=*/false);
  if (!r.has_value()) return Status::Corruption("entry: truncated u64");
  *v = *r;
  *pos += 8;
  return Status::Ok();
}

void AppendHash(std::string* out, const PageHash& h) {
  out->append(AsStringView(ByteView(h.bytes.data(), h.bytes.size())));
}
Status TakeHash(std::string_view buf, size_t* pos, PageHash* h) {
  if (*pos + h->bytes.size() > buf.size()) {
    return Status::Corruption("entry: truncated hash");
  }
  for (size_t i = 0; i < h->bytes.size(); ++i) {
    h->bytes[i] = static_cast<uint8_t>(buf[*pos + i]);
  }
  *pos += h->bytes.size();
  return Status::Ok();
}

bool KnownPageTypeByte(uint8_t t) {
  return t == static_cast<uint8_t>(PageType::kData) ||
         t == static_cast<uint8_t>(PageType::kIndexLeaf) ||
         t == static_cast<uint8_t>(PageType::kIndexInternal) ||
         t == static_cast<uint8_t>(PageType::kFree);
}

/// Consumes a payload's leading kind byte, which must be `kind`.
Status TakeKind(std::string_view buf, size_t* pos, BlockKind kind) {
  uint8_t byte = 0;
  DBFA_RETURN_IF_ERROR(TakeU8(buf, pos, &byte));
  if (byte != static_cast<uint8_t>(kind)) {
    return Status::Corruption(
        StrFormat("block kind 0x%02x where '%c' was expected", byte,
                  static_cast<char>(kind)));
  }
  return Status::Ok();
}

}  // namespace

uint64_t PageHash::Prefix64() const { return Load64LE(bytes.data()); }

std::string PageHash::ToHex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

Result<PageHash> PageHash::FromHex(std::string_view hex) {
  PageHash h;
  if (hex.size() != h.bytes.size() * 2) {
    return Status::Corruption(
        StrFormat("page hash: want %zu hex chars, got %zu",
                  h.bytes.size() * 2, hex.size()));
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < h.bytes.size(); ++i) {
    int hi = nibble(hex[2 * i]);
    int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("page hash: non-hex character");
    }
    h.bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return h;
}

PageHash HashBytes(ByteView data) {
  uint64_t h1 = kMul1 ^ (static_cast<uint64_t>(data.size()) * kMul2);
  uint64_t h2 = kMul2 ^ (static_cast<uint64_t>(data.size()) + kMul1);
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 16) {
    uint64_t a = Load64LE(p);
    uint64_t b = Load64LE(p + 8);
    h1 = Rotl(h1 ^ (a * kMul1), 27) * kMul2 + 0x52DCE729u;
    h2 = Rotl(h2 ^ (b * kMul2), 31) * kMul1 + 0x38495AB5u;
    // Cross-feed so the lanes never degenerate into independent hashes of
    // alternating words.
    h1 += h2;
    h2 += h1;
    p += 16;
    n -= 16;
  }
  if (n > 0) {
    uint8_t tail[16] = {0};
    for (size_t i = 0; i < n; ++i) tail[i] = p[i];
    uint64_t a = Load64LE(tail);
    uint64_t b = Load64LE(tail + 8);
    h1 = Rotl(h1 ^ (a * kMul1), 27) * kMul2 + static_cast<uint64_t>(n);
    h2 = Rotl(h2 ^ (b * kMul2), 31) * kMul1 + static_cast<uint64_t>(n);
  }
  uint64_t f1 = Mix64(h1 ^ Mix64(h2));
  uint64_t f2 = Mix64(h2 ^ f1);
  PageHash out;
  for (size_t i = 0; i < 8; ++i) {
    out.bytes[i] = static_cast<uint8_t>(f1 >> (8 * i));
    out.bytes[8 + i] = static_cast<uint8_t>(f2 >> (8 * i));
  }
  return out;
}

void EncodePageEntry(const PageStoreEntry& entry, ByteView page,
                     std::string* out) {
  out->reserve(out->size() + 45 + page.size());
  AppendU8(out, static_cast<uint8_t>(BlockKind::kPage));
  AppendHash(out, entry.hash);
  AppendU32(out, entry.crc);
  AppendU32(out, entry.meta.page_id);
  AppendU32(out, entry.meta.object_id);
  AppendU8(out, static_cast<uint8_t>(entry.meta.type));
  AppendU16(out, entry.meta.record_count);
  AppendU32(out, entry.meta.next_page);
  AppendU64(out, entry.meta.lsn);
  AppendU8(out, entry.meta.checksum_ok ? 1 : 0);
  out->append(AsStringView(page));
}

Status DecodePageEntry(std::string_view payload, size_t page_size,
                       PageStoreEntry* entry, size_t* page_bytes) {
  size_t pos = 0;
  DBFA_RETURN_IF_ERROR(TakeKind(payload, &pos, BlockKind::kPage));
  DBFA_RETURN_IF_ERROR(TakeHash(payload, &pos, &entry->hash));
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &entry->crc));
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &entry->meta.page_id));
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &entry->meta.object_id));
  uint8_t type = 0;
  DBFA_RETURN_IF_ERROR(TakeU8(payload, &pos, &type));
  if (!KnownPageTypeByte(type)) {
    return Status::Corruption(
        StrFormat("page entry: unknown page type 0x%02x", type));
  }
  entry->meta.type = static_cast<PageType>(type);
  DBFA_RETURN_IF_ERROR(TakeU16(payload, &pos, &entry->meta.record_count));
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &entry->meta.next_page));
  DBFA_RETURN_IF_ERROR(TakeU64(payload, &pos, &entry->meta.lsn));
  uint8_t checksum_ok = 0;
  DBFA_RETURN_IF_ERROR(TakeU8(payload, &pos, &checksum_ok));
  entry->meta.checksum_ok = checksum_ok != 0;
  entry->meta.image_offset = 0;
  if (payload.size() - pos != page_size) {
    return Status::Corruption(
        StrFormat("page entry: %zu page bytes, repository page size is %zu",
                  payload.size() - pos, page_size));
  }
  *page_bytes = pos;
  return Status::Ok();
}

void EncodeArtifactEntry(const ArtifactKey& key, const PageArtifacts& artifacts,
                         std::string* out) {
  AppendU8(out, static_cast<uint8_t>(BlockKind::kArtifact));
  AppendHash(out, key.page);
  AppendHash(out, key.context);
  AppendU32(out, static_cast<uint32_t>(artifacts.records.size()));
  for (const CarvedRecord& r : artifacts.records) {
    AppendU32(out, r.object_id);
    AppendU32(out, r.page_id);
    AppendU16(out, r.slot);
    AppendU8(out, r.status == RowStatus::kDeleted ? 1 : 0);
    AppendU8(out, r.typed ? 1 : 0);
    AppendU64(out, r.row_id);
    AppendU64(out, r.page_lsn);
    sql::AppendRecord(r.values, out);
  }
  AppendU32(out, static_cast<uint32_t>(artifacts.index_entries.size()));
  for (const CarvedIndexEntry& e : artifacts.index_entries) {
    AppendU32(out, e.object_id);
    AppendU32(out, e.page_id);
    AppendU8(out, e.leaf ? 1 : 0);
    AppendU32(out, e.pointer.page_id);
    AppendU16(out, e.pointer.slot);
    sql::AppendRecord(e.keys, out);
  }
}

Status DecodeArtifactKey(std::string_view payload, ArtifactKey* key) {
  size_t pos = 0;
  DBFA_RETURN_IF_ERROR(TakeKind(payload, &pos, BlockKind::kArtifact));
  DBFA_RETURN_IF_ERROR(TakeHash(payload, &pos, &key->page));
  DBFA_RETURN_IF_ERROR(TakeHash(payload, &pos, &key->context));
  return Status::Ok();
}

Status DecodeArtifactEntry(std::string_view payload, StringPool* pool,
                           ArtifactKey* key, PageArtifacts* artifacts) {
  size_t pos = 0;
  DBFA_RETURN_IF_ERROR(TakeKind(payload, &pos, BlockKind::kArtifact));
  DBFA_RETURN_IF_ERROR(TakeHash(payload, &pos, &key->page));
  DBFA_RETURN_IF_ERROR(TakeHash(payload, &pos, &key->context));
  uint32_t record_count = 0;
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &record_count));
  // 28 bytes of fixed fields plus a 4-byte empty record is the per-record
  // floor; cap the reserve so a corrupt count cannot balloon memory.
  if (record_count > payload.size() / 32 + 16) {
    return Status::Corruption(
        StrFormat("artifact entry: implausible record count %u",
                  record_count));
  }
  artifacts->records.clear();
  artifacts->records.reserve(record_count);
  for (uint32_t i = 0; i < record_count; ++i) {
    CarvedRecord r;
    r.page_index = 0;  // canonical; re-stamped at assembly
    DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &r.object_id));
    DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &r.page_id));
    DBFA_RETURN_IF_ERROR(TakeU16(payload, &pos, &r.slot));
    uint8_t status = 0;
    uint8_t typed = 0;
    DBFA_RETURN_IF_ERROR(TakeU8(payload, &pos, &status));
    DBFA_RETURN_IF_ERROR(TakeU8(payload, &pos, &typed));
    if (status > 1) {
      return Status::Corruption("artifact entry: bad row status");
    }
    r.status = status != 0 ? RowStatus::kDeleted : RowStatus::kActive;
    r.typed = typed != 0;
    DBFA_RETURN_IF_ERROR(TakeU64(payload, &pos, &r.row_id));
    DBFA_RETURN_IF_ERROR(TakeU64(payload, &pos, &r.page_lsn));
    DBFA_RETURN_IF_ERROR(sql::DecodeRecord(payload, &pos, &r.values, pool));
    artifacts->records.push_back(std::move(r));
  }
  uint32_t entry_count = 0;
  DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &entry_count));
  if (entry_count > payload.size() / 16 + 16) {
    return Status::Corruption(
        StrFormat("artifact entry: implausible index entry count %u",
                  entry_count));
  }
  artifacts->index_entries.clear();
  artifacts->index_entries.reserve(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    CarvedIndexEntry e;
    e.page_index = 0;  // canonical; re-stamped at assembly
    DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &e.object_id));
    DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &e.page_id));
    uint8_t leaf = 0;
    DBFA_RETURN_IF_ERROR(TakeU8(payload, &pos, &leaf));
    e.leaf = leaf != 0;
    DBFA_RETURN_IF_ERROR(TakeU32(payload, &pos, &e.pointer.page_id));
    DBFA_RETURN_IF_ERROR(TakeU16(payload, &pos, &e.pointer.slot));
    DBFA_RETURN_IF_ERROR(sql::DecodeRecord(payload, &pos, &e.keys, pool));
    artifacts->index_entries.push_back(std::move(e));
  }
  if (pos != payload.size()) {
    return Status::Corruption("artifact entry: trailing bytes");
  }
  return Status::Ok();
}

}  // namespace dbfa
