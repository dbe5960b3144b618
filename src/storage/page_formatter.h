// Generic slotted-page codec driven by PageLayoutParams.
//
// One implementation serves all eight dialects: the parameters choose page
// size, header field placement, slot-directory placement, record framing,
// string-size representation, endianness, checksum algorithm, and the
// delete-marking strategy. This mirrors the paper's claim that row-store
// page layouts differ only in parameter values.
//
// Record wire format (field order; offsets vary with row-id width and
// column count):
//   row_marker    u8   active_marker / deleted_marker
//   flags         u8   reserved
//   row_id        u32 or varint            (only if stores_row_id)
//   column_count  u8
//   numeric_count u8
//   null_bitmap   ceil(n/8) bytes          bit i: column i IS NULL
//   type_bitmap   ceil(n/8) bytes          bit i: column i is a string
//                                          (kColumnDirectory mode only)
//   data_marker   u8   data_marker_active / data_marker_deleted
//   record_len    u16  total encoded length from row_marker
//   payload:
//     kInlineSizes:      per column: len u16 (NULL -> 0), value bytes;
//                        numbers occupy 8 bytes (endian-sensitive)
//     kColumnDirectory:  numeric section (numeric_count * 8 bytes), then
//                        string directory (u16 offset from record start per
//                        string column), then concatenated string bytes
//
// Index entry wire format:
//   entry_marker  u8
//   flags         u8   reserved
//   entry_len     u16
//   pointer            row pointer (leaf) / child page id (internal),
//                      encoded per PointerFormat
//   key_count     u8
//   per key:      type u8, len u16, bytes
#ifndef DBFA_STORAGE_PAGE_FORMATTER_H_
#define DBFA_STORAGE_PAGE_FORMATTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/page_layout.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace dbfa {

class StringPool;

/// Physical location of a record: page id within an object file + slot.
/// This is the "RowID reflects the physical location of a record including
/// its PageID" pseudo-column of Section III-C.
struct RowPointer {
  uint32_t page_id = 0;
  uint16_t slot = 0;

  bool operator==(const RowPointer&) const = default;
  bool operator<(const RowPointer& o) const {
    return page_id != o.page_id ? page_id < o.page_id : slot < o.slot;
  }
};

/// Slot directory entry as read from a page.
struct SlotInfo {
  uint16_t offset = 0;   // record start within the page
  uint16_t length = 0;   // 0 when the dialect does not store slot lengths
  bool tombstoned = false;  // high bit set (kSlotTombstone deletions)
};

/// One raw column value recovered from a record.
struct RawField {
  /// View into the parsed page — not a copy. Valid only while the page
  /// bytes outlive the ParsedRecord and stay unmodified; every decoder
  /// consumes fields before the page goes away (the carve content pass
  /// decodes record-at-a-time), which keeps record parsing free of
  /// per-cell heap allocations.
  ByteView bytes;
  bool is_null = false;
  bool is_string_hint = false;  // from the type bitmap (directory mode)
};

/// A record parsed from page bytes, before type resolution.
struct ParsedRecord {
  uint16_t offset = 0;
  uint16_t length = 0;
  bool row_marker_deleted = false;
  bool data_marker_deleted = false;
  uint64_t row_id = 0;  // 0 when absent or wiped (kRowIdentifier deletions)
  uint8_t column_count = 0;
  uint8_t numeric_count = 0;
  std::vector<RawField> fields;  // declaration order
};

/// An index entry parsed from an index page.
struct ParsedIndexEntry {
  uint16_t offset = 0;
  uint16_t length = 0;
  RowPointer pointer;        // leaf: row pointer; internal: {child_page, 0}
  std::vector<Value> keys;
};

/// Stateless page codec for one dialect. Thread-compatible.
class PageFormatter {
 public:
  explicit PageFormatter(const PageLayoutParams& params) : p_(params) {}

  const PageLayoutParams& params() const { return p_; }
  uint32_t page_size() const { return p_.page_size; }

  // ---- page lifecycle -----------------------------------------------------

  /// Formats `page` (page_size bytes) as an empty page of `type`.
  void InitPage(uint8_t* page, uint32_t page_id, uint32_t object_id,
                PageType type) const;

  // ---- header accessors ---------------------------------------------------

  bool HasMagic(const uint8_t* page) const;
  uint32_t PageId(const uint8_t* page) const;
  uint32_t ObjectId(const uint8_t* page) const;
  PageType TypeOf(const uint8_t* page) const;
  uint16_t RecordCount(const uint8_t* page) const;
  uint16_t FreeBoundary(const uint8_t* page) const;
  uint32_t NextPage(const uint8_t* page) const;
  uint64_t Lsn(const uint8_t* page) const;

  void SetNextPage(uint8_t* page, uint32_t next) const;
  void SetLsn(uint8_t* page, uint64_t lsn) const;
  void SetType(uint8_t* page, PageType type) const;

  /// Recomputes and stores the page checksum (over the page with the
  /// checksum field zeroed). No-op for ChecksumKind::kNone.
  void UpdateChecksum(uint8_t* page) const;
  /// True when the stored checksum matches (always true for kNone).
  bool VerifyChecksum(const uint8_t* page) const;

  // ---- slot directory -----------------------------------------------------

  std::optional<SlotInfo> GetSlot(const uint8_t* page, uint16_t slot) const;
  /// Marks/unmarks the tombstone bit of a slot.
  void SetSlotTombstone(uint8_t* page, uint16_t slot, bool tombstoned) const;
  /// Bytes available for one more record (slot entry accounted for).
  size_t FreeSpace(const uint8_t* page) const;

  // ---- record encode/decode ----------------------------------------------

  /// Encodes `r` (already type-checked against `schema`).
  Result<Bytes> EncodeRecord(const TableSchema& schema, const Record& r,
                             uint64_t row_id) const;

  /// Places encoded record bytes into the page, appending a slot entry at
  /// `insert_pos` (default: end; index pages pass a sort position). Returns
  /// the slot index, or kOutOfRange when the page is full.
  Result<uint16_t> InsertRecordBytes(uint8_t* page, ByteView rec,
                                     int insert_pos = -1) const;

  /// Applies the dialect's delete-marking strategy to `slot`.
  Status MarkDeleted(uint8_t* page, uint16_t slot) const;

  /// Parses the record starting at `offset`. Fails on malformed bytes.
  Result<ParsedRecord> ParseRecordAt(ByteView page, uint16_t offset) const;

  /// Scratch-reuse variant for per-record hot loops (the carve content
  /// pass): overwrites `*out`, reusing its `fields` capacity, so steady
  /// state parses allocate nothing. `*out` is unspecified on error.
  Status ParseRecordAt(ByteView page, uint16_t offset,
                       ParsedRecord* out) const;

  /// True when the dialect's delete strategy says this record is deleted.
  /// `slot_tombstoned` must come from the record's slot entry.
  bool IsDeleted(const ParsedRecord& rec, bool slot_tombstoned) const;

  /// Resolves raw fields to typed values using a known schema. When `pool`
  /// is non-null, string cells are interned into it (Value::InternedStr —
  /// no per-cell heap allocation, repeated values stored once), and a
  /// result built from the Record must hold the pool (StringPoolSet). The
  /// carver always passes its result's pool; a null `pool` gives owned
  /// strings, which the engine's own table scans use: their rows are live
  /// data, not carved evidence.
  Result<Record> DecodeTyped(const ParsedRecord& rec, const TableSchema& schema,
                             StringPool* pool = nullptr) const;

  /// Best-effort type inference when no schema is available (printable runs
  /// become strings, 8-byte fields become integers). Same `pool` contract
  /// as DecodeTyped.
  Record DecodeUntyped(const ParsedRecord& rec,
                       StringPool* pool = nullptr) const;

  /// Scans the whole data region byte-by-byte for parseable records,
  /// ignoring the slot directory. Used for corrupted pages and for
  /// verifying wiping completeness.
  std::vector<ParsedRecord> ScanRecordsRaw(ByteView page) const;

  // ---- index entries ------------------------------------------------------

  Bytes EncodeLeafEntry(const std::vector<Value>& keys,
                        RowPointer pointer) const;
  Bytes EncodeInternalEntry(const std::vector<Value>& keys,
                            uint32_t child_page) const;
  /// Parses the index entry at `offset`. Same `pool` contract as
  /// DecodeTyped for string keys.
  Result<ParsedIndexEntry> ParseIndexEntryAt(ByteView page, uint16_t offset,
                                             StringPool* pool = nullptr) const;

  /// Encodes/decodes a row pointer in the dialect's PointerFormat.
  void AppendPointer(Bytes* out, RowPointer ptr) const;
  std::optional<RowPointer> DecodePointer(ByteView data, size_t off,
                                          size_t* consumed) const;

 private:
  struct RecordHeaderLayout {
    size_t row_id_pos = 0;     // 0 when absent
    size_t row_id_len = 0;
    size_t data_marker_pos = 0;
    size_t record_len_pos = 0;
    size_t payload_pos = 0;
    uint8_t column_count = 0;
    uint8_t numeric_count = 0;
    const uint8_t* null_bitmap = nullptr;
    const uint8_t* type_bitmap = nullptr;  // directory mode only
  };

  /// Walks the record header at `offset`; validates markers and bounds.
  Result<RecordHeaderLayout> ParseHeader(ByteView page, uint16_t offset,
                                         uint16_t* record_len) const;

  uint8_t* SlotAddress(uint8_t* page, uint16_t slot) const;
  const uint8_t* SlotAddress(const uint8_t* page, uint16_t slot) const;
  /// True when slot entry `slot` lies fully inside the page. A carved page's
  /// record count is attacker-controlled, so every slot access must pass
  /// this check before touching SlotAddress.
  bool SlotInBounds(uint16_t slot) const;
  void SetRecordCount(uint8_t* page, uint16_t n) const;
  void SetFreeBoundary(uint8_t* page, uint16_t b) const;

  PageLayoutParams p_;
};

}  // namespace dbfa

#endif  // DBFA_STORAGE_PAGE_FORMATTER_H_
