#include "storage/page_formatter.h"

#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace dbfa {
namespace {

constexpr uint16_t kSlotTombstoneBit = 0x8000;

/// Encodes a numeric Value into 8 bytes (two's-complement int64 or IEEE-754
/// double bits), endian-sensitive like the dialect's other fields.
void EncodeNumeric(uint8_t* out, const Value& v, bool big_endian) {
  uint64_t bits = 0;
  if (v.type() == ValueType::kDouble) {
    bits = std::bit_cast<uint64_t>(v.as_double());
  } else if (v.type() == ValueType::kInt) {
    bits = static_cast<uint64_t>(v.as_int());
  }
  WriteU64(out, bits, big_endian);
}

bool MostlyPrintable(ByteView b) {
  if (b.empty()) return false;
  size_t printable = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    if (std::isprint(b[i])) ++printable;
  }
  return printable * 10 >= b.size() * 9;  // >= 90%
}

bool BitmapGet(const uint8_t* bitmap, size_t i) {
  return (bitmap[i / 8] >> (i % 8)) & 1;
}

void BitmapSet(uint8_t* bitmap, size_t i) { bitmap[i / 8] |= 1 << (i % 8); }

}  // namespace

// ---- page lifecycle --------------------------------------------------------

void PageFormatter::InitPage(uint8_t* page, uint32_t page_id,
                             uint32_t object_id, PageType type) const {
  std::memset(page, 0, p_.page_size);
  CopyBytes(page + p_.magic_offset, p_.magic.data(), p_.magic.size());
  WriteU32(page + p_.page_id_offset, page_id, p_.big_endian);
  WriteU32(page + p_.object_id_offset, object_id, p_.big_endian);
  page[p_.page_type_offset] = static_cast<uint8_t>(type);
  SetRecordCount(page, 0);
  uint16_t boundary =
      p_.slot_placement == SlotPlacement::kFrontSlotsBackData
          ? static_cast<uint16_t>(p_.page_size)
          : p_.header_size;
  SetFreeBoundary(page, boundary);
  WriteU32(page + p_.next_page_offset, 0, p_.big_endian);
  WriteU64(page + p_.lsn_offset, 0, p_.big_endian);
  UpdateChecksum(page);
}

// ---- header accessors ------------------------------------------------------

bool PageFormatter::HasMagic(const uint8_t* page) const {
  return std::memcmp(page + p_.magic_offset, p_.magic.data(),
                     p_.magic.size()) == 0;
}

uint32_t PageFormatter::PageId(const uint8_t* page) const {
  return ReadU32(page + p_.page_id_offset, p_.big_endian);
}

uint32_t PageFormatter::ObjectId(const uint8_t* page) const {
  return ReadU32(page + p_.object_id_offset, p_.big_endian);
}

PageType PageFormatter::TypeOf(const uint8_t* page) const {
  return static_cast<PageType>(page[p_.page_type_offset]);
}

uint16_t PageFormatter::RecordCount(const uint8_t* page) const {
  return ReadU16(page + p_.record_count_offset, p_.big_endian);
}

uint16_t PageFormatter::FreeBoundary(const uint8_t* page) const {
  return ReadU16(page + p_.free_space_offset, p_.big_endian);
}

uint32_t PageFormatter::NextPage(const uint8_t* page) const {
  return ReadU32(page + p_.next_page_offset, p_.big_endian);
}

uint64_t PageFormatter::Lsn(const uint8_t* page) const {
  return ReadU64(page + p_.lsn_offset, p_.big_endian);
}

void PageFormatter::SetNextPage(uint8_t* page, uint32_t next) const {
  WriteU32(page + p_.next_page_offset, next, p_.big_endian);
}

void PageFormatter::SetLsn(uint8_t* page, uint64_t lsn) const {
  WriteU64(page + p_.lsn_offset, lsn, p_.big_endian);
}

void PageFormatter::SetType(uint8_t* page, PageType type) const {
  page[p_.page_type_offset] = static_cast<uint8_t>(type);
}

void PageFormatter::SetRecordCount(uint8_t* page, uint16_t n) const {
  WriteU16(page + p_.record_count_offset, n, p_.big_endian);
}

void PageFormatter::SetFreeBoundary(uint8_t* page, uint16_t b) const {
  WriteU16(page + p_.free_space_offset, b, p_.big_endian);
}

void PageFormatter::UpdateChecksum(uint8_t* page) const {
  size_t width = ChecksumWidth(p_.checksum_kind);
  if (width == 0) return;
  ChecksumStream stream(p_.checksum_kind);
  stream.Update(ByteView(page, p_.checksum_offset));
  stream.Update(ByteView(page + p_.checksum_offset + width,
                         p_.page_size - p_.checksum_offset - width));
  uint32_t sum = stream.Final();
  // Store in field width, dialect-endian.
  for (size_t i = 0; i < width; ++i) {
    size_t shift = p_.big_endian ? (width - 1 - i) * 8 : i * 8;
    page[p_.checksum_offset + i] = static_cast<uint8_t>(sum >> shift);
  }
}

bool PageFormatter::VerifyChecksum(const uint8_t* page) const {
  size_t width = ChecksumWidth(p_.checksum_kind);
  if (width == 0) return true;
  ChecksumStream stream(p_.checksum_kind);
  stream.Update(ByteView(page, p_.checksum_offset));
  stream.Update(ByteView(page + p_.checksum_offset + width,
                         p_.page_size - p_.checksum_offset - width));
  uint32_t expected = stream.Final();
  uint32_t stored = 0;
  for (size_t i = 0; i < width; ++i) {
    size_t shift = p_.big_endian ? (width - 1 - i) * 8 : i * 8;
    stored |= static_cast<uint32_t>(page[p_.checksum_offset + i]) << shift;
  }
  return stored == expected;
}

// ---- slot directory --------------------------------------------------------

uint8_t* PageFormatter::SlotAddress(uint8_t* page, uint16_t slot) const {
  if (p_.slot_placement == SlotPlacement::kFrontSlotsBackData) {
    return page + p_.header_size +
           static_cast<size_t>(slot) * p_.SlotEntrySize();
  }
  return page + p_.page_size -
         static_cast<size_t>(slot + 1) * p_.SlotEntrySize();
}

const uint8_t* PageFormatter::SlotAddress(const uint8_t* page,
                                          uint16_t slot) const {
  return SlotAddress(const_cast<uint8_t*>(page), slot);
}

bool PageFormatter::SlotInBounds(uint16_t slot) const {
  // Both placements keep slot `s` within [header_size, page_size) iff the
  // first s+1 entries fit between the header and the page end.
  return p_.header_size +
             (static_cast<size_t>(slot) + 1) * p_.SlotEntrySize() <=
         p_.page_size;
}

std::optional<SlotInfo> PageFormatter::GetSlot(const uint8_t* page,
                                               uint16_t slot) const {
  if (slot >= RecordCount(page)) return std::nullopt;
  if (!SlotInBounds(slot)) return std::nullopt;
  const uint8_t* entry = SlotAddress(page, slot);
  uint16_t raw = ReadU16(entry, p_.big_endian);
  SlotInfo info;
  info.tombstoned = (raw & kSlotTombstoneBit) != 0;
  info.offset = raw & ~kSlotTombstoneBit;
  info.length = p_.slot_has_length ? ReadU16(entry + 2, p_.big_endian) : 0;
  return info;
}

void PageFormatter::SetSlotTombstone(uint8_t* page, uint16_t slot,
                                     bool tombstoned) const {
  if (!SlotInBounds(slot)) return;
  uint8_t* entry = SlotAddress(page, slot);
  uint16_t raw = ReadU16(entry, p_.big_endian);
  if (tombstoned) {
    raw |= kSlotTombstoneBit;
  } else {
    raw &= ~kSlotTombstoneBit;
  }
  WriteU16(entry, raw, p_.big_endian);
}

size_t PageFormatter::FreeSpace(const uint8_t* page) const {
  uint16_t count = RecordCount(page);
  uint16_t boundary = FreeBoundary(page);
  size_t entry = p_.SlotEntrySize();
  // On a carved (hostile) page both fields are attacker-controlled: a
  // boundary past the page end or a slot directory larger than the page
  // would otherwise place the next record or slot entry out of bounds.
  // Reporting the page as full keeps every insertion in range.
  if (boundary > p_.page_size) return 0;
  if (p_.header_size + (count + 1ull) * entry > p_.page_size) return 0;
  if (p_.slot_placement == SlotPlacement::kFrontSlotsBackData) {
    size_t slots_end = p_.header_size + (count + 1ull) * entry;
    return boundary > slots_end ? boundary - slots_end : 0;
  }
  size_t slots_start = p_.page_size - (count + 1ull) * entry;
  return slots_start > boundary ? slots_start - boundary : 0;
}

Result<uint16_t> PageFormatter::InsertRecordBytes(uint8_t* page, ByteView rec,
                                                  int insert_pos) const {
  if (rec.size() > 0xFFFF) {
    return Status::InvalidArgument("record too large");
  }
  uint16_t count = RecordCount(page);
  if (FreeSpace(page) < rec.size()) {
    return Status::OutOfRange("page full");
  }
  uint16_t boundary = FreeBoundary(page);
  uint16_t rec_offset;
  if (p_.slot_placement == SlotPlacement::kFrontSlotsBackData) {
    rec_offset = static_cast<uint16_t>(boundary - rec.size());
    SetFreeBoundary(page, rec_offset);
  } else {
    rec_offset = boundary;
    SetFreeBoundary(page, static_cast<uint16_t>(boundary + rec.size()));
  }
  CopyBytes(page + rec_offset, rec.data(), rec.size());

  uint16_t pos = insert_pos < 0 ? count : static_cast<uint16_t>(insert_pos);
  if (pos > count) pos = count;
  // Shift slot entries [pos, count) one place toward the end.
  size_t entry = p_.SlotEntrySize();
  for (uint16_t i = count; i > pos; --i) {
    CopyBytes(SlotAddress(page, i), SlotAddress(page, i - 1), entry);
  }
  uint8_t* slot_entry = SlotAddress(page, pos);
  WriteU16(slot_entry, rec_offset, p_.big_endian);
  if (p_.slot_has_length) {
    WriteU16(slot_entry + 2, static_cast<uint16_t>(rec.size()), p_.big_endian);
  }
  SetRecordCount(page, static_cast<uint16_t>(count + 1));
  return pos;
}

// ---- record encode/decode ---------------------------------------------------

Result<Bytes> PageFormatter::EncodeRecord(const TableSchema& schema,
                                          const Record& r,
                                          uint64_t row_id) const {
  if (r.size() != schema.columns.size()) {
    return Status::InvalidArgument(
        StrFormat("record arity %zu != schema arity %zu", r.size(),
                  schema.columns.size()));
  }
  if (r.size() > 255) {
    return Status::InvalidArgument("at most 255 columns supported");
  }
  const uint8_t column_count = static_cast<uint8_t>(r.size());
  const uint8_t numeric_count =
      static_cast<uint8_t>(schema.NumericColumnCount());
  const size_t bitmap_len = (column_count + 7) / 8;

  Bytes out;
  out.reserve(64);
  out.push_back(p_.active_marker);
  out.push_back(0);  // flags
  if (p_.stores_row_id) {
    if (p_.row_id_varint) {
      AppendVarint(&out, row_id);
    } else {
      uint8_t buf[4];
      WriteU32(buf, static_cast<uint32_t>(row_id), p_.big_endian);
      AppendBytes(&out, buf, 4);
    }
  }
  out.push_back(column_count);
  out.push_back(numeric_count);

  size_t null_bitmap_pos = out.size();
  out.resize(out.size() + bitmap_len, 0);
  size_t type_bitmap_pos = 0;
  if (p_.string_mode == StringMode::kColumnDirectory) {
    type_bitmap_pos = out.size();
    out.resize(out.size() + bitmap_len, 0);
  }
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i].is_null()) BitmapSet(&out[null_bitmap_pos], i);
    if (p_.string_mode == StringMode::kColumnDirectory &&
        !IsNumeric(schema.columns[i].type)) {
      BitmapSet(&out[type_bitmap_pos], i);
    }
  }

  out.push_back(p_.data_marker_active);
  size_t record_len_pos = out.size();
  out.resize(out.size() + 2, 0);  // record_len placeholder

  if (p_.string_mode == StringMode::kInlineSizes) {
    for (size_t i = 0; i < r.size(); ++i) {
      const Value& v = r[i];
      if (v.is_null()) {
        uint8_t lb[2];
        WriteU16(lb, 0, p_.big_endian);
        AppendBytes(&out, lb, 2);
        continue;
      }
      if (v.type() == ValueType::kString) {
        const std::string_view s = v.as_string();
        if (s.size() > 0xFFFF) {
          return Status::InvalidArgument("string too long");
        }
        uint8_t lb[2];
        WriteU16(lb, static_cast<uint16_t>(s.size()), p_.big_endian);
        AppendBytes(&out, lb, 2);
        AppendBytes(&out, s.data(), s.size());
      } else {
        uint8_t buf[10];
        WriteU16(buf, 8, p_.big_endian);
        EncodeNumeric(buf + 2, v, p_.big_endian);
        AppendBytes(&out, buf, 10);
      }
    }
  } else {
    // Numeric section, declaration order restricted to numeric columns.
    for (size_t i = 0; i < r.size(); ++i) {
      if (!IsNumeric(schema.columns[i].type)) continue;
      uint8_t buf[8];
      EncodeNumeric(buf, r[i].is_null() ? Value::Int(0) : r[i],
                    p_.big_endian);
      AppendBytes(&out, buf, 8);
    }
    // String directory (offsets from record start), then string data.
    std::vector<size_t> string_cols;
    for (size_t i = 0; i < r.size(); ++i) {
      if (!IsNumeric(schema.columns[i].type)) string_cols.push_back(i);
    }
    size_t dir_pos = out.size();
    out.resize(out.size() + 2 * string_cols.size(), 0);
    for (size_t k = 0; k < string_cols.size(); ++k) {
      const Value& v = r[string_cols[k]];
      if (out.size() > 0xFFFF) {
        return Status::InvalidArgument("record too large");
      }
      WriteU16(&out[dir_pos + 2 * k], static_cast<uint16_t>(out.size()),
               p_.big_endian);
      if (!v.is_null() && v.type() == ValueType::kString) {
        const std::string_view s = v.as_string();
        AppendBytes(&out, s.data(), s.size());
      }
    }
  }

  if (out.size() > 0xFFFF) {
    return Status::InvalidArgument("record too large");
  }
  WriteU16(&out[record_len_pos], static_cast<uint16_t>(out.size()),
           p_.big_endian);
  return out;
}

Result<PageFormatter::RecordHeaderLayout> PageFormatter::ParseHeader(
    ByteView page, uint16_t offset, uint16_t* record_len) const {
  RecordHeaderLayout h;
  size_t pos = offset;
  auto need = [&](size_t n) { return pos + n <= page.size(); };
  if (!need(2)) return Status::Corruption("record header truncated");
  uint8_t marker = page[pos];
  if (marker != p_.active_marker && marker != p_.deleted_marker) {
    return Status::Corruption("bad row marker");
  }
  pos += 2;  // marker + flags
  if (p_.stores_row_id) {
    h.row_id_pos = pos;
    if (p_.row_id_varint) {
      size_t consumed = 0;
      auto v = DecodeVarint(page, pos, &consumed);
      if (!v.has_value()) return Status::Corruption("bad row id varint");
      h.row_id_len = consumed;
    } else {
      if (!need(4)) return Status::Corruption("record header truncated");
      h.row_id_len = 4;
    }
    pos += h.row_id_len;
  }
  if (!need(2)) return Status::Corruption("record header truncated");
  h.column_count = page[pos];
  h.numeric_count = page[pos + 1];
  pos += 2;
  if (h.column_count == 0 || h.numeric_count > h.column_count) {
    return Status::Corruption("implausible column counts");
  }
  size_t bitmap_len = (h.column_count + 7) / 8;
  if (!need(bitmap_len)) return Status::Corruption("record header truncated");
  h.null_bitmap = page.data() + pos;
  pos += bitmap_len;
  if (p_.string_mode == StringMode::kColumnDirectory) {
    if (!need(bitmap_len)) {
      return Status::Corruption("record header truncated");
    }
    h.type_bitmap = page.data() + pos;
    pos += bitmap_len;
  }
  if (!need(3)) return Status::Corruption("record header truncated");
  h.data_marker_pos = pos;
  uint8_t dm = page[pos];
  if (dm != p_.data_marker_active && dm != p_.data_marker_deleted) {
    return Status::Corruption("bad data marker");
  }
  pos += 1;
  h.record_len_pos = pos;
  uint16_t len = ReadU16(page.data() + pos, p_.big_endian);
  pos += 2;
  h.payload_pos = pos;
  if (len < pos - offset || offset + len > page.size()) {
    return Status::Corruption("implausible record length");
  }
  if (record_len != nullptr) *record_len = len;
  return h;
}

Result<ParsedRecord> PageFormatter::ParseRecordAt(ByteView page,
                                                  uint16_t offset) const {
  ParsedRecord rec;
  DBFA_RETURN_IF_ERROR(ParseRecordAt(page, offset, &rec));
  return rec;
}

Status PageFormatter::ParseRecordAt(ByteView page, uint16_t offset,
                                    ParsedRecord* out) const {
  uint16_t record_len = 0;
  DBFA_ASSIGN_OR_RETURN(RecordHeaderLayout h,
                        ParseHeader(page, offset, &record_len));
  ParsedRecord& rec = *out;
  rec.fields.clear();
  rec.row_id = 0;
  rec.offset = offset;
  rec.length = record_len;
  rec.row_marker_deleted = page[offset] == p_.deleted_marker;
  rec.data_marker_deleted = page[h.data_marker_pos] == p_.data_marker_deleted;
  rec.column_count = h.column_count;
  rec.numeric_count = h.numeric_count;
  if (p_.stores_row_id) {
    if (p_.row_id_varint) {
      rec.row_id = DecodeVarint(page, h.row_id_pos, nullptr).value_or(0);
    } else {
      rec.row_id = ReadU32(page.data() + h.row_id_pos, p_.big_endian);
    }
  }
  const size_t record_end = static_cast<size_t>(offset) + record_len;
  rec.fields.reserve(h.column_count);

  if (p_.string_mode == StringMode::kInlineSizes) {
    size_t pos = h.payload_pos;
    for (size_t i = 0; i < h.column_count; ++i) {
      if (pos + 2 > record_end) {
        return Status::Corruption("inline field truncated");
      }
      uint16_t len = ReadU16(page.data() + pos, p_.big_endian);
      pos += 2;
      if (pos + len > record_end) {
        return Status::Corruption("inline field exceeds record");
      }
      RawField f;
      f.is_null = BitmapGet(h.null_bitmap, i);
      f.bytes = ByteView(page.data() + pos, len);
      pos += len;
      rec.fields.push_back(std::move(f));
    }
  } else {
    if (h.numeric_count > h.column_count) {
      return Status::Corruption("numeric count exceeds column count");
    }
    size_t string_count =
        static_cast<size_t>(h.column_count) - h.numeric_count;
    size_t pos = h.payload_pos;
    size_t numeric_pos = pos;
    size_t dir_pos = pos + 8ull * h.numeric_count;
    if (dir_pos + 2 * string_count > record_end) {
      return Status::Corruption("directory record truncated");
    }
    // Read string offsets; they must be non-decreasing and inside the
    // record. Stack storage: column_count is a uint8_t, so at most 255
    // entries — no per-record heap allocation on the parse hot path.
    std::array<uint16_t, 255> offsets;
    for (size_t k = 0; k < string_count; ++k) {
      offsets[k] = ReadU16(page.data() + dir_pos + 2 * k, p_.big_endian);
      size_t abs = static_cast<size_t>(offset) + offsets[k];
      if (abs > record_end || (k > 0 && offsets[k] < offsets[k - 1])) {
        return Status::Corruption("bad string directory");
      }
    }
    size_t next_numeric = 0;
    size_t next_string = 0;
    for (size_t i = 0; i < h.column_count; ++i) {
      RawField f;
      f.is_null = BitmapGet(h.null_bitmap, i);
      bool is_string = h.type_bitmap != nullptr && BitmapGet(h.type_bitmap, i);
      f.is_string_hint = is_string;
      if (is_string) {
        if (next_string >= string_count) {
          return Status::Corruption("type bitmap disagrees with counts");
        }
        size_t begin = static_cast<size_t>(offset) + offsets[next_string];
        size_t end =
            next_string + 1 < string_count
                ? static_cast<size_t>(offset) + offsets[next_string + 1]
                : record_end;
        f.bytes = ByteView(page.data() + begin, end - begin);
        ++next_string;
      } else {
        if (next_numeric >= h.numeric_count) {
          return Status::Corruption("type bitmap disagrees with counts");
        }
        const uint8_t* np = page.data() + numeric_pos + 8 * next_numeric;
        f.bytes = ByteView(np, 8);
        ++next_numeric;
      }
      rec.fields.push_back(std::move(f));
    }
    if (next_numeric != h.numeric_count || next_string != string_count) {
      return Status::Corruption("type bitmap disagrees with counts");
    }
  }
  return Status::Ok();
}

bool PageFormatter::IsDeleted(const ParsedRecord& rec,
                              bool slot_tombstoned) const {
  switch (p_.delete_strategy) {
    case DeleteStrategy::kRowMarker:
      return rec.row_marker_deleted;
    case DeleteStrategy::kDataMarker:
      return rec.data_marker_deleted;
    case DeleteStrategy::kRowIdentifier:
      return rec.row_id == 0;
    case DeleteStrategy::kSlotTombstone:
      return slot_tombstoned;
  }
  return false;
}

Status PageFormatter::MarkDeleted(uint8_t* page, uint16_t slot) const {
  auto info = GetSlot(page, slot);
  if (!info.has_value()) {
    return Status::NotFound(StrFormat("slot %u out of range", slot));
  }
  switch (p_.delete_strategy) {
    case DeleteStrategy::kRowMarker:
      page[info->offset] = p_.deleted_marker;
      return Status::Ok();
    case DeleteStrategy::kDataMarker: {
      DBFA_ASSIGN_OR_RETURN(
          RecordHeaderLayout h,
          ParseHeader(ByteView(page, p_.page_size), info->offset, nullptr));
      page[h.data_marker_pos] = p_.data_marker_deleted;
      return Status::Ok();
    }
    case DeleteStrategy::kRowIdentifier: {
      DBFA_ASSIGN_OR_RETURN(
          RecordHeaderLayout h,
          ParseHeader(ByteView(page, p_.page_size), info->offset, nullptr));
      if (h.row_id_len == 0) {
        return Status::Internal("row-identifier delete without row ids");
      }
      // Overwrite with an encoding of 0 that occupies the same width.
      for (size_t i = 0; i + 1 < h.row_id_len; ++i) {
        page[h.row_id_pos + i] = p_.row_id_varint ? 0x80 : 0x00;
      }
      page[h.row_id_pos + h.row_id_len - 1] = 0x00;
      return Status::Ok();
    }
    case DeleteStrategy::kSlotTombstone:
      SetSlotTombstone(page, slot, true);
      return Status::Ok();
  }
  return Status::Internal("unknown delete strategy");
}

namespace {

// One string cell in the representation `cells` names.
Value MakeStringValue(ByteView bytes, StringCells cells) {
  std::string_view s = AsStringView(bytes);
  if (cells == StringCells::kOwned) return Value::Str(std::string(s));
  StringRef cell;
  cell.data = s.data();
  cell.len = static_cast<uint32_t>(s.size());
  cell.hash = HashStringContent(s);
  return Value::InternedStr(cell);
}

}  // namespace

Result<Record> PageFormatter::DecodeTyped(const ParsedRecord& rec,
                                          const TableSchema& schema,
                                          StringCells cells) const {
  if (rec.fields.size() != schema.columns.size()) {
    return Status::Corruption(
        StrFormat("carved arity %zu != schema arity %zu", rec.fields.size(),
                  schema.columns.size()));
  }
  Record out;
  out.reserve(rec.fields.size());
  for (size_t i = 0; i < rec.fields.size(); ++i) {
    const RawField& f = rec.fields[i];
    if (f.is_null) {
      out.push_back(Value::Null());
      continue;
    }
    switch (schema.columns[i].type) {
      case ColumnType::kInt: {
        if (f.bytes.size() != 8) {
          return Status::Corruption("INT field is not 8 bytes");
        }
        out.push_back(Value::Int(
            static_cast<int64_t>(ReadU64(f.bytes.data(), p_.big_endian))));
        break;
      }
      case ColumnType::kDouble: {
        if (f.bytes.size() != 8) {
          return Status::Corruption("DOUBLE field is not 8 bytes");
        }
        out.push_back(Value::Real(std::bit_cast<double>(
            ReadU64(f.bytes.data(), p_.big_endian))));
        break;
      }
      case ColumnType::kVarchar:
        out.push_back(MakeStringValue(f.bytes, cells));
        break;
    }
  }
  return out;
}

Record PageFormatter::DecodeUntyped(const ParsedRecord& rec,
                                    StringCells cells) const {
  Record out;
  out.reserve(rec.fields.size());
  for (const RawField& f : rec.fields) {
    if (f.is_null) {
      out.push_back(Value::Null());
      continue;
    }
    bool treat_as_string = f.is_string_hint ||
                           (f.bytes.size() != 8 || MostlyPrintable(f.bytes));
    if (treat_as_string) {
      out.push_back(MakeStringValue(f.bytes, cells));
      continue;
    }
    uint64_t bits = ReadU64(f.bytes.data(), p_.big_endian);
    int64_t as_int = static_cast<int64_t>(bits);
    double as_double = std::bit_cast<double>(bits);
    // Prefer the int reading unless it is implausibly large while the double
    // reading is an ordinary magnitude.
    bool int_huge = as_int > (1ll << 52) || as_int < -(1ll << 52);
    bool double_sane = std::isfinite(as_double) && as_double != 0.0 &&
                       std::abs(as_double) >= 1e-9 &&
                       std::abs(as_double) <= 1e15;
    if (int_huge && double_sane) {
      out.push_back(Value::Real(as_double));
    } else {
      out.push_back(Value::Int(as_int));
    }
  }
  return out;
}

std::vector<ParsedRecord> PageFormatter::ScanRecordsRaw(ByteView page) const {
  std::vector<ParsedRecord> found;
  if (page.size() < p_.header_size) return found;
  size_t pos = p_.header_size;
  while (pos + 8 < page.size()) {
    uint8_t b = page[pos];
    if (b != p_.active_marker && b != p_.deleted_marker) {
      ++pos;
      continue;
    }
    auto rec = ParseRecordAt(page, static_cast<uint16_t>(pos));
    if (rec.ok() && rec->length >= 8) {
      size_t next = pos + rec->length;
      found.push_back(std::move(rec).value());
      pos = next;
    } else {
      ++pos;
    }
  }
  return found;
}

// ---- index entries ----------------------------------------------------------

void PageFormatter::AppendPointer(Bytes* out, RowPointer ptr) const {
  uint8_t buf[12];
  switch (p_.pointer_format) {
    case PointerFormat::kU32PageU16Slot:
      WriteU32(buf, ptr.page_id, false);
      WriteU16(buf + 4, ptr.slot, false);
      AppendBytes(out, buf, 6);
      return;
    case PointerFormat::kU32PageU16SlotBE:
      WriteU32(buf, ptr.page_id, true);
      WriteU16(buf + 4, ptr.slot, true);
      AppendBytes(out, buf, 6);
      return;
    case PointerFormat::kVarintPageSlot:
      AppendVarint(out, ptr.page_id);
      AppendVarint(out, ptr.slot);
      return;
    case PointerFormat::kU48Packed: {
      uint64_t packed = (static_cast<uint64_t>(ptr.page_id) << 16) | ptr.slot;
      for (int i = 0; i < 6; ++i) {
        out->push_back(static_cast<uint8_t>(packed >> (8 * i)));
      }
      return;
    }
  }
}

std::optional<RowPointer> PageFormatter::DecodePointer(
    ByteView data, size_t off, size_t* consumed) const {
  RowPointer ptr;
  switch (p_.pointer_format) {
    case PointerFormat::kU32PageU16Slot:
    case PointerFormat::kU32PageU16SlotBE: {
      bool be = p_.pointer_format == PointerFormat::kU32PageU16SlotBE;
      auto page = TryReadU32(data, off, be);
      auto slot = TryReadU16(data, off + 4, be);
      if (!page.has_value() || !slot.has_value()) return std::nullopt;
      ptr.page_id = *page;
      ptr.slot = *slot;
      if (consumed != nullptr) *consumed = 6;
      return ptr;
    }
    case PointerFormat::kVarintPageSlot: {
      size_t c1 = 0;
      size_t c2 = 0;
      auto page = DecodeVarint(data, off, &c1);
      if (!page.has_value()) return std::nullopt;
      auto slot = DecodeVarint(data, off + c1, &c2);
      if (!slot.has_value()) return std::nullopt;
      ptr.page_id = static_cast<uint32_t>(*page);
      ptr.slot = static_cast<uint16_t>(*slot);
      if (consumed != nullptr) *consumed = c1 + c2;
      return ptr;
    }
    case PointerFormat::kU48Packed: {
      if (off + 6 > data.size()) return std::nullopt;
      uint64_t packed = 0;
      for (int i = 0; i < 6; ++i) {
        packed |= static_cast<uint64_t>(data[off + i]) << (8 * i);
      }
      ptr.page_id = static_cast<uint32_t>(packed >> 16);
      ptr.slot = static_cast<uint16_t>(packed & 0xFFFF);
      if (consumed != nullptr) *consumed = 6;
      return ptr;
    }
  }
  return std::nullopt;
}

namespace {

// GCC 12 emits -Warray-bounds / -Wstringop-overread false positives when
// it inlines std::vector's growth path into EncodeLeafEntry (it mistakes a
// just-allocated 2-element backing store for the final copy's full source
// range). The bounds are locally provable: every append below passes the
// buffer's exact size. Clang (and clang-tidy) analyze this region with no
// suppression.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

void AppendKeyValues(Bytes* out, const std::vector<Value>& keys,
                     bool big_endian) {
  out->push_back(static_cast<uint8_t>(keys.size()));
  for (const Value& k : keys) {
    out->push_back(static_cast<uint8_t>(k.type()));
    if (k.is_null()) {
      uint8_t lb[2];
      WriteU16(lb, 0, big_endian);
      AppendBytes(out, lb, 2);
      continue;
    }
    if (k.type() == ValueType::kString) {
      const std::string_view s = k.as_string();
      uint8_t lb[2];
      WriteU16(lb, static_cast<uint16_t>(s.size()), big_endian);
      AppendBytes(out, lb, 2);
      AppendBytes(out, s.data(), s.size());
    } else {
      uint8_t buf[10];
      WriteU16(buf, 8, big_endian);
      EncodeNumeric(buf + 2, k, big_endian);
      AppendBytes(out, buf, 10);
    }
  }
}

}  // namespace

Bytes PageFormatter::EncodeLeafEntry(const std::vector<Value>& keys,
                                     RowPointer pointer) const {
  Bytes out;
  out.push_back(p_.index_entry_marker);
  out.push_back(0);  // flags
  size_t len_pos = out.size();
  out.resize(out.size() + 2, 0);
  AppendPointer(&out, pointer);
  AppendKeyValues(&out, keys, p_.big_endian);
  WriteU16(&out[len_pos], static_cast<uint16_t>(out.size()), p_.big_endian);
  return out;
}

Bytes PageFormatter::EncodeInternalEntry(const std::vector<Value>& keys,
                                         uint32_t child_page) const {
  return EncodeLeafEntry(keys, RowPointer{child_page, 0});
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

Result<ParsedIndexEntry> PageFormatter::ParseIndexEntryAt(
    ByteView page, uint16_t offset, StringCells cells) const {
  size_t pos = offset;
  if (pos + 4 > page.size() || page[pos] != p_.index_entry_marker) {
    return Status::Corruption("bad index entry marker");
  }
  pos += 2;
  uint16_t entry_len = ReadU16(page.data() + pos, p_.big_endian);
  pos += 2;
  size_t entry_end = static_cast<size_t>(offset) + entry_len;
  if (entry_len < 6 || entry_end > page.size()) {
    return Status::Corruption("implausible index entry length");
  }
  ParsedIndexEntry entry;
  entry.offset = offset;
  entry.length = entry_len;
  size_t consumed = 0;
  auto ptr = DecodePointer(page, pos, &consumed);
  if (!ptr.has_value()) return Status::Corruption("bad index pointer");
  entry.pointer = *ptr;
  pos += consumed;
  if (pos >= entry_end) return Status::Corruption("index entry truncated");
  uint8_t key_count = page[pos++];
  entry.keys.reserve(key_count);
  for (uint8_t k = 0; k < key_count; ++k) {
    if (pos + 3 > entry_end) return Status::Corruption("index key truncated");
    uint8_t type_tag = page[pos++];
    uint16_t len = ReadU16(page.data() + pos, p_.big_endian);
    pos += 2;
    if (pos + len > entry_end) {
      return Status::Corruption("index key exceeds entry");
    }
    switch (static_cast<ValueType>(type_tag)) {
      case ValueType::kNull:
        entry.keys.push_back(Value::Null());
        break;
      case ValueType::kInt:
        if (len != 8) return Status::Corruption("index INT key not 8 bytes");
        entry.keys.push_back(Value::Int(
            static_cast<int64_t>(ReadU64(page.data() + pos, p_.big_endian))));
        break;
      case ValueType::kDouble:
        if (len != 8) {
          return Status::Corruption("index DOUBLE key not 8 bytes");
        }
        entry.keys.push_back(Value::Real(
            std::bit_cast<double>(ReadU64(page.data() + pos, p_.big_endian))));
        break;
      case ValueType::kString:
        entry.keys.push_back(MakeStringValue(page.Slice(pos, len), cells));
        break;
      default:
        return Status::Corruption("bad index key type tag");
    }
    pos += len;
  }
  return entry;
}

}  // namespace dbfa
