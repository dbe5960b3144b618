#include "sql/row_codec.h"

#include <bit>
#include <cstdint>

#include "common/bytes.h"
#include "common/strings.h"

namespace dbfa::sql {
namespace {

void AppendU32(uint32_t v, std::string* out) {
  uint8_t buf[4];
  WriteU32(buf, v, /*big_endian=*/false);
  out->append(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void AppendU64(uint64_t v, std::string* out) {
  uint8_t buf[8];
  WriteU64(buf, v, /*big_endian=*/false);
  out->append(reinterpret_cast<const char*>(buf), sizeof(buf));
}

}  // namespace

void AppendValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      AppendU64(static_cast<uint64_t>(v.as_int()), out);
      break;
    case ValueType::kDouble:
      AppendU64(std::bit_cast<uint64_t>(v.as_double()), out);
      break;
    case ValueType::kString: {
      const std::string_view s = v.as_string();
      AppendU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      break;
    }
  }
}

void AppendRecord(const Record& r, std::string* out) {
  AppendU32(static_cast<uint32_t>(r.size()), out);
  for (const Value& v : r) AppendValue(v, out);
}

namespace {

/// Pointer-based decode core shared by DecodeValue and DecodeRecord: the
/// spill read path decodes every spilled row once per pass, so this loop
/// avoids per-field string_view slicing and position bookkeeping.
Status DecodeValueAt(const uint8_t** cursor, const uint8_t* end, Value* out,
                     StringPool* pool) {
  const uint8_t* p = *cursor;
  if (p == end) return Status::Corruption("row codec: truncated input");
  uint8_t tag = *p++;
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      *out = Value::Null();
      break;
    case static_cast<uint8_t>(ValueType::kInt):
      if (end - p < 8) return Status::Corruption("row codec: truncated input");
      *out = Value::Int(static_cast<int64_t>(ReadU64(p, false)));
      p += 8;
      break;
    case static_cast<uint8_t>(ValueType::kDouble):
      if (end - p < 8) return Status::Corruption("row codec: truncated input");
      *out = Value::Real(std::bit_cast<double>(ReadU64(p, false)));
      p += 8;
      break;
    case static_cast<uint8_t>(ValueType::kString): {
      if (end - p < 4) return Status::Corruption("row codec: truncated input");
      uint32_t len = ReadU32(p, false);
      p += 4;
      if (static_cast<size_t>(end - p) < len) {
        return Status::Corruption("row codec: truncated input");
      }
      std::string_view bytes(reinterpret_cast<const char*>(p), len);
      *out = pool != nullptr ? Value::InternedStr(pool->Intern(bytes))
                             : Value::Str(std::string(bytes));
      p += len;
      break;
    }
    default:
      return Status::Corruption(
          StrFormat("row codec: unknown value tag %u", tag));
  }
  *cursor = p;
  return Status::Ok();
}

}  // namespace

Status DecodeValue(std::string_view buf, size_t* pos, Value* out) {
  if (*pos > buf.size()) {
    return Status::Corruption("row codec: truncated input");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  const uint8_t* end =
      reinterpret_cast<const uint8_t*>(buf.data()) + buf.size();
  DBFA_RETURN_IF_ERROR(DecodeValueAt(&p, end, out, nullptr));
  *pos = static_cast<size_t>(p - reinterpret_cast<const uint8_t*>(buf.data()));
  return Status::Ok();
}

Status DecodeRecord(std::string_view buf, size_t* pos, Record* out,
                    StringPool* pool) {
  if (*pos > buf.size() || buf.size() - *pos < 4) {
    return Status::Corruption("row codec: truncated input");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data()) + *pos;
  const uint8_t* end =
      reinterpret_cast<const uint8_t*>(buf.data()) + buf.size();
  uint32_t n = ReadU32(p, false);
  p += 4;
  // A record cannot hold more values than bytes remaining (every value is
  // at least one tag byte) — rejects corrupt counts before reserving.
  if (n > static_cast<size_t>(end - p)) {
    return Status::Corruption("row codec: implausible record width");
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    DBFA_RETURN_IF_ERROR(DecodeValueAt(&p, end, &v, pool));
    out->push_back(std::move(v));
  }
  *pos = static_cast<size_t>(p - reinterpret_cast<const uint8_t*>(buf.data()));
  return Status::Ok();
}

size_t EstimateRecordMemoryBytes(const Record& r) {
  // sizeof(Record) covers the vector header; each Value is a variant whose
  // string alternative owns heap bytes proportional to its size.
  size_t bytes = sizeof(Record) + r.size() * sizeof(Value);
  for (const Value& v : r) {
    // Interned strings live in their pool's arena, shared by every row of
    // the carve; counting them per cell here would bill shared bytes per
    // occurrence.
    if (v.type() == ValueType::kString && !v.is_interned()) {
      bytes += v.as_string().size();
    }
  }
  return bytes;
}

}  // namespace dbfa::sql
