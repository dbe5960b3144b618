// Serialization of Values and Records for the spill layer.
//
// The out-of-core meta-query executor writes intermediate rows to
// checksummed spill blocks (common/spill_manager.h) and reads them back;
// this codec defines the row wire format. It is a private interchange
// format between one query's operators — not a stable on-disk format — so
// it favors simplicity: fixed-width little-endian integers, length-prefixed
// strings, one type tag per value.
//
//   value  := u8 tag (ValueType) payload
//             kNull: empty   kInt: i64 LE   kDouble: f64 bit pattern LE
//             kString: u32 LE length + bytes
//   record := u32 LE value count, then that many values
//
// Decoding is bounds-checked and rejects malformed input with
// Status::Corruption — spill blocks are already CRC-protected, so a decode
// failure indicates a bug rather than bit rot, but it must not crash.
#ifndef DBFA_SQL_ROW_CODEC_H_
#define DBFA_SQL_ROW_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/string_pool.h"
#include "storage/value.h"

namespace dbfa::sql {

/// Appends the encoding of `v` / `r` to *out.
void AppendValue(const Value& v, std::string* out);
void AppendRecord(const Record& r, std::string* out);

/// Decodes one value / record at *pos, advancing *pos past it. A record's
/// strings are interned into `pool` when it is non-null (the snapshot
/// store's carved records), owned otherwise (spilled query rows).
Status DecodeValue(std::string_view buf, size_t* pos, Value* out);
Status DecodeRecord(std::string_view buf, size_t* pos, Record* out,
                    StringPool* pool = nullptr);

/// Deterministic estimate of a record's in-memory footprint, used for
/// spill-budget accounting. A pure function of the record's values (never
/// of container capacities), so budget decisions are identical across
/// thread counts and runs.
size_t EstimateRecordMemoryBytes(const Record& r);

}  // namespace dbfa::sql

#endif  // DBFA_SQL_ROW_CODEC_H_
