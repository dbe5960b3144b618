#include "core/carver.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>

#include "common/strings.h"
#include "core/page_scanner.h"

namespace dbfa {
namespace {

/// Sanity bounds for header fields of a candidate page.
constexpr uint32_t kMaxPlausibleId = 1u << 24;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool KnownPageType(uint8_t t) {
  return t == static_cast<uint8_t>(PageType::kData) ||
         t == static_cast<uint8_t>(PageType::kIndexLeaf) ||
         t == static_cast<uint8_t>(PageType::kIndexInternal) ||
         t == static_cast<uint8_t>(PageType::kFree);
}

}  // namespace

Carver::Carver(CarverConfig config, CarveOptions options)
    : config_(std::move(config)), fmt_(config_.params), options_(options) {}

bool Carver::LooksLikePage(ByteView image, size_t offset,
                           bool* checksum_ok) const {
  const PageLayoutParams& p = config_.params;
  if (offset + p.page_size > image.size()) return false;
  const uint8_t* page = image.data() + offset;
  if (std::memcmp(page + p.magic_offset, p.magic.data(), p.magic.size()) !=
      0) {
    return false;
  }
  uint32_t page_id = fmt_.PageId(page);
  uint32_t object_id = fmt_.ObjectId(page);
  if (page_id == 0 || page_id > kMaxPlausibleId) return false;
  if (object_id == 0 || object_id > kMaxPlausibleId) return false;
  if (!KnownPageType(page[p.page_type_offset])) return false;
  uint16_t count = fmt_.RecordCount(page);
  if (count > p.page_size / 2) return false;
  uint16_t boundary = fmt_.FreeBoundary(page);
  if (boundary > p.page_size) return false;
  *checksum_ok = fmt_.VerifyChecksum(page);
  return true;
}

std::optional<CarvedPage> Carver::ProbePage(ByteView image,
                                            size_t offset) const {
  bool checksum_ok = false;
  if (!LooksLikePage(image, offset, &checksum_ok)) return std::nullopt;
  const uint8_t* page = image.data() + offset;
  CarvedPage carved;
  carved.image_offset = offset;
  carved.page_id = fmt_.PageId(page);
  carved.object_id = fmt_.ObjectId(page);
  carved.type = fmt_.TypeOf(page);
  carved.record_count = fmt_.RecordCount(page);
  carved.next_page = fmt_.NextPage(page);
  carved.lsn = fmt_.Lsn(page);
  carved.checksum_ok = checksum_ok;
  return carved;
}

Result<CarveResult> Carver::Carve(ByteView image, ThreadPool* pool) const {
  const PageLayoutParams& p = config_.params;
  // A malformed parameter set (e.g. an oversized page_size or a header
  // field past header_size) would defeat the bounds reasoning below, so
  // reject it before touching any image byte.
  DBFA_RETURN_IF_ERROR(p.Validate());
  if (pool != nullptr && pool->thread_count() <= 1) pool = nullptr;
  CarveResult result;
  result.dialect = p.dialect;
  result.image_size = image.size();
  result.stats.bytes_scanned = image.size();
  result.string_pool = std::make_shared<StringPool>();

  // Pass 1: page detection.
  auto detect_start = std::chrono::steady_clock::now();
  auto probe = [&](size_t offset) { return ProbePage(image, offset); };
  result.pages =
      PageScanner(image.size(), p.page_size, options_)
          .Scan<CarvedPage>(pool, probe, &result.stats.pages_probed);
  for (const CarvedPage& page : result.pages) {
    if (!page.checksum_ok) ++result.stats.checksum_failures;
  }
  result.stats.pages_accepted = result.pages.size();
  result.stats.detect_seconds = SecondsSince(detect_start);

  // Pass 2: catalog reconstruction (serial: it reads only the few catalog
  // pages, and the schemas it yields drive typed decoding later).
  auto catalog_start = std::chrono::steady_clock::now();
  CarveCatalog(image, &result);
  result.stats.catalog_seconds = SecondsSince(catalog_start);

  // Passes 3-4: content.
  auto content_start = std::chrono::steady_clock::now();
  CarveContent(image, pool, &result);
  result.stats.content_seconds = SecondsSince(content_start);
  return result;
}

void Carver::CarveContent(ByteView image, ThreadPool* pool,
                          CarveResult* result) const {
  size_t n_pages = result->pages.size();
  if (pool == nullptr) {
    CarveContentRange(image, *result, 0, n_pages, &result->records,
                      &result->index_entries);
    return;
  }
  struct RangeOut {
    std::vector<CarvedRecord> records;
    std::vector<CarvedIndexEntry> entries;
  };
  size_t n_ranges = std::min(n_pages, pool->thread_count() * 4);
  if (n_ranges == 0) return;
  size_t per_range = (n_pages + n_ranges - 1) / n_ranges;
  std::vector<RangeOut> outs((n_pages + per_range - 1) / per_range);
  pool->ParallelFor(outs.size(), [&](size_t r) {
    size_t begin = r * per_range;
    CarveContentRange(image, *result, begin,
                      std::min(begin + per_range, n_pages), &outs[r].records,
                      &outs[r].entries);
  });
  // Ranges are contiguous and ordered, so concatenation in range order
  // reproduces the serial artifact ordering exactly.
  for (RangeOut& out : outs) {
    result->records.insert(result->records.end(),
                           std::make_move_iterator(out.records.begin()),
                           std::make_move_iterator(out.records.end()));
    result->index_entries.insert(result->index_entries.end(),
                                 std::make_move_iterator(out.entries.begin()),
                                 std::make_move_iterator(out.entries.end()));
  }
}

void Carver::CarveContentRange(ByteView image, const CarveResult& base,
                               size_t begin, size_t end,
                               std::vector<CarvedRecord>* records,
                               std::vector<CarvedIndexEntry>* entries) const {
  const PageLayoutParams& p = config_.params;
  // Interning is sharded-thread-safe, so concurrent ranges share the
  // result's pool directly.
  StringPool* pool = base.string_pool.get();
  for (size_t i = begin; i < end; ++i) {
    const CarvedPage& page_meta = base.pages[i];
    if (!page_meta.checksum_ok && !options_.parse_bad_checksum_pages) {
      continue;
    }
    ByteView page = image.Slice(page_meta.image_offset, p.page_size);
    switch (page_meta.type) {
      case PageType::kData:
        if (page_meta.object_id != config_.catalog_object_id) {
          const TableSchema* schema = nullptr;
          auto schema_it = base.schemas.find(page_meta.object_id);
          if (schema_it != base.schemas.end()) schema = &schema_it->second;
          CarveDataPage(page, i, page_meta, schema, pool, records);
        }
        break;
      case PageType::kIndexLeaf:
      case PageType::kIndexInternal:
        CarveIndexPage(page, i, page_meta, pool, entries);
        break;
      case PageType::kFree:
        break;
    }
  }
}

void Carver::CarveCatalog(ByteView image, CarveResult* result) const {
  const PageLayoutParams& p = config_.params;
  for (const CarvedPage& page_meta : result->pages) {
    if (page_meta.object_id != config_.catalog_object_id ||
        page_meta.type != PageType::kData) {
      continue;
    }
    ByteView page = image.Slice(page_meta.image_offset, p.page_size);
    ParsedRecord parsed;  // scratch reused across slots
    for (uint16_t s = 0; s < page_meta.record_count; ++s) {
      auto slot = fmt_.GetSlot(page.data(), s);
      if (!slot.has_value()) continue;
      if (!fmt_.ParseRecordAt(page, slot->offset, &parsed).ok()) continue;
      Record values = fmt_.DecodeUntyped(parsed);
      // Catalog rows are (str, str, int, int, int, str).
      if (values.size() != 6) continue;
      if (values[0].type() != ValueType::kString ||
          values[1].type() != ValueType::kString ||
          values[2].type() != ValueType::kInt ||
          values[3].type() != ValueType::kInt ||
          values[4].type() != ValueType::kInt) {
        continue;
      }
      CarvedCatalogEntry entry;
      entry.entry_type = values[0].as_string();
      entry.name = values[1].as_string();
      entry.object_id = static_cast<uint32_t>(values[2].as_int());
      entry.table_object_id = static_cast<uint32_t>(values[3].as_int());
      entry.root_page = static_cast<uint32_t>(values[4].as_int());
      entry.info =
          values[5].type() == ValueType::kString ? values[5].as_string() : "";
      entry.status = fmt_.IsDeleted(parsed, slot->tombstoned)
                         ? RowStatus::kDeleted
                         : RowStatus::kActive;
      result->catalog_entries.push_back(std::move(entry));
    }
  }

  // Interpret: schemas, index metadata, dropped objects. Active entries
  // win; delete-marked entries fill in dropped objects.
  std::set<uint32_t> active_objects;
  for (const CarvedCatalogEntry& e : result->catalog_entries) {
    if (e.status == RowStatus::kActive) active_objects.insert(e.object_id);
  }
  for (const CarvedCatalogEntry& e : result->catalog_entries) {
    if (e.entry_type == "TABLE") {
      auto schema = TableSchema::Deserialize(e.info);
      if (schema.ok() &&
          (e.status == RowStatus::kActive ||
           result->schemas.count(e.object_id) == 0)) {
        result->schemas[e.object_id] = *schema;
      }
    } else if (e.entry_type == "INDEX") {
      auto it = result->indexes.find(e.object_id);
      if (it == result->indexes.end() || e.status == RowStatus::kActive) {
        CarvedIndexMeta meta;
        meta.name = e.name;
        meta.object_id = e.object_id;
        meta.table_object_id = e.table_object_id;
        meta.root_page = e.root_page;
        for (const std::string& col : Split(e.info, ',')) {
          if (!col.empty()) meta.columns.push_back(col);
        }
        meta.dropped = active_objects.count(e.object_id) == 0;
        result->indexes[e.object_id] = std::move(meta);
      }
    }
    if (active_objects.count(e.object_id) == 0) {
      result->dropped_objects.insert(e.object_id);
    }
  }
}

void Carver::CarveDataPage(ByteView page, size_t page_index,
                           const CarvedPage& page_meta,
                           const TableSchema* schema, StringPool* pool,
                           std::vector<CarvedRecord>* out) const {
  // Offsets the slot directory already covered, for the raw-scan dedup
  // below. A flat vector + one sort beats a std::set here: this runs per
  // record on the carve hot path, and a set pays one node allocation per
  // insert.
  std::vector<uint16_t> seen_offsets;
  size_t slot_failures = 0;
  ParsedRecord rec;  // scratch reused across slots: zero-alloc parses
  for (uint16_t s = 0; s < page_meta.record_count; ++s) {
    auto slot = fmt_.GetSlot(page.data(), s);
    if (!slot.has_value()) {
      ++slot_failures;
      continue;
    }
    if (!fmt_.ParseRecordAt(page, slot->offset, &rec).ok()) {
      ++slot_failures;
      continue;
    }
    seen_offsets.push_back(rec.offset);
    CarvedRecord carved;
    carved.page_index = page_index;
    carved.object_id = page_meta.object_id;
    carved.page_id = page_meta.page_id;
    carved.slot = s;
    carved.status = fmt_.IsDeleted(rec, slot->tombstoned)
                        ? RowStatus::kDeleted
                        : RowStatus::kActive;
    carved.row_id = rec.row_id;
    carved.page_lsn = page_meta.lsn;
    if (schema != nullptr) {
      auto typed = fmt_.DecodeTyped(rec, *schema, pool);
      if (typed.ok()) {
        carved.values = std::move(typed).value();
        carved.typed = true;
      }
    }
    if (!carved.typed) carved.values = fmt_.DecodeUntyped(rec, pool);
    out->push_back(std::move(carved));
  }

  // Raw-scan fallback: recover records the slot directory no longer
  // references (corruption, tampered directories).
  bool want_raw = options_.raw_scan_fallback &&
                  (slot_failures > 0 || !page_meta.checksum_ok);
  if (!want_raw) return;
  std::sort(seen_offsets.begin(), seen_offsets.end());
  for (const ParsedRecord& raw : fmt_.ScanRecordsRaw(page)) {
    if (std::binary_search(seen_offsets.begin(), seen_offsets.end(),
                           raw.offset)) {
      continue;
    }
    CarvedRecord carved;
    carved.page_index = page_index;
    carved.object_id = page_meta.object_id;
    carved.page_id = page_meta.page_id;
    carved.slot = CarvedRecord::kOrphanSlot;
    // A record invisible to the slot directory is unallocated storage.
    carved.status = RowStatus::kDeleted;
    carved.row_id = raw.row_id;
    carved.page_lsn = page_meta.lsn;
    if (schema != nullptr) {
      auto typed = fmt_.DecodeTyped(raw, *schema, pool);
      if (typed.ok()) {
        carved.values = std::move(typed).value();
        carved.typed = true;
      }
    }
    if (!carved.typed) carved.values = fmt_.DecodeUntyped(raw, pool);
    out->push_back(std::move(carved));
  }
}

void Carver::CarveIndexPage(ByteView page, size_t page_index,
                            const CarvedPage& page_meta, StringPool* pool,
                            std::vector<CarvedIndexEntry>* out) const {
  for (uint16_t s = 0; s < page_meta.record_count; ++s) {
    auto slot = fmt_.GetSlot(page.data(), s);
    if (!slot.has_value()) continue;
    auto entry = fmt_.ParseIndexEntryAt(page, slot->offset, pool);
    if (!entry.ok()) continue;
    CarvedIndexEntry carved;
    carved.page_index = page_index;
    carved.object_id = page_meta.object_id;
    carved.page_id = page_meta.page_id;
    carved.leaf = page_meta.type == PageType::kIndexLeaf;
    carved.keys = std::move(entry->keys);
    carved.pointer = entry->pointer;
    out->push_back(std::move(carved));
  }
}

Result<std::vector<CarveResult>> Carver::CarveMulti(
    ByteView image, const std::vector<CarverConfig>& configs,
    CarveOptions options, ThreadPool* pool) {
  std::vector<CarveResult> results;
  results.reserve(configs.size());
  for (const CarverConfig& config : configs) {
    Carver carver(config, options);
    DBFA_ASSIGN_OR_RETURN(CarveResult r, carver.Carve(image, pool));
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace dbfa
