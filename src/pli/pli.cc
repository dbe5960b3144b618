#include "pli/pli.h"

#include <map>
#include <set>

namespace dbfa {

PhysicalLocationIndex PhysicalLocationIndex::FromOrderedRows(
    const std::vector<std::pair<uint32_t, Value>>& page_values,
    size_t pages_per_bucket) {
  PhysicalLocationIndex pli;
  if (pages_per_bucket == 0) pages_per_bucket = 1;
  std::set<uint32_t> all_pages;
  PliBucket current;
  std::set<uint32_t> current_pages;
  auto flush = [&]() {
    if (current.rows == 0) return;
    current.pages.assign(current_pages.begin(), current_pages.end());
    pli.buckets_.push_back(std::move(current));
    current = PliBucket();
    current_pages.clear();
  };
  for (const auto& [page_id, value] : page_values) {
    if (value.is_null()) continue;
    if (!current_pages.empty() && current_pages.count(page_id) == 0 &&
        current_pages.size() >= pages_per_bucket) {
      flush();
    }
    if (current.rows == 0) {
      current.min_value = value;
      current.max_value = value;
    } else {
      if (Value::Compare(value, current.min_value) < 0) {
        current.min_value = value;
      }
      if (Value::Compare(value, current.max_value) > 0) {
        current.max_value = value;
      }
    }
    ++current.rows;
    ++pli.total_rows_;
    current_pages.insert(page_id);
    all_pages.insert(page_id);
  }
  flush();
  pli.total_pages_ = all_pages.size();
  return pli;
}

Result<PhysicalLocationIndex> PhysicalLocationIndex::Build(
    const CarveResult& carve, const std::string& table,
    const std::string& column, size_t pages_per_bucket) {
  const TableSchema* schema = carve.SchemaByName(table);
  if (schema == nullptr) {
    return Status::NotFound("no carved schema for table: " + table);
  }
  int ci = schema->ColumnIndex(column);
  if (ci < 0) return Status::NotFound("no such column: " + column);
  std::vector<std::pair<uint32_t, Value>> page_values;
  for (const CarvedRecord* r :
       carve.RecordsForTable(table, RowStatus::kActive)) {
    if (static_cast<size_t>(ci) >= r->values.size()) continue;
    page_values.emplace_back(r->page_id, r->values[ci]);
  }
  PhysicalLocationIndex pli = FromOrderedRows(page_values, pages_per_bucket);
  pli.string_pools_ = StringPoolSet(carve.string_pool);
  return pli;
}

Result<PhysicalLocationIndex> PhysicalLocationIndex::BuildFromDatabase(
    Database* db, const std::string& table, const std::string& column,
    size_t pages_per_bucket) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  int ci = info->schema.ColumnIndex(column);
  if (ci < 0) return Status::NotFound("no such column: " + column);
  std::vector<std::pair<uint32_t, Value>> page_values;
  TableHeap* heap = db->heap(table);
  DBFA_RETURN_IF_ERROR(heap->Scan([&](RowPointer ptr, const Record& rec) {
    page_values.emplace_back(ptr.page_id, rec[ci]);
    return Status::Ok();
  }));
  return FromOrderedRows(page_values, pages_per_bucket);
}

std::vector<uint32_t> PhysicalLocationIndex::LookupPages(
    const Value& lo, const Value& hi) const {
  std::set<uint32_t> pages;
  for (const PliBucket& bucket : buckets_) {
    if (Value::Compare(bucket.max_value, lo) < 0) continue;
    if (Value::Compare(bucket.min_value, hi) > 0) continue;
    pages.insert(bucket.pages.begin(), bucket.pages.end());
  }
  return std::vector<uint32_t>(pages.begin(), pages.end());
}

double PhysicalLocationIndex::ClusteringFactor() const {
  // Fraction of bucket transitions whose minima increase. Perfectly (or
  // approximately) clustered ingest gives ~1.0; random placement gives
  // ~0.5 because each transition is a coin flip.
  if (buckets_.size() < 2) return 1.0;
  size_t ordered = 0;
  for (size_t i = 1; i < buckets_.size(); ++i) {
    if (Value::Compare(buckets_[i - 1].min_value, buckets_[i].min_value) <=
        0) {
      ++ordered;
    }
  }
  return static_cast<double>(ordered) /
         static_cast<double>(buckets_.size() - 1);
}

}  // namespace dbfa
