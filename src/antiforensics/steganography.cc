#include "antiforensics/steganography.h"

#include "common/strings.h"

namespace dbfa {

Steganographer::Steganographer(CarverConfig config)
    : config_(std::move(config)), fmt_(config_.params) {}

Status Steganographer::HideInDatabase(Database* db, const std::string& table,
                                      const Record& values) const {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  if (values.size() != info->schema.columns.size()) {
    return Status::InvalidArgument("hidden record arity mismatch");
  }
  // Encode exactly like a legitimate record (byte-indistinguishable).
  DBFA_ASSIGN_OR_RETURN(Bytes encoded,
                        fmt_.EncodeRecord(info->schema, values,
                                          /*row_id=*/424243));
  DBFA_RETURN_IF_ERROR(db->pager().pool().FlushAll());
  StorageFile* file = db->pager().file(info->object_id);
  if (file == nullptr) return Status::NotFound("table file missing");
  for (uint32_t page_id = 1; page_id <= file->page_count(); ++page_id) {
    uint8_t* page = file->PageData(page_id);
    if (fmt_.TypeOf(page) != PageType::kData) continue;
    auto slot = fmt_.InsertRecordBytes(page, encoded);
    if (!slot.ok()) continue;
    fmt_.UpdateChecksum(page);
    return db->pager().pool().Clear();
  }
  return Status::OutOfRange("no page has room for the hidden record");
}

std::vector<ConstraintViolation> FindViolations(const CarveResult& carve,
                                                const TableSchema& schema,
                                                const Record& values) {
  std::vector<ConstraintViolation> out;
  if (values.size() != schema.columns.size()) return out;
  // Domain constraints.
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    const Column& col = schema.columns[i];
    if (col.type == ColumnType::kVarchar && col.max_length > 0 &&
        !values[i].is_null() && values[i].type() == ValueType::kString &&
        values[i].as_string().size() > col.max_length) {
      out.push_back({col.name,
                     StrFormat("VARCHAR(%u) holds %zu characters",
                               col.max_length, values[i].as_string().size())});
    }
    if (!col.nullable && values[i].is_null()) {
      out.push_back({col.name, "NOT NULL column is NULL"});
    }
  }
  // NULL primary-key components (omitted from the PK index).
  for (const std::string& pk : schema.primary_key) {
    int ci = schema.ColumnIndex(pk);
    if (ci >= 0 && values[ci].is_null()) {
      out.push_back({pk, "PRIMARY KEY component is NULL"});
    }
  }
  // Referential integrity against carved referenced tables.
  for (const ForeignKey& fk : schema.foreign_keys) {
    int ci = schema.ColumnIndex(fk.column);
    if (ci < 0 || values[ci].is_null()) continue;
    const TableSchema* ref = carve.SchemaByName(fk.ref_table);
    if (ref == nullptr) continue;
    int ref_ci = ref->ColumnIndex(fk.ref_column);
    if (ref_ci < 0) continue;
    bool found = false;
    for (const CarvedRecord* r :
         carve.RecordsForTable(fk.ref_table, RowStatus::kActive)) {
      if (static_cast<size_t>(ref_ci) < r->values.size() &&
          r->values[ref_ci] == values[ci]) {
        found = true;
        break;
      }
    }
    if (!found) {
      out.push_back({fk.column,
                     StrFormat("FK %s -> %s.%s unmatched",
                               values[ci].ToString().c_str(),
                               fk.ref_table.c_str(), fk.ref_column.c_str())});
    }
  }
  return out;
}

Result<std::vector<HiddenRecord>> Steganographer::ExtractHidden(
    ByteView image) const {
  Carver carver(config_);
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, carver.Carve(image));
  std::vector<HiddenRecord> out;
  for (const CarvedRecord& r : carve.records) {
    if (r.status != RowStatus::kActive || !r.typed) continue;
    auto schema_it = carve.schemas.find(r.object_id);
    if (schema_it == carve.schemas.end()) continue;
    std::vector<ConstraintViolation> violations =
        FindViolations(carve, schema_it->second, r.values);
    if (!violations.empty()) out.emplace_back(carve, r, std::move(violations));
  }
  return out;
}

}  // namespace dbfa
