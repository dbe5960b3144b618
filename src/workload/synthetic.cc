#include "workload/synthetic.h"

#include <algorithm>

#include "common/strings.h"

namespace dbfa {
namespace {

const char* kOwners[] = {"Christine", "Christopher", "Thomas", "Jane",
                         "Joe",       "Maria",       "Ahmed",  "Wei",
                         "Olga",      "Carlos"};
const char* kCities[] = {"Chicago", "Seattle", "Austin", "Boston",
                         "Denver",  "Miami",   "Phoenix"};

}  // namespace

TableSchema AccountsSchema(const std::string& table) {
  TableSchema s;
  s.name = table;
  s.columns = {{"Id", ColumnType::kInt, 0, false},
               {"Owner", ColumnType::kVarchar, 24, true},
               {"City", ColumnType::kVarchar, 16, true},
               {"Balance", ColumnType::kDouble, 0, true}};
  s.primary_key = {"Id"};
  return s;
}

SyntheticWorkload::SyntheticWorkload(Database* db, std::string table,
                                     uint64_t seed)
    : db_(db), table_(std::move(table)), rng_(seed) {}

std::string SyntheticWorkload::RandomOwner() {
  return kOwners[rng_.NextU64() % (sizeof(kOwners) / sizeof(kOwners[0]))];
}

std::string SyntheticWorkload::RandomCity() {
  return kCities[rng_.NextU64() % (sizeof(kCities) / sizeof(kCities[0]))];
}

Status SyntheticWorkload::Setup(int rows) {
  DBFA_RETURN_IF_ERROR(db_->CreateTable(AccountsSchema(table_)));
  history_.push_back(
      {sql::CreateTableStmt{AccountsSchema(table_)}.ToSql(), true});
  for (int i = 0; i < rows; ++i) {
    std::string sql = StrFormat(
        "INSERT INTO %s VALUES (%lld, '%s', '%s', %lld.%02d)",
        table_.c_str(), static_cast<long long>(next_id_),
        RandomOwner().c_str(), RandomCity().c_str(),
        static_cast<long long>(rng_.Uniform(0, 9999)),
        static_cast<int>(rng_.Uniform(0, 99)));
    ++next_id_;
    DBFA_RETURN_IF_ERROR(RunStatement(sql, true));
  }
  return Status::Ok();
}

Status SyntheticWorkload::RunStatement(const std::string& sql, bool logged) {
  bool was_enabled = db_->audit_log().enabled();
  db_->audit_log().SetEnabled(logged);
  Status status = db_->ExecuteSql(sql).status();
  db_->audit_log().SetEnabled(was_enabled);
  if (status.ok()) history_.push_back({sql, logged});
  return status;
}

Status SyntheticWorkload::Run(int n, const OpMix& mix, bool logged) {
  double total = mix.insert_weight + mix.delete_weight + mix.update_weight +
                 mix.select_weight;
  for (int i = 0; i < n; ++i) {
    double dice = rng_.NextDouble() * total;
    std::string sql;
    if (dice < mix.insert_weight) {
      sql = StrFormat("INSERT INTO %s VALUES (%lld, '%s', '%s', %lld.%02d)",
                      table_.c_str(), static_cast<long long>(next_id_),
                      RandomOwner().c_str(), RandomCity().c_str(),
                      static_cast<long long>(rng_.Uniform(0, 9999)),
                      static_cast<int>(rng_.Uniform(0, 99)));
      ++next_id_;
    } else if (dice < mix.insert_weight + mix.delete_weight) {
      if (rng_.Bernoulli(0.7)) {
        sql = StrFormat("DELETE FROM %s WHERE Id = %lld", table_.c_str(),
                        static_cast<long long>(rng_.Uniform(1, next_id_)));
      } else {
        sql = StrFormat("DELETE FROM %s WHERE Owner = '%s' AND City = '%s'",
                        table_.c_str(), RandomOwner().c_str(),
                        RandomCity().c_str());
      }
    } else if (dice <
               mix.insert_weight + mix.delete_weight + mix.update_weight) {
      sql = StrFormat("UPDATE %s SET Balance = %lld.%02d WHERE Id = %lld",
                      table_.c_str(),
                      static_cast<long long>(rng_.Uniform(0, 9999)),
                      static_cast<int>(rng_.Uniform(0, 99)),
                      static_cast<long long>(rng_.Uniform(1, next_id_)));
    } else {
      if (rng_.Bernoulli(0.5)) {
        int64_t lo = rng_.Uniform(1, next_id_);
        sql = StrFormat("SELECT * FROM %s WHERE Id BETWEEN %lld AND %lld",
                        table_.c_str(), static_cast<long long>(lo),
                        static_cast<long long>(lo + 20));
      } else {
        sql = StrFormat("SELECT * FROM %s WHERE Owner = '%s'",
                        table_.c_str(), RandomOwner().c_str());
      }
    }
    DBFA_RETURN_IF_ERROR(RunStatement(sql, logged));
  }
  return Status::Ok();
}

// ---- byte-level tampering ------------------------------------------------------

namespace {

/// Flushes the pool, hands the caller the raw page bytes to mutate, then
/// drops the pool so the engine re-reads tampered storage.
Status WithRawPage(Database* db, uint32_t object_id, uint32_t page_id,
                   const std::function<Status(uint8_t*)>& mutate) {
  DBFA_RETURN_IF_ERROR(db->pager().pool().FlushAll());
  StorageFile* file = db->pager().file(object_id);
  if (file == nullptr || !file->Contains(page_id)) {
    return Status::NotFound("no such page to tamper with");
  }
  DBFA_RETURN_IF_ERROR(mutate(file->PageData(page_id)));
  return db->pager().pool().Clear();
}

}  // namespace

Result<Bytes> StringHeavyOrdersImage(int rows) {
  DatabaseOptions options;
  options.dialect = "postgres_like";
  options.buffer_pool_pages = std::max(512, rows / 20);
  DBFA_ASSIGN_OR_RETURN(auto db, Database::Open(options));
  DBFA_RETURN_IF_ERROR(
      db->ExecuteSql("CREATE TABLE Orders (OID INT NOT NULL, Customer "
                     "VARCHAR(32), City VARCHAR(32), Note VARCHAR(32), Status "
                     "VARCHAR(24), Channel VARCHAR(24), Region VARCHAR(24), "
                     "Clerk VARCHAR(24), Terminal VARCHAR(24), Carrier "
                     "VARCHAR(24), Origin VARCHAR(24), Handler VARCHAR(24), "
                     "Amount DOUBLE, PRIMARY KEY (OID))")
          .status());
  for (int i = 1; i <= rows;) {
    std::string sql = "INSERT INTO Orders VALUES ";
    for (int j = 0; j < 250 && i <= rows; ++j, ++i) {
      if (j > 0) sql += ", ";
      sql += StrFormat(
          "(%d, 'customer-account-%08d', 'metropolitan-district-%02d', "
          "'priority-handling-%03d', 'status-confirmed-%d', "
          "'channel-point-of-sale-%d', 'region-northwest-%02d', "
          "'clerk-identifier-%03d', 'terminal-station-%03d', "
          "'carrier-overnight-%02d', 'origin-warehouse-%02d', "
          "'handler-rotation-%02d', %d.25)",
          i, i, i % 24, i % 50, i % 4, i % 6, i % 12, i % 120, i % 200,
          i % 16, i % 32, i % 48, i % 400);
    }
    DBFA_RETURN_IF_ERROR(db->ExecuteSql(sql).status());
  }
  DBFA_RETURN_IF_ERROR(
      db->ExecuteSql(StrFormat("DELETE FROM Orders WHERE OID < %d", rows / 5))
          .status());
  return db->SnapshotDisk();
}

Status TamperOverwriteField(Database* db, const std::string& table,
                            RowPointer ptr, const std::string& column,
                            const Value& new_value, bool fix_checksum) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  int column_index = info->schema.ColumnIndex(column);
  if (column_index < 0) return Status::NotFound("no such column: " + column);
  const PageFormatter& fmt = db->pager().fmt();
  return WithRawPage(db, info->object_id, ptr.page_id, [&](uint8_t* page) {
    auto slot = fmt.GetSlot(page, ptr.slot);
    if (!slot.has_value()) return Status::NotFound("no such slot");
    ByteView view(page, fmt.page_size());
    DBFA_ASSIGN_OR_RETURN(ParsedRecord rec,
                          fmt.ParseRecordAt(view, slot->offset));
    DBFA_ASSIGN_OR_RETURN(Record values, fmt.DecodeTyped(rec, info->schema));
    values[column_index] = new_value;
    DBFA_ASSIGN_OR_RETURN(Bytes encoded,
                          fmt.EncodeRecord(info->schema, values, rec.row_id));
    if (encoded.size() != rec.length) {
      return Status::InvalidArgument(
          "tampered value must keep the record length");
    }
    // Preserve the delete mark the original carried (byte-identical swap
    // except for the field) by copying the whole re-encoded record: the
    // original is active in all tampering scenarios.
    CopyBytes(page + rec.offset, encoded.data(), encoded.size());
    if (fix_checksum) fmt.UpdateChecksum(page);
    return Status::Ok();
  });
}

Status TamperInsertRecord(Database* db, const std::string& table,
                          const Record& values, bool fix_checksum) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  const PageFormatter& fmt = db->pager().fmt();
  DBFA_ASSIGN_OR_RETURN(
      Bytes encoded,
      fmt.EncodeRecord(info->schema, values, /*row_id=*/999999));
  DBFA_RETURN_IF_ERROR(db->pager().pool().FlushAll());
  StorageFile* file = db->pager().file(info->object_id);
  if (file == nullptr) return Status::NotFound("table file missing");
  for (uint32_t page_id = 1; page_id <= file->page_count(); ++page_id) {
    uint8_t* page = file->PageData(page_id);
    if (fmt.TypeOf(page) != PageType::kData) continue;
    if (fmt.FreeSpace(page) < encoded.size()) continue;
    auto slot = fmt.InsertRecordBytes(page, encoded);
    if (!slot.ok()) continue;
    if (fix_checksum) fmt.UpdateChecksum(page);
    return db->pager().pool().Clear();
  }
  return Status::OutOfRange("no page has room for the smuggled record");
}

Status TamperEraseRecord(Database* db, const std::string& table,
                         RowPointer ptr, bool fix_checksum) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  const PageFormatter& fmt = db->pager().fmt();
  return WithRawPage(db, info->object_id, ptr.page_id, [&](uint8_t* page) {
    auto slot = fmt.GetSlot(page, ptr.slot);
    if (!slot.has_value()) return Status::NotFound("no such slot");
    ByteView view(page, fmt.page_size());
    DBFA_ASSIGN_OR_RETURN(ParsedRecord rec,
                          fmt.ParseRecordAt(view, slot->offset));
    std::memset(page + rec.offset, 0, rec.length);
    fmt.SetSlotTombstone(page, ptr.slot, true);
    if (fix_checksum) fmt.UpdateChecksum(page);
    return Status::Ok();
  });
}

}  // namespace dbfa
