#include "engine/database.h"

#include <algorithm>

#include "common/strings.h"
#include "sql/bound_expr.h"
#include "sql/parser.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {

Database::Database(const DatabaseOptions& options,
                   const PageLayoutParams& params)
    : options_(options),
      pager_(params, options.buffer_pool_pages),
      catalog_(&pager_),
      clock_(options.clock_start) {}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  PageLayoutParams params;
  if (options.custom_params.has_value()) {
    params = *options.custom_params;
    DBFA_RETURN_IF_ERROR(params.Validate());
  } else {
    DBFA_ASSIGN_OR_RETURN(params, GetDialect(options.dialect));
  }
  std::unique_ptr<Database> db(new Database(options, params));
  DBFA_RETURN_IF_ERROR(db->catalog_.Initialize());
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenFromCheckpoint(
    const std::string& dir, const DatabaseOptions& options) {
  DBFA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Open(options));
  const uint32_t page_size = db->params().page_size;
  // 1. Replace the (fresh) catalog file with the checkpointed one.
  DBFA_ASSIGN_OR_RETURN(StorageFile catalog_file,
                        StorageFile::LoadFrom(dir + "/catalog.dbf",
                                              page_size));
  db->pager_.file(kCatalogObjectId)->mutable_bytes() =
      catalog_file.bytes();
  db->pager_.pool().Discard();  // cached fresh-catalog frames are stale
  // Rebuild the in-memory catalog from the stored records.
  db->catalog_ = Catalog(&db->pager_);
  DBFA_RETURN_IF_ERROR(db->catalog_.Initialize());
  TableHeap catalog_heap(&db->pager_, kCatalogObjectId, CatalogSchema(),
                         2.0);
  struct Row {
    std::string type;
    std::string name;
    uint32_t object_id;
    uint32_t table_object_id;
    uint32_t root;
    std::string info;
  };
  std::vector<Row> rows;
  DBFA_RETURN_IF_ERROR(
      catalog_heap.Scan([&](RowPointer, const Record& rec) {
        rows.push_back(
            {std::string(rec[0].as_string()), std::string(rec[1].as_string()),
             static_cast<uint32_t>(rec[2].as_int()),
             static_cast<uint32_t>(rec[3].as_int()),
             static_cast<uint32_t>(rec[4].as_int()),
             rec[5].is_null() ? "" : std::string(rec[5].as_string())});
        return Status::Ok();
      }));
  // 2. Attach object files. Catalog-record order gives names; file names
  //    follow the ExportFiles convention.
  std::map<uint32_t, std::string> object_names;  // id -> schema/table name
  std::map<uint32_t, const Row*> index_rows;
  for (const Row& row : rows) {
    if (row.type == kCatalogTypeTable) object_names[row.object_id] = row.name;
  }
  uint32_t max_object = kCatalogObjectId;
  for (const Row& row : rows) {
    max_object = std::max(max_object, row.object_id);
  }
  // Create placeholder objects densely so ids line up, then load bytes.
  while (db->pager_.max_object_id() < max_object) {
    db->pager_.CreateObject();
  }
  for (const Row& row : rows) {
    std::string path;
    if (row.type == kCatalogTypeTable) {
      path = dir + "/" + row.name + ".dbf";
    } else if (row.type == kCatalogTypeIndex) {
      auto it = object_names.find(row.table_object_id);
      if (it == object_names.end()) continue;  // dropped table's index
      path = dir + "/" + it->second + "." + row.name + ".dbf";
    }
    auto file = StorageFile::LoadFrom(path, page_size);
    if (!file.ok()) continue;  // dropped objects have no current file name
    db->pager_.file(row.object_id)->mutable_bytes() = file->bytes();
  }
  db->pager_.pool().Discard();
  // 3. Mirror the catalog state in memory via the Catalog API (without
  //    re-writing storage): re-scan and register.
  for (const Row& row : rows) {
    if (row.type != kCatalogTypeTable) continue;
    auto schema = TableSchema::Deserialize(row.info);
    if (!schema.ok()) continue;
    if (db->catalog_.Find(schema->name) != nullptr) continue;
    db->catalog_.RegisterLoadedTable(*schema, row.object_id, row.root);
  }
  for (const Row& row : rows) {
    if (row.type != kCatalogTypeIndex) continue;
    auto name_it = object_names.find(row.table_object_id);
    if (name_it == object_names.end()) continue;
    const TableInfo* info = db->catalog_.Find(name_it->second);
    if (info == nullptr) continue;
    bool already = false;
    for (const IndexInfo& idx : info->indexes) {
      if (EqualsIgnoreCase(idx.name, row.name)) already = true;
    }
    if (already) continue;
    IndexInfo index;
    index.name = row.name;
    index.object_id = row.object_id;
    index.root_page = row.root;
    for (const std::string& col : Split(row.info, ',')) {
      if (!col.empty()) index.columns.push_back(col);
    }
    db->catalog_.RegisterLoadedIndex(name_it->second, index);
  }
  DBFA_RETURN_IF_ERROR(db->RecoverCounters());
  // 4. Audit log, when checkpointed alongside.
  auto log = AuditLog::LoadFrom(dir + "/audit.log");
  if (log.ok()) db->audit_log_ = std::move(log).value();
  return db;
}

Status Database::RecoverCounters() {
  const PageFormatter& fmt = pager_.fmt();
  uint64_t max_lsn = 0;
  uint64_t max_row_id = 0;
  for (uint32_t object_id = 1; object_id <= pager_.max_object_id();
       ++object_id) {
    StorageFile* file = pager_.file(object_id);
    if (file == nullptr) continue;
    for (uint32_t page_id = 1; page_id <= file->page_count(); ++page_id) {
      const uint8_t* page = file->PageData(page_id);
      if (!fmt.HasMagic(page)) continue;
      max_lsn = std::max(max_lsn, fmt.Lsn(page));
      if (!params().stores_row_id || fmt.TypeOf(page) != PageType::kData) {
        continue;
      }
      ByteView view(page, params().page_size);
      for (uint16_t s = 0; s < fmt.RecordCount(page); ++s) {
        auto slot = fmt.GetSlot(page, s);
        if (!slot.has_value()) continue;
        auto rec = fmt.ParseRecordAt(view, slot->offset);
        if (rec.ok()) max_row_id = std::max(max_row_id, rec->row_id);
      }
    }
  }
  pager_.RestoreLsn(max_lsn);
  if (max_row_id >= next_row_id_) next_row_id_ = max_row_id + 1;
  return Status::Ok();
}

Status Database::LogStatement(const std::string& sql) {
  audit_log_.Append(clock_.Now(), sql);
  return Status::Ok();
}

TableHeap* Database::HeapFor(const TableInfo& info) {
  auto it = heaps_.find(info.object_id);
  if (it != heaps_.end()) return it->second.get();
  auto heap = std::make_unique<TableHeap>(&pager_, info.object_id,
                                          info.schema,
                                          options_.page_reuse_threshold);
  TableHeap* raw = heap.get();
  heaps_[info.object_id] = std::move(heap);
  return raw;
}

BTree* Database::TreeFor(const TableInfo& info, const IndexInfo& index) {
  auto it = btrees_.find(index.object_id);
  if (it != btrees_.end()) return it->second.get();
  std::vector<int> key_columns;
  for (const std::string& col : index.columns) {
    key_columns.push_back(info.schema.ColumnIndex(col));
  }
  auto tree = std::make_unique<BTree>(&pager_, index.object_id, index.name,
                                      std::move(key_columns));
  tree->set_root(index.root_page);
  BTree* raw = tree.get();
  btrees_[index.object_id] = std::move(tree);
  return raw;
}

TableHeap* Database::heap(const std::string& table) {
  const TableInfo* info = catalog_.Find(table);
  return info == nullptr ? nullptr : HeapFor(*info);
}

BTree* Database::index(const std::string& table,
                       const std::string& index_name) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return nullptr;
  for (const IndexInfo& idx : info->indexes) {
    if (EqualsIgnoreCase(idx.name, index_name)) return TreeFor(*info, idx);
  }
  return nullptr;
}

// ---- DDL --------------------------------------------------------------------

Status Database::DoCreateTable(const TableSchema& schema) {
  if (schema.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    for (size_t j = i + 1; j < schema.columns.size(); ++j) {
      if (EqualsIgnoreCase(schema.columns[i].name, schema.columns[j].name)) {
        return Status::InvalidArgument("duplicate column: " +
                                       schema.columns[i].name);
      }
    }
  }
  for (const std::string& pk : schema.primary_key) {
    if (schema.ColumnIndex(pk) < 0) {
      return Status::InvalidArgument("PRIMARY KEY on unknown column: " + pk);
    }
  }
  if (catalog_.Find(schema.name) != nullptr) {
    return Status::AlreadyExists("table exists: " + schema.name);
  }
  uint32_t object_id = pager_.CreateObject();
  auto heap = std::make_unique<TableHeap>(&pager_, object_id, schema,
                                          options_.page_reuse_threshold);
  DBFA_RETURN_IF_ERROR(heap->EnsureInitialized());
  DBFA_RETURN_IF_ERROR(
      catalog_.AddTable(schema, object_id, heap->first_page()));
  heaps_[object_id] = std::move(heap);
  // Every DBMS creates an index on the primary key columns (Section II-D).
  if (!schema.primary_key.empty()) {
    DBFA_RETURN_IF_ERROR(DoCreateIndex("pk_" + schema.name, schema.name,
                                       schema.primary_key));
  }
  return Status::Ok();
}

Status Database::DoCreateIndex(const std::string& name,
                               const std::string& table,
                               const std::vector<std::string>& columns) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  std::vector<int> key_columns;
  for (const std::string& col : columns) {
    int idx = info->schema.ColumnIndex(col);
    if (idx < 0) {
      return Status::InvalidArgument("index on unknown column: " + col);
    }
    key_columns.push_back(idx);
  }
  uint32_t object_id = pager_.CreateObject();
  auto tree = std::make_unique<BTree>(&pager_, object_id, name, key_columns);
  DBFA_RETURN_IF_ERROR(tree->Create());

  IndexInfo index;
  index.name = name;
  index.object_id = object_id;
  index.root_page = tree->root();
  index.columns = columns;
  DBFA_RETURN_IF_ERROR(catalog_.AddIndex(table, index));

  // Index any existing rows.
  TableHeap* heap = HeapFor(*info);
  BTree* raw = tree.get();
  btrees_[object_id] = std::move(tree);
  DBFA_RETURN_IF_ERROR(heap->Scan([&](RowPointer ptr, const Record& rec) {
    return raw->Insert(raw->ExtractKeys(rec), ptr);
  }));
  if (raw->root() != index.root_page) {
    DBFA_RETURN_IF_ERROR(catalog_.UpdateIndexRoot(table, name, raw->root()));
  }
  return Status::Ok();
}

Status Database::DoDropTable(const std::string& table) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  heaps_.erase(info->object_id);
  for (const IndexInfo& index : info->indexes) {
    btrees_.erase(index.object_id);
  }
  // Catalog records are delete-marked; all pages stay on disk (the
  // "deleted pages" evidence category).
  return catalog_.DropTable(table);
}

// ---- constraints ------------------------------------------------------------

Status Database::CheckConstraints(const TableInfo& info,
                                  const Record& record,
                                  const RowPointer* self) {
  const TableSchema& schema = info.schema;
  if (!schema.TypeCheck(record)) {
    return Status::InvalidArgument("record does not match schema " +
                                   schema.name);
  }
  if (!options_.enforce_constraints) return Status::Ok();
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    const Column& col = schema.columns[i];
    if (!col.nullable && record[i].is_null()) {
      return Status::InvalidArgument("NOT NULL violated: " + col.name);
    }
    if (col.type == ColumnType::kVarchar && col.max_length > 0 &&
        !record[i].is_null() &&
        record[i].as_string().size() > col.max_length) {
      return Status::InvalidArgument(
          StrFormat("domain constraint violated: %s VARCHAR(%u)",
                    col.name.c_str(), col.max_length));
    }
  }
  // Primary key: non-null and unique.
  if (!schema.primary_key.empty()) {
    std::vector<Value> pk_values;
    for (const std::string& pk : schema.primary_key) {
      const Value& v = record[schema.ColumnIndex(pk)];
      if (v.is_null()) {
        return Status::InvalidArgument("PRIMARY KEY column is NULL: " + pk);
      }
      pk_values.push_back(v);
    }
    if (BTree* pk_index = index(schema.name, "pk_" + schema.name)) {
      DBFA_ASSIGN_OR_RETURN(auto hits, pk_index->SearchEqual(pk_values));
      TableHeap* heap = HeapFor(info);
      for (RowPointer ptr : hits) {
        if (self != nullptr && ptr == *self) continue;
        DBFA_ASSIGN_OR_RETURN(auto existing, heap->Fetch(ptr));
        if (!existing.has_value()) continue;  // stale entry
        // Verify the live record still carries these key values.
        bool same = true;
        for (size_t k = 0; k < schema.primary_key.size(); ++k) {
          int ci = schema.ColumnIndex(schema.primary_key[k]);
          if (!((*existing)[ci] == pk_values[k])) {
            same = false;
            break;
          }
        }
        if (same) {
          return Status::AlreadyExists("PRIMARY KEY violated: " +
                                       RecordToString(pk_values));
        }
      }
    }
  }
  // Foreign keys: the referenced value must exist and be active.
  for (const ForeignKey& fk : schema.foreign_keys) {
    int ci = schema.ColumnIndex(fk.column);
    if (ci < 0 || record[ci].is_null()) continue;
    const TableInfo* ref = catalog_.Find(fk.ref_table);
    if (ref == nullptr) {
      return Status::FailedPrecondition("FK references missing table: " +
                                        fk.ref_table);
    }
    int ref_ci = ref->schema.ColumnIndex(fk.ref_column);
    if (ref_ci < 0) {
      return Status::FailedPrecondition("FK references missing column: " +
                                        fk.ref_column);
    }
    bool found = false;
    bool used_index = false;
    // Prefer an index whose leading column is the referenced column.
    for (const IndexInfo& idx : ref->indexes) {
      if (!EqualsIgnoreCase(idx.columns[0], fk.ref_column)) continue;
      used_index = true;
      BTree* tree = TreeFor(*ref, idx);
      DBFA_ASSIGN_OR_RETURN(
          auto hits, tree->SearchRangeLeading(record[ci], record[ci]));
      TableHeap* ref_heap = HeapFor(*ref);
      for (const BTree::Entry& e : hits) {
        DBFA_ASSIGN_OR_RETURN(auto row, ref_heap->Fetch(e.pointer));
        if (row.has_value() && (*row)[ref_ci] == record[ci]) {
          found = true;
          break;
        }
      }
      break;
    }
    if (!used_index) {
      // Fall back to a full scan of the referenced table.
      DBFA_RETURN_IF_ERROR(
          HeapFor(*ref)->Scan([&](RowPointer, const Record& row) {
            if (row[ref_ci] == record[ci]) found = true;
            return Status::Ok();
          }));
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("referential integrity violated: %s.%s -> %s.%s",
                    schema.name.c_str(), fk.column.c_str(),
                    fk.ref_table.c_str(), fk.ref_column.c_str()));
    }
  }
  return Status::Ok();
}

// ---- DML --------------------------------------------------------------------

Status Database::InsertIndexEntries(const TableInfo& info,
                                    const Record& record, RowPointer ptr) {
  for (const IndexInfo& index : info.indexes) {
    BTree* tree = TreeFor(info, index);
    uint32_t old_root = tree->root();
    DBFA_RETURN_IF_ERROR(tree->Insert(tree->ExtractKeys(record), ptr));
    if (tree->root() != old_root) {
      DBFA_RETURN_IF_ERROR(catalog_.UpdateIndexRoot(
          info.schema.name, index.name, tree->root()));
    }
  }
  return Status::Ok();
}

Result<RowPointer> Database::DoInsert(const std::string& table,
                                      const Record& record) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  DBFA_RETURN_IF_ERROR(CheckConstraints(*info, record));
  TableHeap* heap = HeapFor(*info);
  DBFA_ASSIGN_OR_RETURN(RowPointer ptr, heap->Insert(record, next_row_id_++));
  DBFA_RETURN_IF_ERROR(InsertIndexEntries(*info, record, ptr));
  return ptr;
}

std::optional<Database::IndexBounds> Database::ChooseIndex(
    const TableInfo& info, const sql::Expr* where) {
  if (where == nullptr) return std::nullopt;
  // Collect conjunctive comparisons column-vs-literal.
  struct Bound {
    std::string column;
    sql::CompareOp op;
    Value literal;
  };
  std::vector<Bound> bounds;
  std::vector<const sql::Expr*> stack = {where};
  while (!stack.empty()) {
    const sql::Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == sql::ExprKind::kAnd) {
      stack.push_back(e->lhs.get());
      stack.push_back(e->rhs.get());
      continue;
    }
    if (e->kind != sql::ExprKind::kCompare) continue;
    const sql::Expr* l = e->lhs.get();
    const sql::Expr* r = e->rhs.get();
    if (l->kind == sql::ExprKind::kColumn &&
        r->kind == sql::ExprKind::kLiteral) {
      bounds.push_back({l->column, e->compare_op, r->literal});
    } else if (r->kind == sql::ExprKind::kColumn &&
               l->kind == sql::ExprKind::kLiteral) {
      // Mirror the comparison: 5 < col  ==  col > 5.
      sql::CompareOp op = e->compare_op;
      switch (e->compare_op) {
        case sql::CompareOp::kLt:
          op = sql::CompareOp::kGt;
          break;
        case sql::CompareOp::kLe:
          op = sql::CompareOp::kGe;
          break;
        case sql::CompareOp::kGt:
          op = sql::CompareOp::kLt;
          break;
        case sql::CompareOp::kGe:
          op = sql::CompareOp::kLe;
          break;
        default:
          break;
      }
      bounds.push_back({r->column, op, l->literal});
    }
  }
  auto bare = [](const std::string& name) {
    size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(dot + 1);
  };
  for (const IndexInfo& index : info.indexes) {
    IndexBounds found;
    for (const Bound& b : bounds) {
      if (!EqualsIgnoreCase(bare(b.column), index.columns[0])) continue;
      switch (b.op) {
        case sql::CompareOp::kEq:
          found.lo = b.literal;
          found.hi = b.literal;
          break;
        case sql::CompareOp::kGt:
        case sql::CompareOp::kGe:
          if (!found.lo.has_value() ||
              Value::Compare(b.literal, *found.lo) > 0) {
            found.lo = b.literal;
          }
          break;
        case sql::CompareOp::kLt:
        case sql::CompareOp::kLe:
          if (!found.hi.has_value() ||
              Value::Compare(b.literal, *found.hi) < 0) {
            found.hi = b.literal;
          }
          break;
        case sql::CompareOp::kNe:
          break;
      }
    }
    if (found.lo.has_value() || found.hi.has_value()) {
      found.index = &index;
      return found;
    }
  }
  return std::nullopt;
}

Result<std::vector<std::pair<RowPointer, Record>>> Database::MatchRows(
    const TableInfo& info, const sql::ExprPtr& where,
    const std::string& qualifier) {
  // Bind once per statement: an unknown column fails here, before any row
  // is read, whether or not the table has rows.
  sql::BoundExprPtr bound;
  if (where != nullptr) {
    sql::ColumnResolver resolver =
        sql::MakeSchemaResolver(info.schema.ColumnNames(), qualifier);
    DBFA_ASSIGN_OR_RETURN(bound, sql::BindExpr(*where, resolver));
  }
  auto matches = [&](const Record& row) -> Result<bool> {
    if (bound == nullptr) return true;
    return sql::EvalBoundPredicate(*bound, row);
  };
  std::vector<std::pair<RowPointer, Record>> out;
  TableHeap* heap = HeapFor(info);

  auto bounds = ChooseIndex(info, where.get());
  if (bounds.has_value()) {
    last_access_path_ = AccessPath::kIndexScan;
    BTree* tree = TreeFor(info, *bounds->index);
    DBFA_ASSIGN_OR_RETURN(auto entries,
                          tree->SearchRangeLeading(bounds->lo, bounds->hi));
    for (const BTree::Entry& e : entries) {
      DBFA_ASSIGN_OR_RETURN(auto row, heap->Fetch(e.pointer));
      if (!row.has_value()) continue;  // stale entry -> deleted record
      // Stale entries can also point at a *reused* slot; verify keys.
      std::vector<Value> live_keys = tree->ExtractKeys(*row);
      if (CompareRecords(live_keys, e.keys) != 0) continue;
      DBFA_ASSIGN_OR_RETURN(bool match, matches(*row));
      if (match) out.emplace_back(e.pointer, *row);
    }
    // Index scans can return rows in key order with duplicates from stale
    // entries already filtered; physical order is not guaranteed.
    return out;
  }

  last_access_path_ = AccessPath::kFullScan;
  Status scan = heap->Scan([&](RowPointer ptr, const Record& row) {
    DBFA_ASSIGN_OR_RETURN(bool match, matches(row));
    if (match) out.emplace_back(ptr, row);
    return Status::Ok();
  });
  DBFA_RETURN_IF_ERROR(scan);
  return out;
}

Result<int64_t> Database::DoDelete(const std::string& table,
                                   const sql::ExprPtr& where) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  DBFA_ASSIGN_OR_RETURN(auto rows, MatchRows(*info, where, table));
  TableHeap* heap = HeapFor(*info);
  for (const auto& [ptr, record] : rows) {
    // Deletion marks the record only; index entries survive ("only records
    // but not index values are deleted", Section II-A).
    DBFA_RETURN_IF_ERROR(heap->Delete(ptr));
  }
  return static_cast<int64_t>(rows.size());
}

Result<int64_t> Database::DoUpdate(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& assignments,
    const sql::ExprPtr& where) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  for (const auto& [col, value] : assignments) {
    if (info->schema.ColumnIndex(col) < 0) {
      return Status::InvalidArgument("unknown column in SET: " + col);
    }
  }
  DBFA_ASSIGN_OR_RETURN(auto rows, MatchRows(*info, where, table));
  TableHeap* heap = HeapFor(*info);
  for (const auto& [ptr, record] : rows) {
    Record updated = record;
    for (const auto& [col, value] : assignments) {
      updated[info->schema.ColumnIndex(col)] = value;
    }
    DBFA_RETURN_IF_ERROR(CheckConstraints(*info, updated, &ptr));
    // UPDATE is delete + insert: the pre-image becomes a deleted record
    // (the "old version of an UPDATE" evidence of Section II-A).
    DBFA_RETURN_IF_ERROR(heap->Delete(ptr));
    DBFA_ASSIGN_OR_RETURN(RowPointer new_ptr,
                          heap->Insert(updated, next_row_id_++));
    DBFA_RETURN_IF_ERROR(InsertIndexEntries(*info, updated, new_ptr));
  }
  return static_cast<int64_t>(rows.size());
}

Result<QueryResult> Database::DoSelect(const sql::SelectStmt& stmt) {
  if (!stmt.joins.empty() || stmt.HasAggregates() || !stmt.group_by.empty()) {
    return Status::Unimplemented(
        "joins/aggregates are served by the meta-query engine");
  }
  const TableInfo* info = catalog_.Find(stmt.from.table);
  if (info == nullptr) {
    return Status::NotFound("no such table: " + stmt.from.table);
  }
  const std::string& qualifier = stmt.from.EffectiveName();
  DBFA_ASSIGN_OR_RETURN(auto rows, MatchRows(*info, stmt.where, qualifier));

  QueryResult result;
  std::vector<std::string> names = info->schema.ColumnNames();
  // Bind projections once.
  sql::ColumnResolver resolver = sql::MakeSchemaResolver(names, qualifier);
  std::vector<sql::BoundExprPtr> exprs;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      for (const std::string& n : names) result.columns.push_back(n);
      exprs.push_back(nullptr);  // marker: expand all
    } else {
      result.columns.push_back(item.OutputName());
      DBFA_ASSIGN_OR_RETURN(exprs.emplace_back(),
                            sql::BindExpr(*item.expr, resolver));
    }
  }
  for (const auto& [ptr, row] : rows) {
    Record out_row;
    for (const sql::BoundExprPtr& e : exprs) {
      if (e == nullptr) {
        for (const Value& v : row) out_row.push_back(v);
      } else {
        DBFA_ASSIGN_OR_RETURN(Value v, sql::EvalBound(*e, row));
        out_row.push_back(std::move(v));
      }
    }
    result.rows.push_back(std::move(out_row));
  }
  // ORDER BY over output columns.
  if (!stmt.order_by.empty()) {
    std::vector<int> order_idx;
    std::vector<bool> order_desc;
    for (const sql::OrderKey& key : stmt.order_by) {
      int idx = -1;
      for (size_t i = 0; i < result.columns.size(); ++i) {
        if (EqualsIgnoreCase(result.columns[i], key.column)) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        return Status::InvalidArgument("ORDER BY unknown column: " +
                                       key.column);
      }
      order_idx.push_back(idx);
      order_desc.push_back(key.descending);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Record& a, const Record& b) {
                       for (size_t k = 0; k < order_idx.size(); ++k) {
                         int c = Value::Compare(a[order_idx[k]],
                                                b[order_idx[k]]);
                         if (c != 0) return order_desc[k] ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Status Database::DoVacuum(const std::string& table) {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  TableHeap* heap = HeapFor(*info);
  DBFA_RETURN_IF_ERROR(heap->Vacuum());
  // Record locations moved; rebuild every index (old index pages are
  // orphaned in place, exactly like a real REINDEX).
  for (const IndexInfo& index : info->indexes) {
    BTree* tree = TreeFor(*info, index);
    DBFA_RETURN_IF_ERROR(tree->Rebuild(heap));
    DBFA_RETURN_IF_ERROR(catalog_.UpdateIndexRoot(info->schema.name,
                                                  index.name, tree->root()));
  }
  return Status::Ok();
}

// ---- logged wrappers -------------------------------------------------------

Status Database::CreateTable(const TableSchema& schema) {
  DBFA_RETURN_IF_ERROR(DoCreateTable(schema));
  sql::CreateTableStmt stmt;
  stmt.schema = schema;
  return LogStatement(stmt.ToSql());
}

Status Database::CreateIndex(const std::string& name,
                             const std::string& table,
                             const std::vector<std::string>& columns) {
  DBFA_RETURN_IF_ERROR(DoCreateIndex(name, table, columns));
  sql::CreateIndexStmt stmt;
  stmt.index_name = name;
  stmt.table = table;
  stmt.columns = columns;
  return LogStatement(stmt.ToSql());
}

Status Database::DropTable(const std::string& table) {
  DBFA_RETURN_IF_ERROR(DoDropTable(table));
  sql::DropTableStmt stmt;
  stmt.table = table;
  return LogStatement(stmt.ToSql());
}

Result<RowPointer> Database::Insert(const std::string& table,
                                    const Record& record) {
  DBFA_ASSIGN_OR_RETURN(RowPointer ptr, DoInsert(table, record));
  sql::InsertStmt stmt;
  stmt.table = table;
  stmt.rows = {record};
  DBFA_RETURN_IF_ERROR(LogStatement(stmt.ToSql()));
  return ptr;
}

Result<int64_t> Database::Delete(const std::string& table,
                                 sql::ExprPtr where) {
  DBFA_ASSIGN_OR_RETURN(int64_t n, DoDelete(table, where));
  sql::DeleteStmt stmt;
  stmt.table = table;
  stmt.where = std::move(where);
  DBFA_RETURN_IF_ERROR(LogStatement(stmt.ToSql()));
  return n;
}

Result<int64_t> Database::Update(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& assignments,
    sql::ExprPtr where) {
  DBFA_ASSIGN_OR_RETURN(int64_t n, DoUpdate(table, assignments, where));
  sql::UpdateStmt stmt;
  stmt.table = table;
  stmt.assignments = assignments;
  stmt.where = std::move(where);
  DBFA_RETURN_IF_ERROR(LogStatement(stmt.ToSql()));
  return n;
}

Result<QueryResult> Database::Select(const sql::SelectStmt& stmt) {
  DBFA_ASSIGN_OR_RETURN(QueryResult result, DoSelect(stmt));
  DBFA_RETURN_IF_ERROR(LogStatement(stmt.ToSql()));
  return result;
}

Status Database::Vacuum(const std::string& table) {
  DBFA_RETURN_IF_ERROR(DoVacuum(table));
  sql::VacuumStmt stmt;
  stmt.table = table;
  return LogStatement(stmt.ToSql());
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql_text) {
  DBFA_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql_text));
  QueryResult result;
  if (auto* create = std::get_if<sql::CreateTableStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(DoCreateTable(create->schema));
  } else if (auto* ci = std::get_if<sql::CreateIndexStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(DoCreateIndex(ci->index_name, ci->table,
                                       ci->columns));
  } else if (auto* drop = std::get_if<sql::DropTableStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(DoDropTable(drop->table));
  } else if (auto* ins = std::get_if<sql::InsertStmt>(&stmt)) {
    for (const Record& row : ins->rows) {
      DBFA_RETURN_IF_ERROR(DoInsert(ins->table, row).status());
    }
  } else if (auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(
        DoUpdate(up->table, up->assignments, up->where).status());
  } else if (auto* del = std::get_if<sql::DeleteStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(DoDelete(del->table, del->where).status());
  } else if (auto* sel = std::get_if<sql::SelectStmt>(&stmt)) {
    DBFA_ASSIGN_OR_RETURN(result, DoSelect(*sel));
  } else if (auto* vac = std::get_if<sql::VacuumStmt>(&stmt)) {
    DBFA_RETURN_IF_ERROR(DoVacuum(vac->table));
  } else {
    return Status::Unimplemented("unsupported statement");
  }
  DBFA_RETURN_IF_ERROR(LogStatement(sql_text));
  return result;
}

Status Database::AttachExternalTable(const TableSchema& schema,
                                     const Bytes& file) {
  const PageFormatter& fmt = pager_.fmt();
  const uint32_t page_size = params().page_size;
  if (file.empty() || file.size() % page_size != 0) {
    return Status::InvalidArgument(
        "external file must be a non-empty multiple of the page size");
  }
  if (catalog_.Find(schema.name) != nullptr) {
    return Status::AlreadyExists("table exists: " + schema.name);
  }
  uint32_t page_count = static_cast<uint32_t>(file.size() / page_size);
  // Validate before mutating anything.
  for (uint32_t i = 0; i < page_count; ++i) {
    const uint8_t* page = file.data() + static_cast<size_t>(i) * page_size;
    if (!fmt.HasMagic(page) || fmt.PageId(page) != i + 1 ||
        fmt.TypeOf(page) != PageType::kData) {
      return Status::InvalidArgument(
          StrFormat("external file page %u is not a valid data page", i + 1));
    }
  }
  uint32_t object_id = pager_.CreateObject();
  StorageFile* dest = pager_.file(object_id);
  dest->mutable_bytes() = file;
  // The "minor changes": stamp the new object id and repair checksums.
  uint64_t max_row_id = 0;
  for (uint32_t i = 1; i <= page_count; ++i) {
    uint8_t* page = dest->PageData(i);
    WriteU32(page + params().object_id_offset, object_id,
             params().big_endian);
    ByteView view(page, page_size);
    for (uint16_t s = 0; s < fmt.RecordCount(page); ++s) {
      auto slot = fmt.GetSlot(page, s);
      if (!slot.has_value()) continue;
      auto rec = fmt.ParseRecordAt(view, slot->offset);
      if (rec.ok()) max_row_id = std::max(max_row_id, rec->row_id);
    }
    fmt.UpdateChecksum(page);
  }
  if (max_row_id >= next_row_id_) next_row_id_ = max_row_id + 1;

  DBFA_RETURN_IF_ERROR(catalog_.AddTable(schema, object_id, 1));
  auto heap = std::make_unique<TableHeap>(&pager_, object_id, schema,
                                          options_.page_reuse_threshold);
  DBFA_RETURN_IF_ERROR(heap->EnsureInitialized());
  heaps_[object_id] = std::move(heap);
  if (!schema.primary_key.empty()) {
    DBFA_RETURN_IF_ERROR(DoCreateIndex("pk_" + schema.name, schema.name,
                                       schema.primary_key));
  }
  sql::CreateTableStmt stmt;
  stmt.schema = schema;
  return LogStatement(stmt.ToSql());
}

// ---- forensic surfaces -----------------------------------------------------

Result<Bytes> Database::SnapshotDisk() { return pager_.SnapshotDisk(); }

Result<std::vector<std::pair<std::string, Bytes>>> Database::ExportFiles() {
  DBFA_RETURN_IF_ERROR(pager_.pool().FlushAll());
  // Build object-id -> name map from the catalog.
  std::map<uint32_t, std::string> names;
  names[kCatalogObjectId] = "catalog";
  for (const auto& [key, info] : catalog_.tables()) {
    names[info.object_id] = info.schema.name;
    for (const IndexInfo& index : info.indexes) {
      names[index.object_id] = info.schema.name + "." + index.name;
    }
  }
  std::vector<std::pair<std::string, Bytes>> out;
  for (uint32_t id = 1; id <= pager_.max_object_id(); ++id) {
    const StorageFile* f = pager_.file(id);
    if (f == nullptr) continue;
    std::string name = names.count(id) != 0
                           ? names[id]
                           : StrFormat("object_%u", id);
    out.emplace_back(name + ".dbf", f->bytes());
  }
  return out;
}

Status Database::Checkpoint(const std::string& dir) {
  DBFA_ASSIGN_OR_RETURN(auto files, ExportFiles());
  for (const auto& [name, bytes] : files) {
    DBFA_RETURN_IF_ERROR(SaveImage(dir + "/" + name, bytes));
  }
  return audit_log_.SaveTo(dir + "/audit.log");
}

}  // namespace dbfa
