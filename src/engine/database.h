// MiniDB: the row-store DBMS substrate the paper's tools are exercised
// against. It is a real (if small) engine — slotted pages in one of eight
// dialect formats, heap tables, B-Tree indexes, a page-resident system
// catalog, an LRU buffer pool, an audit log, and a virtual server clock —
// because every forensic method in the paper consumes its *byte-level*
// storage, not its API.
#ifndef DBFA_ENGINE_DATABASE_H_
#define DBFA_ENGINE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/audit_log.h"
#include "engine/btree.h"
#include "engine/catalog.h"
#include "engine/clock.h"
#include "engine/pager.h"
#include "engine/table_heap.h"
#include "sql/statement.h"

namespace dbfa {

struct DatabaseOptions {
  /// Built-in dialect name (storage/dialects.h).
  std::string dialect = "postgres_like";
  /// When set, overrides `dialect` with an arbitrary (validated) layout —
  /// used to exercise the parameter collector against engines outside the
  /// built-in eight.
  std::optional<PageLayoutParams> custom_params;
  size_t buffer_pool_pages = 128;
  /// Deleted fraction at which a fully-dead page may be compacted and
  /// reused. Values > 1 disable reuse (deleted records persist until
  /// VACUUM) — the Oracle-style behaviour Section III-D highlights.
  double page_reuse_threshold = 2.0;
  /// Domain / NOT NULL / primary-key / foreign-key enforcement.
  bool enforce_constraints = true;
  int64_t clock_start = 1'000'000;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Record> rows;
};

/// How the last Select/Delete/Update located its rows (test/bench
/// introspection; the caching consequences are what DBDetective inspects).
enum class AccessPath { kNone, kFullScan, kIndexScan };

class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);

  /// Reopens a database from a Checkpoint() directory: loads the catalog
  /// file, rebuilds the schema/index registry from its records, and
  /// attaches every object file. The audit log is restored from
  /// `dir`/audit.log when present.
  static Result<std::unique_ptr<Database>> OpenFromCheckpoint(
      const std::string& dir, const DatabaseOptions& options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ---- SQL surface (logged to the audit log when enabled) ----------------

  Status CreateTable(const TableSchema& schema);
  Status CreateIndex(const std::string& name, const std::string& table,
                     const std::vector<std::string>& columns);
  Status DropTable(const std::string& table);
  Result<RowPointer> Insert(const std::string& table, const Record& record);
  Result<int64_t> Delete(const std::string& table, sql::ExprPtr where);
  Result<int64_t> Update(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& assignments,
      sql::ExprPtr where);
  Result<QueryResult> Select(const sql::SelectStmt& stmt);
  Status Vacuum(const std::string& table);

  /// Parses and executes one statement, logging the original text.
  /// SELECTs with joins/aggregates are served by the meta-query engine
  /// (metaquery/), not here.
  Result<QueryResult> ExecuteSql(const std::string& sql_text);

  /// Section IV-b: attaches an externally built heap file (whole data
  /// pages, ids 1..n — see core/page_builder.h) as a new table. Performs
  /// the paper's "minor changes to system and file metadata": rewrites
  /// each page's object-id field, repairs checksums, registers the table
  /// in the catalog, and builds the primary-key index.
  Status AttachExternalTable(const TableSchema& schema, const Bytes& file);

  // ---- forensic surfaces ---------------------------------------------------

  /// Flushes the buffer pool and returns all object files concatenated —
  /// the "disk image" input to the carver.
  Result<Bytes> SnapshotDisk();

  /// Buffer-pool frame dump — the "RAM snapshot" input to the carver.
  Bytes SnapshotRam() const { return pager_.pool().SnapshotRam(); }

  /// (file name, bytes) for every object, catalog first. Flushes the pool.
  Result<std::vector<std::pair<std::string, Bytes>>> ExportFiles();

  /// Writes object files plus audit.log into `dir` (must exist).
  Status Checkpoint(const std::string& dir);

  // ---- components ---------------------------------------------------------

  AuditLog& audit_log() { return audit_log_; }
  ManualClock& clock() { return clock_; }
  Pager& pager() { return pager_; }
  const Catalog& catalog() const { return catalog_; }
  const PageLayoutParams& params() const { return pager_.params(); }
  const DatabaseOptions& options() const { return options_; }

  AccessPath last_access_path() const { return last_access_path_; }

  /// Next value of the monotone row-id counter (storage evidence the
  /// timeline/reenact analyses key on). The value the *next* inserted row
  /// version will receive; updates also consume ids for their new version.
  uint64_t next_row_id() const { return next_row_id_; }

  // ---- planner -------------------------------------------------------------

  struct IndexBounds {
    const IndexInfo* index = nullptr;
    std::optional<Value> lo;  // inclusive; nullopt = unbounded
    std::optional<Value> hi;  // inclusive; nullopt = unbounded
  };
  /// The access path Select/Delete/Update take for `where` over `info`:
  /// the first index in catalog order whose leading column the conjuncts
  /// of `where` bound (=, <, <=, >, >= against a literal; <> bounds
  /// nothing), or nullopt for a full scan. `lo == hi` is a point lookup.
  /// Reads only its arguments, so planners outside the engine (PLI's query
  /// reorderer) predict the path the engine will take.
  static std::optional<IndexBounds> ChooseIndex(const TableInfo& info,
                                                const sql::Expr* where);

  /// nullptr when the table does not exist.
  TableHeap* heap(const std::string& table);
  /// nullptr when absent. PK indexes are named "pk_<table>".
  BTree* index(const std::string& table, const std::string& index_name);

 private:
  Database(const DatabaseOptions& options, const PageLayoutParams& params);

  Status LogStatement(const std::string& sql);

  // Unlogged cores (ExecuteSql logs the user's original text instead).
  Status DoCreateTable(const TableSchema& schema);
  Status DoCreateIndex(const std::string& name, const std::string& table,
                       const std::vector<std::string>& columns);
  Status DoDropTable(const std::string& table);
  Result<RowPointer> DoInsert(const std::string& table, const Record& record);
  Result<int64_t> DoDelete(const std::string& table, const sql::ExprPtr& where);
  Result<int64_t> DoUpdate(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& assignments,
      const sql::ExprPtr& where);
  Result<QueryResult> DoSelect(const sql::SelectStmt& stmt);
  Status DoVacuum(const std::string& table);

  /// `self` (when non-null) is the row being updated; it is excluded from
  /// the primary-key uniqueness check.
  Status CheckConstraints(const TableInfo& info, const Record& record,
                          const RowPointer* self = nullptr);

  /// Rows matching `where` (nullptr = all), choosing index vs full scan.
  Result<std::vector<std::pair<RowPointer, Record>>> MatchRows(
      const TableInfo& info, const sql::ExprPtr& where,
      const std::string& qualifier);

  /// Inserts `record`'s keys into every index of `info`, persisting root
  /// changes to the catalog.
  Status InsertIndexEntries(const TableInfo& info, const Record& record,
                            RowPointer ptr);

  TableHeap* HeapFor(const TableInfo& info);
  BTree* TreeFor(const TableInfo& info, const IndexInfo& index);

  /// Rebuilds in-memory state (row-id counter, LSN watermark) after
  /// attaching checkpointed files.
  Status RecoverCounters();

  DatabaseOptions options_;
  Pager pager_;
  Catalog catalog_;
  AuditLog audit_log_;
  ManualClock clock_;
  std::map<uint32_t, std::unique_ptr<TableHeap>> heaps_;   // by object id
  std::map<uint32_t, std::unique_ptr<BTree>> btrees_;      // by object id
  uint64_t next_row_id_ = 1;
  AccessPath last_access_path_ = AccessPath::kNone;
};

}  // namespace dbfa

#endif  // DBFA_ENGINE_DATABASE_H_
