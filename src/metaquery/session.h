// Meta-query engine: SQL over any mix of carved and live relations.
//
// Section II-C's examples run verbatim here:
//   SELECT * FROM CarvCustomer WHERE RowStatus = 'DELETED'
//   SELECT * FROM CarvRAMProduct AS M JOIN CarvDiskProduct AS D
//     ON M.PID = D.PID WHERE M.Price <> D.Price
//
// Supports filters, inner equi-joins, arithmetic, aggregates
// (COUNT/SUM/MIN/MAX/AVG) with GROUP BY, ORDER BY, and LIMIT — enough to
// run the full SSBM query suite for the anti-forensics evaluation.
//
// One streaming engine executes every query: column references bind to
// flat indices at plan time, the FROM scan and the per-row operators behind
// it run as morsels on the session's worker pool, and any intermediate that
// outgrows the memory budget spills to disk (docs/metaquery_engine.md,
// docs/spilling.md).
#ifndef DBFA_METAQUERY_SESSION_H_
#define DBFA_METAQUERY_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/spill_manager.h"
#include "common/thread_pool.h"
#include "metaquery/relation.h"
#include "sql/parser.h"

namespace dbfa {

/// Query output with formatting helpers.
struct QueryTable {
  std::vector<std::string> columns;
  std::vector<Record> rows;
  /// The pools of the relations the query read, so `rows` stay readable
  /// after the session and its carves are gone (docs/columnar_memory.md).
  StringPoolSet string_pools;

  /// Fixed-width text rendering for reports and examples.
  std::string ToText(size_t max_rows = 50) const;
};

/// Execution knobs for MetaQuerySession.
struct MetaQueryOptions {
  /// Worker threads for every operator: scan morsels and the per-row
  /// stages behind them (WHERE, join probes, projection), join build-side
  /// hashing, and spilled grace-join and aggregation partitions. 1 runs
  /// everything inline on the calling thread, 0 means hardware
  /// concurrency. Results are identical at every count.
  size_t num_threads = 1;
  /// Bytes of rows each operator may hold in memory; the rest spills to
  /// checksummed temp files (docs/spilling.md). 0 (the default) means
  /// unbounded: nothing ever spills. Results are bit-identical at every
  /// budget.
  size_t memory_budget_bytes = 0;
  /// Directory spill files are created under (a unique per-query
  /// subdirectory, created only when a query first spills). Empty means
  /// the system temp directory.
  std::string spill_dir;
};

/// Query and Execute may run on several threads at once; registration and
/// set_options must not overlap a running query.
class MetaQuerySession {
 public:
  explicit MetaQuerySession(MetaQueryOptions options = {});

  /// Registers a relation under `name` (case-insensitive; last wins).
  void Register(const std::string& name, std::shared_ptr<Relation> relation);

  /// Registers every schema-bearing table of a carve result as
  /// "<prefix><TableName>" (e.g. prefix "Carv" -> CarvCustomer). Tables
  /// that cannot be registered — relation construction failed, or the
  /// table's name is shadowed by an earlier carved schema with the same
  /// name (dropped-and-recreated tables) — are reported through `skipped`
  /// (as "<name> (object <id>): <why>") instead of being dropped silently.
  Status RegisterCarve(const CarveResult& carve, const std::string& prefix,
                       std::vector<std::string>* skipped = nullptr);

  /// Registers every live table of a database under its own name.
  /// `db` must outlive the session.
  Status RegisterDatabase(Database* db);

  /// Parses and executes one SELECT statement.
  Result<QueryTable> Query(const std::string& select_sql);
  Result<QueryTable> Execute(const sql::SelectStmt& stmt);

  /// Registered relation names (sorted).
  std::vector<std::string> RelationNames() const;

  const MetaQueryOptions& options() const { return options_; }
  /// Takes effect for subsequent queries; resizes the worker pool lazily.
  void set_options(const MetaQueryOptions& options);

  /// Spill activity of the most recently finished Query/Execute call. All
  /// zeros when the query ran fully in memory (always the case when
  /// memory_budget_bytes == 0).
  SpillStats last_spill_stats() const;

 private:
  Result<std::shared_ptr<Relation>> Lookup(const std::string& name) const;

  /// Worker pool for the query's operators; nullptr when running inline.
  ThreadPool* PoolForQuery();

  MetaQueryOptions options_;
  mutable Mutex stats_mu_{"session/stats", lock_rank::kSessionStats};
  SpillStats last_spill_stats_ DBFA_GUARDED_BY(stats_mu_);
  /// Guards the lazily created worker pool. Pool creation races when
  /// several threads issue this session's first parallel query; the
  /// ThreadPool itself is thread-safe once published.
  Mutex pool_mu_{"session/pool", lock_rank::kSessionPool};
  std::unique_ptr<ThreadPool> pool_ DBFA_GUARDED_BY(pool_mu_);
  std::map<std::string, std::shared_ptr<Relation>> relations_;  // lower key
  std::map<std::string, std::string> display_names_;
};

}  // namespace dbfa

#endif  // DBFA_METAQUERY_SESSION_H_
