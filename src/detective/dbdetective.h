// DBDetective (Section III-A): detect database activity missing from the
// audit log by cross-checking carved storage artifacts against the log.
//
// Modifications: every carved deleted record must be attributable to a
// logged DELETE/UPDATE/DROP whose predicate it satisfies (Figure 4's
// example: deleted (4,'Thomas','Austin') matches neither
// "City = 'Chicago'" nor "Name LIKE 'Chris%'" and is flagged); every
// carved active record must be attributable to a logged INSERT (or the
// result of a logged UPDATE).
//
// Reads: the buffer cache's content exhibits repeatable patterns — a full
// scan leaves a long run of consecutive heap pages, an index scan leaves
// index pages plus scattered heap pages. Cached patterns for tables no
// logged statement touches indicate unlogged SELECTs.
#ifndef DBFA_DETECTIVE_DBDETECTIVE_H_
#define DBFA_DETECTIVE_DBDETECTIVE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "detective/log_index.h"
#include "engine/audit_log.h"
#include "metaquery/session.h"
#include "sql/statement.h"

namespace dbfa {

/// A storage artifact no log entry explains.
struct UnattributedModification {
  enum class Kind { kDelete, kInsert };
  Kind kind = Kind::kDelete;
  std::string table;
  Record values;
  uint32_t page_id = 0;
  uint16_t slot = 0;
  std::string reason;

  /// Identity key: the same artifact yields the same key regardless of
  /// which snapshot's delta surfaced it (the serve daemon's dedup and
  /// ResolveFinding both address findings by it).
  std::string Key() const;
  std::string ToString() const;
};

/// A cached access pattern no logged statement explains.
struct UnloggedAccess {
  std::string table;
  enum class Pattern { kFullScan, kIndexScan } pattern = Pattern::kFullScan;
  size_t cached_data_pages = 0;
  size_t cached_index_pages = 0;
  size_t longest_run = 0;  // longest consecutive page-id run

  std::string ToString() const;
};

struct DetectiveReport {
  DetectiveReport() = default;
  /// Holds the pool of `disk`, the carve the findings' values come from.
  explicit DetectiveReport(const CarveResult& disk)
      : string_pools(disk.string_pool) {}

  std::vector<UnattributedModification> modifications;
  std::vector<UnloggedAccess> reads;
  /// Statistics for precision/recall accounting.
  size_t deleted_records_checked = 0;
  size_t active_records_checked = 0;
  /// Keeps the values in `modifications` readable after the analyzed
  /// carves are gone (docs/columnar_memory.md).
  StringPoolSet string_pools;

  bool Clean() const { return modifications.empty() && reads.empty(); }
  std::string ToString() const;
};

/// Tuning knobs for DbDetective.
struct DetectiveOptions {
  /// Execution options for ad-hoc meta-query sessions built with
  /// MakeMetaQuerySession. Investigations over carves much larger than RAM
  /// set memory_budget_bytes here so SQL over the carved relations spills
  /// to disk (docs/spilling.md) instead of holding every intermediate in
  /// memory.
  MetaQueryOptions metaquery;
};

class DbDetective {
 public:
  /// `disk` is the carve of the storage image; `log` the recovered audit
  /// log; `ram` (optional) the carve of a memory snapshot for read
  /// detection.
  DbDetective(const CarveResult* disk, const AuditLog* log,
              const CarveResult* ram = nullptr,
              DetectiveOptions options = {})
      : disk_(disk), log_(log), ram_(ram), options_(options) {}

  /// Both analyses over one AuditLogIndex of the log.
  Result<DetectiveReport> Analyze() const;

  /// Modification analysis only (Figure 4): MatchModifications over a
  /// fresh index of the log.
  Result<std::vector<UnattributedModification>> FindUnattributedModifications(
      size_t* deleted_checked = nullptr,
      size_t* active_checked = nullptr) const;

  /// Read analysis only (requires a RAM carve).
  Result<std::vector<UnloggedAccess>> FindUnloggedReads() const;

  /// Figure 4's check of `disk` against an indexed log. Every logged
  /// DELETE/UPDATE predicate is bound to its table's carved schema once per
  /// call, before the record sweep, so matching never re-resolves column
  /// names per carved record; INSERT rows are looked up by their hash in
  /// the index. Callers that match many carves against one growing log
  /// (SnapshotRepo::DetectIncremental) keep the index between calls.
  static std::vector<UnattributedModification> MatchModifications(
      const CarveResult& disk, const AuditLogIndex& log,
      size_t* deleted_checked = nullptr, size_t* active_checked = nullptr);

  /// Builds a meta-query session over the carves this detective was given:
  /// every schema-bearing disk table registers as "CarvDisk<Table>" and
  /// (when a RAM carve is present) "CarvRAM<Table>" — Section II-C's
  /// naming, so its cross-snapshot join example runs verbatim. The session
  /// inherits options().metaquery, including the out-of-core memory
  /// budget. Tables that could not be registered are reported through
  /// `skipped`.
  /// The session owns a worker-pool mutex and is therefore not movable;
  /// it is returned behind a unique_ptr.
  Result<std::unique_ptr<MetaQuerySession>> MakeMetaQuerySession(
      std::vector<std::string>* skipped = nullptr) const;

 private:
  const CarveResult* disk_;
  const AuditLog* log_;
  const CarveResult* ram_;
  DetectiveOptions options_;
};

}  // namespace dbfa

#endif  // DBFA_DETECTIVE_DBDETECTIVE_H_
