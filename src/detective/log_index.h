// AuditLogIndex: Figure 4's per-table view of an audit log, kept
// incrementally. Logged DELETE and UPDATE statements are bucketed per
// (lower-cased) table, DROPs become a per-table flag, and every logged
// INSERT row is keyed by HashRecord — all schema-independent, so binding
// predicates to a carved schema stays a per-call step (DbDetective).
//
// The index reads each entry's shared parse (AuditEntry::statement) and
// keeps the handles it has indexed. When the log Update() is given starts
// with exactly those handles — compared as pointers, never as text — only
// the new entries are parsed and indexed; any other log (reloaded, edited
// or shorter) rebuilds the index from scratch.
#ifndef DBFA_DETECTIVE_LOG_INDEX_H_
#define DBFA_DETECTIVE_LOG_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/audit_log.h"
#include "sql/statement.h"

namespace dbfa {

class AuditLogIndex {
 public:
  /// One table's logged modifications; DELETEs and UPDATEs in log order.
  /// Tables that are only read have an empty entry. The pointers point
  /// into the parsed statements the index's handles keep alive.
  struct TableLog {
    std::vector<const sql::DeleteStmt*> deletes;
    std::vector<const sql::UpdateStmt*> updates;
    /// Every logged INSERT row, keyed by HashRecord(row).
    std::unordered_multimap<size_t, const Record*> insert_rows;
    bool dropped = false;
  };

  AuditLogIndex() = default;
  explicit AuditLogIndex(const AuditLog& log) { Update(log); }

  /// Brings the index up to date with `log`: indexes only the entries past
  /// the indexed prefix when `log` extends it, else rebuilds.
  void Update(const AuditLog& log);

  /// The table's entry (any case), or null when no parseable log entry
  /// names the table, reads included.
  const TableLog* Find(std::string_view table) const;

  /// Entries indexed so far.
  size_t size() const { return handles_.size(); }

 private:
  void Add(const sql::Statement& stmt);

  std::vector<std::shared_ptr<const ParsedStatement>> handles_;
  std::unordered_map<std::string, TableLog> tables_;
};

}  // namespace dbfa

#endif  // DBFA_DETECTIVE_LOG_INDEX_H_
