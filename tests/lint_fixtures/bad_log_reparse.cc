// dbfa-lint-fixture: path=src/detective/reparse.cc rule=log-reparse expect=3
//
// Private parse loops over the audit log. Each site parses every entry
// again on every call, although the entry's shared handle has already
// parsed it once for every copy of the log. Never compiled; fed to
// dbfa_lint --self-test under the pretend path above.

#include <string>

#include "engine/audit_log.h"
#include "sql/parser.h"

namespace dbfa {

size_t CountDeletes(const AuditLog& log) {
  size_t n = 0;
  for (const AuditEntry& e : log.entries()) {
    auto stmt = sql::ParseStatement(e.sql);  // finding 1
    if (stmt.ok() && std::holds_alternative<sql::DeleteStmt>(*stmt)) ++n;
  }
  return n;
}

bool FirstParses(const AuditLog* log) {
  const AuditEntry* first = &log->entries()[0];
  return sql::ParseStatement(first->sql).ok();  // finding 2
}

bool LastParses(const AuditLog& log) {
  return sql::ParseStatement(
             log.entries()[log.entries().size() - 1].sql)  // finding 3
      .ok();
}

// Parsing text that is not a log entry's stays legal.
bool QueryParses(const std::string& query_sql) {
  return sql::ParseStatement(query_sql).ok();
}

}  // namespace dbfa
