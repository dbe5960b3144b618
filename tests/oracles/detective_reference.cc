#include "oracles/detective_reference.h"

#include <string>

#include "common/strings.h"
#include "sql/parser.h"

namespace dbfa::detective_internal {

Result<std::vector<UnattributedModification>>
FindUnattributedModificationsReference(const CarveResult& carve,
                                       const AuditLog& log,
                                       size_t* deleted_checked,
                                       size_t* active_checked) {
  std::vector<sql::Statement> statements;
  for (const AuditEntry& entry : log.entries()) {
    auto stmt = sql::ParseStatement(entry.sql);
    if (stmt.ok()) statements.push_back(std::move(stmt).value());
  }

  std::vector<UnattributedModification> out;
  size_t deleted_count = 0;
  size_t active_count = 0;
  for (const CarvedRecord& r : carve.records) {
    auto schema_it = carve.schemas.find(r.object_id);
    if (schema_it == carve.schemas.end()) continue;
    const TableSchema& schema = schema_it->second;
    if (!r.typed || r.values.size() != schema.columns.size()) continue;
    std::vector<std::string> columns;
    for (const Column& c : schema.columns) columns.push_back(c.name);
    sql::RecordBinding binding(columns, r.values, schema.name);
    auto same_table = [&](const std::string& table) {
      return EqualsIgnoreCase(table, schema.name);
    };
    // A statement's WHERE matches this record (no WHERE matches all rows).
    auto matches = [&](const sql::ExprPtr& where) {
      if (where == nullptr) return true;
      auto match = sql::EvalPredicate(*where, binding);
      return match.ok() && *match;
    };

    bool attributed = false;
    if (r.status == RowStatus::kDeleted) {
      ++deleted_count;
      // Deleted records are explained by a DROP, a DELETE, or the pre-image
      // of an UPDATE whose predicate they satisfy.
      for (const sql::Statement& stmt : statements) {
        if (const auto* drop = std::get_if<sql::DropTableStmt>(&stmt)) {
          attributed = attributed || same_table(drop->table);
        } else if (const auto* del = std::get_if<sql::DeleteStmt>(&stmt)) {
          attributed = attributed ||
                       (same_table(del->table) && matches(del->where));
        } else if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
          attributed =
              attributed || (same_table(up->table) && matches(up->where));
        }
      }
      if (!attributed) {
        out.push_back({UnattributedModification::Kind::kDelete, schema.name,
                       r.values, r.page_id, r.slot,
                       "no logged DELETE/UPDATE predicate matches this "
                       "deleted record"});
      }
      continue;
    }

    ++active_count;
    // Active records are explained by a logged INSERT row or by the
    // post-image of a logged UPDATE (every SET value present).
    for (const sql::Statement& stmt : statements) {
      if (attributed) break;
      if (const auto* ins = std::get_if<sql::InsertStmt>(&stmt)) {
        if (!same_table(ins->table)) continue;
        for (const Record& row : ins->rows) {
          if (CompareRecords(row, r.values) == 0) attributed = true;
        }
      } else if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
        if (!same_table(up->table) || up->assignments.empty()) continue;
        bool consistent = true;
        for (const auto& [col, value] : up->assignments) {
          int ci = schema.ColumnIndex(col);
          if (ci < 0 || !(r.values[static_cast<size_t>(ci)] == value)) {
            consistent = false;
          }
        }
        attributed = consistent;
      }
    }
    if (!attributed) {
      out.push_back({UnattributedModification::Kind::kInsert, schema.name,
                     r.values, r.page_id, r.slot,
                     "no logged INSERT/UPDATE produces this record"});
    }
  }
  if (deleted_checked != nullptr) *deleted_checked = deleted_count;
  if (active_checked != nullptr) *active_checked = active_count;
  return out;
}

}  // namespace dbfa::detective_internal
