#include "detective/log_index.h"

#include "common/strings.h"

namespace dbfa {

void AuditLogIndex::Update(const AuditLog& log) {
  const std::vector<AuditEntry>& entries = log.entries();
  bool extends = entries.size() >= handles_.size();
  for (size_t i = 0; extends && i < handles_.size(); ++i) {
    extends = entries[i].handle() == handles_[i];
  }
  if (!extends) *this = AuditLogIndex();
  handles_.reserve(entries.size());
  for (size_t i = handles_.size(); i < entries.size(); ++i) {
    handles_.push_back(entries[i].handle());
    if (const sql::Statement* stmt = entries[i].statement()) Add(*stmt);
  }
}

void AuditLogIndex::Add(const sql::Statement& stmt) {
  // Naming a table creates its entry, so statements that only read or
  // define a table still count as touching it.
  auto table = [&](const std::string& name) -> TableLog& {
    return tables_[ToLower(name)];
  };
  if (const auto* del = std::get_if<sql::DeleteStmt>(&stmt)) {
    table(del->table).deletes.push_back(del);
  } else if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
    table(up->table).updates.push_back(up);
  } else if (const auto* ins = std::get_if<sql::InsertStmt>(&stmt)) {
    TableLog& rows = table(ins->table);
    for (const Record& row : ins->rows) {
      rows.insert_rows.emplace(HashRecord(row), &row);
    }
  } else if (const auto* drop = std::get_if<sql::DropTableStmt>(&stmt)) {
    table(drop->table).dropped = true;
  } else if (const auto* sel = std::get_if<sql::SelectStmt>(&stmt)) {
    table(sel->from.table);
    for (const sql::JoinClause& j : sel->joins) table(j.table.table);
  } else if (const auto* ct = std::get_if<sql::CreateTableStmt>(&stmt)) {
    table(ct->schema.name);
  } else if (const auto* ci = std::get_if<sql::CreateIndexStmt>(&stmt)) {
    table(ci->table);
  } else if (const auto* vac = std::get_if<sql::VacuumStmt>(&stmt)) {
    table(vac->table);
  }
}

const AuditLogIndex::TableLog* AuditLogIndex::Find(
    std::string_view table) const {
  auto it = tables_.find(ToLower(table));
  return it == tables_.end() ? nullptr : &it->second;
}

}  // namespace dbfa
