#include "sql/statement.h"

#include "common/strings.h"

namespace dbfa::sql {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  if (star && agg == AggFunc::kNone) return "*";
  if (agg != AggFunc::kNone) {
    std::string inner = star ? "*" : (expr != nullptr ? expr->ToSql() : "?");
    return StrFormat("%s(%s)", AggFuncName(agg), inner.c_str());
  }
  if (expr != nullptr && expr->kind == ExprKind::kColumn) return expr->column;
  return expr != nullptr ? expr->ToSql() : "?";
}

std::string CreateTableStmt::ToSql() const {
  std::string out = "CREATE TABLE " + schema.name + " (";
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    const Column& c = schema.columns[i];
    if (i != 0) out += ", ";
    out += c.name;
    out += " ";
    if (c.type == ColumnType::kVarchar) {
      out += StrFormat("VARCHAR(%u)", c.max_length);
    } else {
      out += ColumnTypeName(c.type);
    }
    if (!c.nullable) out += " NOT NULL";
  }
  if (!schema.primary_key.empty()) {
    out += ", PRIMARY KEY (" + Join(schema.primary_key, ", ") + ")";
  }
  for (const ForeignKey& fk : schema.foreign_keys) {
    out += StrFormat(", FOREIGN KEY (%s) REFERENCES %s (%s)",
                     fk.column.c_str(), fk.ref_table.c_str(),
                     fk.ref_column.c_str());
  }
  out += ")";
  return out;
}

std::string CreateIndexStmt::ToSql() const {
  return StrFormat("CREATE INDEX %s ON %s (%s)", index_name.c_str(),
                   table.c_str(), Join(columns, ", ").c_str());
}

std::string DropTableStmt::ToSql() const { return "DROP TABLE " + table; }

std::string InsertStmt::ToSql() const {
  std::string out = "INSERT INTO " + table + " VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j != 0) out += ", ";
      out += rows[i][j].ToSqlLiteral();
    }
    out += ")";
  }
  return out;
}

std::string UpdateStmt::ToSql() const {
  std::string out = "UPDATE " + table + " SET ";
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (i != 0) out += ", ";
    out += assignments[i].first + " = " + assignments[i].second.ToSqlLiteral();
  }
  if (where != nullptr) out += " WHERE " + where->ToSql();
  return out;
}

std::string DeleteStmt::ToSql() const {
  std::string out = "DELETE FROM " + table;
  if (where != nullptr) out += " WHERE " + where->ToSql();
  return out;
}

bool SelectStmt::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.agg != AggFunc::kNone) return true;
  }
  return false;
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    const SelectItem& item = items[i];
    if (item.agg != AggFunc::kNone) {
      out += StrFormat("%s(%s)", AggFuncName(item.agg),
                       item.star ? "*" : item.expr->ToSql().c_str());
    } else if (item.star) {
      out += "*";
    } else {
      out += item.expr->ToSql();
    }
    if (!item.alias.empty()) out += " AS " + item.alias;
  }
  out += " FROM " + from.table;
  if (!from.alias.empty()) out += " AS " + from.alias;
  for (const JoinClause& j : joins) {
    out += " JOIN " + j.table.table;
    if (!j.table.alias.empty()) out += " AS " + j.table.alias;
    out += " ON " + j.left_column + " = " + j.right_column;
  }
  if (where != nullptr) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) out += " GROUP BY " + Join(group_by, ", ");
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i != 0) out += ", ";
      out += order_by[i].column;
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) {
    out += StrFormat(" LIMIT %lld", static_cast<long long>(limit));
  }
  return out;
}

std::string VacuumStmt::ToSql() const { return "VACUUM " + table; }

std::string StatementToSql(const Statement& stmt) {
  return std::visit([](const auto& s) { return s.ToSql(); }, stmt);
}

const char* StatementKind(const Statement& stmt) {
  struct Visitor {
    const char* operator()(const CreateTableStmt&) { return "CREATE TABLE"; }
    const char* operator()(const CreateIndexStmt&) { return "CREATE INDEX"; }
    const char* operator()(const DropTableStmt&) { return "DROP TABLE"; }
    const char* operator()(const InsertStmt&) { return "INSERT"; }
    const char* operator()(const UpdateStmt&) { return "UPDATE"; }
    const char* operator()(const DeleteStmt&) { return "DELETE"; }
    const char* operator()(const SelectStmt&) { return "SELECT"; }
    const char* operator()(const VacuumStmt&) { return "VACUUM"; }
  };
  return std::visit(Visitor{}, stmt);
}

}  // namespace dbfa::sql
