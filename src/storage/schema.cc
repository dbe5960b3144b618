#include "storage/schema.h"

#include "common/strings.h"

namespace dbfa {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kInt:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kVarchar:
      return "VARCHAR";
  }
  return "?";
}

int TableSchema::ColumnIndex(std::string_view column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, column_name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<std::string> TableSchema::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (const Column& c : columns) names.push_back(c.name);
  return names;
}

size_t TableSchema::NumericColumnCount() const {
  size_t n = 0;
  for (const Column& c : columns) {
    if (IsNumeric(c.type)) ++n;
  }
  return n;
}

bool TableSchema::TypeCheck(const Record& r) const {
  if (r.size() != columns.size()) return false;
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i].is_null()) continue;
    switch (columns[i].type) {
      case ColumnType::kInt:
        if (r[i].type() != ValueType::kInt) return false;
        break;
      case ColumnType::kDouble:
        if (r[i].type() != ValueType::kDouble &&
            r[i].type() != ValueType::kInt) {
          return false;
        }
        break;
      case ColumnType::kVarchar:
        if (r[i].type() != ValueType::kString) return false;
        break;
    }
  }
  return true;
}

// Format:
//   name|col,TYPE,maxlen,nullable;...|pk1,pk2|fkcol>tbl.col;...
// The '|' and ';' separators never occur in identifiers we accept.
std::string TableSchema::Serialize() const {
  std::string out = name;
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) out += ";";
    const Column& c = columns[i];
    out += StrFormat("%s,%s,%u,%d", c.name.c_str(), ColumnTypeName(c.type),
                     c.max_length, c.nullable ? 1 : 0);
  }
  out += "|";
  out += Join(primary_key, ",");
  out += "|";
  for (size_t i = 0; i < foreign_keys.size(); ++i) {
    if (i != 0) out += ";";
    const ForeignKey& fk = foreign_keys[i];
    out += fk.column + ">" + fk.ref_table + "." + fk.ref_column;
  }
  return out;
}

Result<TableSchema> TableSchema::Deserialize(std::string_view text) {
  std::vector<std::string> sections = Split(text, '|');
  if (sections.size() != 4) {
    return Status::Corruption("schema text must have 4 sections: " +
                              std::string(text));
  }
  TableSchema schema;
  schema.name = sections[0];
  if (schema.name.empty()) {
    return Status::Corruption("schema with empty table name");
  }
  for (const std::string& col_text : Split(sections[1], ';')) {
    if (col_text.empty()) continue;
    std::vector<std::string> f = Split(col_text, ',');
    if (f.size() != 4) {
      return Status::Corruption("bad column spec: " + col_text);
    }
    Column c;
    c.name = f[0];
    if (EqualsIgnoreCase(f[1], "INT")) {
      c.type = ColumnType::kInt;
    } else if (EqualsIgnoreCase(f[1], "DOUBLE")) {
      c.type = ColumnType::kDouble;
    } else if (EqualsIgnoreCase(f[1], "VARCHAR")) {
      c.type = ColumnType::kVarchar;
    } else {
      return Status::Corruption("bad column type: " + f[1]);
    }
    c.max_length = static_cast<uint32_t>(std::atoi(f[2].c_str()));
    c.nullable = f[3] == "1";
    schema.columns.push_back(std::move(c));
  }
  if (schema.columns.empty()) {
    return Status::Corruption("schema with no columns");
  }
  if (!sections[2].empty()) {
    schema.primary_key = Split(sections[2], ',');
  }
  for (const std::string& fk_text : Split(sections[3], ';')) {
    if (fk_text.empty()) continue;
    size_t gt = fk_text.find('>');
    size_t dot = fk_text.find('.', gt == std::string::npos ? 0 : gt);
    if (gt == std::string::npos || dot == std::string::npos) {
      return Status::Corruption("bad foreign key spec: " + fk_text);
    }
    ForeignKey fk;
    fk.column = fk_text.substr(0, gt);
    fk.ref_table = fk_text.substr(gt + 1, dot - gt - 1);
    fk.ref_column = fk_text.substr(dot + 1);
    schema.foreign_keys.push_back(std::move(fk));
  }
  return schema;
}

}  // namespace dbfa
