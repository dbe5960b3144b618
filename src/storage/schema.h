// Table schemas, including the constraints the anti-forensics module abuses
// (VARCHAR domain lengths, primary keys, foreign keys — Section II-D).
// Schemas serialize to a single line of text so they can live inside system
// catalog records and be recovered by the carver.
#ifndef DBFA_STORAGE_SCHEMA_H_
#define DBFA_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace dbfa {

/// Declared column type. kInt/kDouble are "numeric" for the purposes of the
/// column-directory page layouts (numbers stored apart from strings).
enum class ColumnType : uint8_t { kInt = 0, kDouble = 1, kVarchar = 2 };

const char* ColumnTypeName(ColumnType t);

/// Whether values of this column live in the numeric section of a
/// column-directory record.
inline bool IsNumeric(ColumnType t) { return t != ColumnType::kVarchar; }

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  /// Declared VARCHAR(n) domain bound; 0 means unbounded. Ignored for
  /// numeric columns.
  uint32_t max_length = 0;
  bool nullable = true;

  bool operator==(const Column&) const = default;
};

/// Declarative referential-integrity edge (LINEORDER.LO_CUSTKEY →
/// CUSTOMER.C_CUSTKEY in the SSBM workload).
struct ForeignKey {
  std::string column;
  std::string ref_table;
  std::string ref_column;

  bool operator==(const ForeignKey&) const = default;
};

struct TableSchema {
  std::string name;
  std::vector<Column> columns;
  std::vector<std::string> primary_key;  // column names, composite allowed
  std::vector<ForeignKey> foreign_keys;

  /// Index of the named column, or -1.
  int ColumnIndex(std::string_view column_name) const;

  /// Column names in declaration order.
  std::vector<std::string> ColumnNames() const;

  size_t NumericColumnCount() const;

  /// True if `r` matches arity and per-column types (NULL always allowed at
  /// this level; nullability is checked by constraint validation).
  bool TypeCheck(const Record& r) const;

  /// Single-line serialization stored in catalog records.
  std::string Serialize() const;
  static Result<TableSchema> Deserialize(std::string_view text);

  bool operator==(const TableSchema&) const = default;
};

}  // namespace dbfa

#endif  // DBFA_STORAGE_SCHEMA_H_
