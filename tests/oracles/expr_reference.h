// The name-resolving, tuple-at-a-time SQL evaluator, kept as the oracle
// for the bound evaluator (src/sql/bound_expr.h) and as the evaluator of
// the other test-only references (reference_executor.cc,
// detective_reference.cc): every column reference is resolved by a
// case-insensitive name scan on every row, and an unknown column is
// reported only when evaluation reaches it. Test-only — every production
// caller binds once per statement with sql::BindExpr instead.
#ifndef DBFA_TESTS_ORACLES_EXPR_REFERENCE_H_
#define DBFA_TESTS_ORACLES_EXPR_REFERENCE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/expr.h"
#include "storage/value.h"

namespace dbfa::sql_reference {

/// Resolves column references during evaluation. Implementations decide how
/// to treat qualified names and unknown columns.
class ColumnBinding {
 public:
  virtual ~ColumnBinding() = default;
  /// Returns the column's value, or nullopt when the name does not resolve.
  virtual std::optional<Value> Lookup(std::string_view name) const = 0;
};

/// Binding over a single record + column-name list (optionally with a
/// qualifier accepted as "<qualifier>.<name>").
class RecordBinding : public ColumnBinding {
 public:
  RecordBinding(const std::vector<std::string>& names, const Record& record,
                std::string qualifier = "")
      : names_(names), record_(record), qualifier_(std::move(qualifier)) {}

  std::optional<Value> Lookup(std::string_view name) const override;

 private:
  const std::vector<std::string>& names_;
  const Record& record_;
  std::string qualifier_;
};

/// Evaluates to a Value (NULL propagates). Unknown columns are errors.
Result<Value> Eval(const sql::Expr& e, const ColumnBinding& binding);

/// Evaluates as a predicate: NULL/unknown results become false.
Result<bool> EvalPredicate(const sql::Expr& e, const ColumnBinding& binding);

}  // namespace dbfa::sql_reference

#endif  // DBFA_TESTS_ORACLES_EXPR_REFERENCE_H_
