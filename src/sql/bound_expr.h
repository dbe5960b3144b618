// The SQL evaluator: expressions bound once to flat column indices.
//
// Every production path that evaluates SQL — MiniDB's WHERE clauses and
// select items, the reenactor's replay, DBDetective's Figure-4 matcher and
// the meta-query executor — binds its expression here once per statement
// (or per carved schema), then evaluates the bound tree per row with
// direct vector indexing and no string comparisons. BindExpr resolves each
// column reference to a flat index and each function name to an enum, so
// an unknown column or function is reported once, at bind time (NotFound
// "unknown column: X" / Unimplemented "unknown function: F"), even when
// the table is empty or AND/OR would never reach the bad name.
//
// NULL semantics are simplified two-valued logic: any comparison involving
// NULL yields NULL, and NULL is treated as false wherever a boolean is
// required. IS NULL / IS NOT NULL test NULL-ness directly.
//
// The name-resolving, per-row evaluator this replaces is kept as a
// test-only oracle (tests/oracles/expr_reference.h).
#ifndef DBFA_SQL_BOUND_EXPR_H_
#define DBFA_SQL_BOUND_EXPR_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/expr.h"

namespace dbfa::sql {

/// Maps a (possibly qualified) column name to a flat index into the rows
/// the bound expression will be evaluated against, or nullopt when the
/// name does not resolve.
using ColumnResolver =
    std::function<std::optional<size_t>(std::string_view name)>;

/// Built-in scalar functions, resolved at bind time.
enum class BoundFunc { kLength, kAbs };

/// An expression with every column reference resolved to a flat index.
/// Immutable after binding; safe to share across threads for read-only
/// evaluation.
struct BoundExpr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                          // kLiteral
  size_t column_index = 0;                // kColumn
  CompareOp compare_op = CompareOp::kEq;  // kCompare
  ArithOp arith_op = ArithOp::kAdd;       // kArith
  std::string pattern;                    // kLike
  bool negated = false;                   // kLike / kIsNull
  BoundFunc func = BoundFunc::kLength;    // kFunc

  std::unique_ptr<BoundExpr> lhs;
  std::unique_ptr<BoundExpr> rhs;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Binds `e` against `resolver`. Unknown columns and unknown functions
/// fail here, once, instead of on every row.
Result<BoundExprPtr> BindExpr(const Expr& e, const ColumnResolver& resolver);

/// Resolver over one column-name list with an optional qualifier accepted
/// as "<qualifier>.<name>"; a name with any other qualifier does not
/// resolve. The names are copied, so the resolver may outlive the
/// originals.
ColumnResolver MakeSchemaResolver(std::vector<std::string> names,
                                  std::string qualifier);

/// A zero-copy view of the concatenation left ++ right, indexed exactly
/// like the combined record a join would materialize. Lets a predicate
/// bound against the joined schema run *before* the combined record is
/// built, so rows it rejects are never materialized.
struct JoinRowView {
  const Record* left;
  const Record* right;

  size_t size() const { return left->size() + right->size(); }
  const Value& operator[](size_t i) const {
    return i < left->size() ? (*left)[i] : (*right)[i - left->size()];
  }
};

/// Evaluates a bound expression against a flat row (NULL propagates). A
/// column index beyond the row is an internal error: binding
/// guarantees indices are in range for rows of the bound width.
Result<Value> EvalBound(const BoundExpr& e, const Record& row);
Result<Value> EvalBound(const BoundExpr& e, const JoinRowView& row);

/// Predicate form: NULL results become false.
/// Comparisons, LIKE and IS NULL over columns and literals are evaluated
/// in place, without copying cell values through the general evaluator.
Result<bool> EvalBoundPredicate(const BoundExpr& e, const Record& row);
Result<bool> EvalBoundPredicate(const BoundExpr& e, const JoinRowView& row);

}  // namespace dbfa::sql

#endif  // DBFA_SQL_BOUND_EXPR_H_
