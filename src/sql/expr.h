// Expression AST: node kinds, constructors and SQL rendering.
//
// Expressions appear in WHERE clauses of logged statements (DBDetective
// re-evaluates them against carved records to attribute deletions — Figure
// 4), in meta-queries over carved relations, in SELECT item lists
// (arithmetic inside aggregates for the SSBM queries), and in the WHERE
// clauses MiniDB executes. All of them are evaluated the same way: bound
// once to column indices (sql/bound_expr.h), then run per row.
#ifndef DBFA_SQL_EXPR_H_
#define DBFA_SQL_EXPR_H_

#include <memory>
#include <string>

#include "storage/value.h"

namespace dbfa::sql {

enum class ExprKind {
  kLiteral,
  kColumn,
  kCompare,  // lhs op rhs
  kAnd,
  kOr,
  kNot,
  kLike,    // lhs LIKE pattern (negated supported)
  kIsNull,  // lhs IS [NOT] NULL
  kArith,   // lhs arith_op rhs
  kFunc,    // func_name(lhs)
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpText(CompareOp op);
const char* ArithOpText(ArithOp op);

/// Immutable expression node. Shared pointers make statements cheaply
/// copyable (audit-log entries hold parsed statements).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;          // kLiteral
  std::string column;     // kColumn: possibly qualified ("c.Name")
  CompareOp compare_op = CompareOp::kEq;  // kCompare
  ArithOp arith_op = ArithOp::kAdd;       // kArith
  std::string pattern;    // kLike
  bool negated = false;   // kLike / kIsNull
  std::string func_name;  // kFunc (LENGTH)

  std::shared_ptr<const Expr> lhs;
  std::shared_ptr<const Expr> rhs;

  /// Renders back to SQL text (round-trips through the parser).
  std::string ToSql() const;
};

using ExprPtr = std::shared_ptr<const Expr>;

// Node constructors.
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumn(std::string name);
ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr operand);
ExprPtr MakeLike(ExprPtr lhs, std::string pattern, bool negated);
ExprPtr MakeIsNull(ExprPtr lhs, bool negated);
ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeFunc(std::string name, ExprPtr arg);

}  // namespace dbfa::sql

#endif  // DBFA_SQL_EXPR_H_
