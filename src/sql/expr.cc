#include "sql/expr.h"

#include "common/strings.h"

namespace dbfa::sql {

const char* CompareOpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpText(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

std::shared_ptr<Expr> NewExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

ExprPtr MakeLiteral(Value v) {
  auto e = NewExpr(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumn(std::string name) {
  auto e = NewExpr(ExprKind::kColumn);
  e->column = std::move(name);
  return e;
}

ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kCompare);
  e->compare_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kAnd);
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kOr);
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeNot(ExprPtr operand) {
  auto e = NewExpr(ExprKind::kNot);
  e->lhs = std::move(operand);
  return e;
}

ExprPtr MakeLike(ExprPtr lhs, std::string pattern, bool negated) {
  auto e = NewExpr(ExprKind::kLike);
  e->lhs = std::move(lhs);
  e->pattern = std::move(pattern);
  e->negated = negated;
  return e;
}

ExprPtr MakeIsNull(ExprPtr lhs, bool negated) {
  auto e = NewExpr(ExprKind::kIsNull);
  e->lhs = std::move(lhs);
  e->negated = negated;
  return e;
}

ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kArith);
  e->arith_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeFunc(std::string name, ExprPtr arg) {
  auto e = NewExpr(ExprKind::kFunc);
  e->func_name = ToUpper(name);
  e->lhs = std::move(arg);
  return e;
}

std::string Expr::ToSql() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kColumn:
      return column;
    case ExprKind::kCompare:
      return StrFormat("(%s %s %s)", lhs->ToSql().c_str(),
                       CompareOpText(compare_op), rhs->ToSql().c_str());
    case ExprKind::kAnd:
      return StrFormat("(%s AND %s)", lhs->ToSql().c_str(),
                       rhs->ToSql().c_str());
    case ExprKind::kOr:
      return StrFormat("(%s OR %s)", lhs->ToSql().c_str(),
                       rhs->ToSql().c_str());
    case ExprKind::kNot:
      return StrFormat("(NOT %s)", lhs->ToSql().c_str());
    case ExprKind::kLike:
      return StrFormat("(%s %sLIKE %s)", lhs->ToSql().c_str(),
                       negated ? "NOT " : "", SqlQuote(pattern).c_str());
    case ExprKind::kIsNull:
      return StrFormat("(%s IS %sNULL)", lhs->ToSql().c_str(),
                       negated ? "NOT " : "");
    case ExprKind::kArith:
      return StrFormat("(%s %s %s)", lhs->ToSql().c_str(),
                       ArithOpText(arith_op), rhs->ToSql().c_str());
    case ExprKind::kFunc:
      return StrFormat("%s(%s)", func_name.c_str(), lhs->ToSql().c_str());
  }
  return "?";
}

}  // namespace dbfa::sql
