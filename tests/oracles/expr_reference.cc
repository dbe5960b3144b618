#include "oracles/expr_reference.h"

#include <cmath>

#include "common/strings.h"

namespace dbfa::sql_reference {

using sql::ArithOp;
using sql::CompareOp;
using sql::Expr;
using sql::ExprKind;

std::optional<Value> RecordBinding::Lookup(std::string_view name) const {
  std::string_view bare = name;
  size_t dot = name.find('.');
  if (dot != std::string_view::npos) {
    std::string_view qual = name.substr(0, dot);
    if (!qualifier_.empty() && !EqualsIgnoreCase(qual, qualifier_)) {
      return std::nullopt;
    }
    bare = name.substr(dot + 1);
  }
  for (size_t i = 0; i < names_.size() && i < record_.size(); ++i) {
    if (EqualsIgnoreCase(names_[i], bare)) return record_[i];
  }
  return std::nullopt;
}

namespace {

Result<Value> EvalArith(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  bool a_num = a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  bool b_num = b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if (!a_num || !b_num) {
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt &&
      op != ArithOp::kDiv) {
    int64_t x = a.as_int();
    int64_t y = b.as_int();
    switch (op) {
      case ArithOp::kAdd:
        return Value::Int(x + y);
      case ArithOp::kSub:
        return Value::Int(x - y);
      case ArithOp::kMul:
        return Value::Int(x * y);
      default:
        break;
    }
  }
  double x = a.NumericValue();
  double y = b.NumericValue();
  switch (op) {
    case ArithOp::kAdd:
      return Value::Real(x + y);
    case ArithOp::kSub:
      return Value::Real(x - y);
    case ArithOp::kMul:
      return Value::Real(x * y);
    case ArithOp::kDiv:
      if (y == 0) return Value::Null();
      return Value::Real(x / y);
  }
  return Status::Internal("bad arith op");
}

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == ValueType::kInt) return v.as_int() != 0;
  if (v.type() == ValueType::kDouble) return v.as_double() != 0;
  return !v.as_string().empty();
}

}  // namespace

Result<Value> Eval(const Expr& e, const ColumnBinding& binding) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumn: {
      auto v = binding.Lookup(e.column);
      if (!v.has_value()) {
        return Status::NotFound("unknown column: " + e.column);
      }
      return *v;
    }
    case ExprKind::kCompare: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      DBFA_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
      if (a.is_null() || b.is_null()) return Value::Null();
      int c = Value::Compare(a, b);
      switch (e.compare_op) {
        case CompareOp::kEq:
          return BoolValue(c == 0);
        case CompareOp::kNe:
          return BoolValue(c != 0);
        case CompareOp::kLt:
          return BoolValue(c < 0);
        case CompareOp::kLe:
          return BoolValue(c <= 0);
        case CompareOp::kGt:
          return BoolValue(c > 0);
        case CompareOp::kGe:
          return BoolValue(c >= 0);
      }
      return Status::Internal("bad compare op");
    }
    case ExprKind::kAnd: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      if (!Truthy(a)) return BoolValue(false);
      DBFA_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
      return BoolValue(Truthy(b));
    }
    case ExprKind::kOr: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      if (Truthy(a)) return BoolValue(true);
      DBFA_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
      return BoolValue(Truthy(b));
    }
    case ExprKind::kNot: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      return BoolValue(!Truthy(a));
    }
    case ExprKind::kLike: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      if (a.is_null()) return Value::Null();
      if (a.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE applied to non-string");
      }
      bool m = LikeMatch(a.as_string(), e.pattern);
      return BoolValue(e.negated ? !m : m);
    }
    case ExprKind::kIsNull: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      bool isnull = a.is_null();
      return BoolValue(e.negated ? !isnull : isnull);
    }
    case ExprKind::kArith: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      DBFA_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, binding));
      return EvalArith(e.arith_op, a, b);
    }
    case ExprKind::kFunc: {
      DBFA_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, binding));
      if (e.func_name == "LENGTH") {
        if (a.is_null()) return Value::Null();
        if (a.type() != ValueType::kString) {
          return Status::InvalidArgument("LENGTH applied to non-string");
        }
        return Value::Int(static_cast<int64_t>(a.as_string().size()));
      }
      if (e.func_name == "ABS") {
        if (a.is_null()) return Value::Null();
        if (a.type() == ValueType::kInt) {
          return Value::Int(a.as_int() < 0 ? -a.as_int() : a.as_int());
        }
        if (a.type() == ValueType::kDouble) {
          return Value::Real(std::abs(a.as_double()));
        }
        return Status::InvalidArgument("ABS applied to non-number");
      }
      return Status::Unimplemented("unknown function: " + e.func_name);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalPredicate(const Expr& e, const ColumnBinding& binding) {
  DBFA_ASSIGN_OR_RETURN(Value v, Eval(e, binding));
  return Truthy(v);
}

}  // namespace dbfa::sql_reference
