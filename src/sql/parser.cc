#include "sql/parser.h"

#include <utility>

#include "common/strings.h"
#include "sql/token.h"

namespace dbfa::sql {
namespace {

/// Token-stream cursor with keyword helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatementTop();
  Result<ExprPtr> ParseExpressionTop();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool AcceptKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Next();
    return true;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (AcceptKeyword(kw)) return Status::Ok();
    return Error(StrFormat("expected %s", std::string(kw).c_str()));
  }
  bool PeekSymbol(std::string_view sym) const {
    const Token& t = Peek();
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool AcceptSymbol(std::string_view sym) {
    if (!PeekSymbol(sym)) return false;
    Next();
    return true;
  }
  Status ExpectSymbol(std::string_view sym) {
    if (AcceptSymbol(sym)) return Status::Ok();
    return Error(StrFormat("expected '%s'", std::string(sym).c_str()));
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier");
    }
    return Next().text;
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu (near '%s')", what.c_str(),
                  Peek().position, Peek().text.c_str()));
  }

  // Possibly-qualified column name: ident[.ident]
  Result<std::string> ParseColumnName();

  Result<Statement> ParseCreate();
  Result<Statement> ParseDrop();
  Result<Statement> ParseInsert();
  Result<Statement> ParseUpdate();
  Result<Statement> ParseDelete();
  Result<Statement> ParseSelect();
  Result<Statement> ParseVacuum();

  Result<Value> ParseLiteral();
  Result<TableRef> ParseTableRef();

  Result<ExprPtr> ParseExpr();        // OR level
  Result<ExprPtr> ParseAndExpr();
  Result<ExprPtr> ParseNotExpr();
  Result<ExprPtr> ParsePredicate();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<std::string> Parser::ParseColumnName() {
  DBFA_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
  if (AcceptSymbol(".")) {
    DBFA_ASSIGN_OR_RETURN(std::string rest, ExpectIdentifier());
    name += "." + rest;
  }
  return name;
}

Result<Value> Parser::ParseLiteral() {
  const Token& t = Peek();
  bool negative = false;
  if (PeekSymbol("-")) {
    Next();
    const Token& num = Peek();
    if (num.type == TokenType::kInteger) {
      Next();
      return Value::Int(-num.int_value);
    }
    if (num.type == TokenType::kFloat) {
      Next();
      return Value::Real(-num.float_value);
    }
    return Error("expected number after '-'");
  }
  (void)negative;
  switch (t.type) {
    case TokenType::kInteger:
      Next();
      return Value::Int(t.int_value);
    case TokenType::kFloat:
      Next();
      return Value::Real(t.float_value);
    case TokenType::kString:
      Next();
      return Value::Str(t.text);
    case TokenType::kIdentifier:
      if (EqualsIgnoreCase(t.text, "NULL")) {
        Next();
        return Value::Null();
      }
      return Error("expected literal");
    default:
      return Error("expected literal");
  }
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  DBFA_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
  if (AcceptKeyword("AS")) {
    DBFA_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
  } else if (Peek().type == TokenType::kIdentifier && !PeekKeyword("JOIN") &&
             !PeekKeyword("WHERE") && !PeekKeyword("GROUP") &&
             !PeekKeyword("ORDER") && !PeekKeyword("LIMIT") &&
             !PeekKeyword("ON") && !PeekKeyword("SET")) {
    ref.alias = Next().text;
  }
  return ref;
}

// ---- expressions ---------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
  while (AcceptKeyword("OR")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
    lhs = MakeOr(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAndExpr() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNotExpr());
  while (AcceptKeyword("AND")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNotExpr());
    lhs = MakeAnd(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNotExpr() {
  if (AcceptKeyword("NOT")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr inner, ParseNotExpr());
    return MakeNot(std::move(inner));
  }
  return ParsePredicate();
}

Result<ExprPtr> Parser::ParsePredicate() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  // comparison operators
  static constexpr std::pair<const char*, CompareOp> kOps[] = {
      {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"<>", CompareOp::kNe},
      {"=", CompareOp::kEq},  {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
  for (auto [sym, op] : kOps) {
    if (PeekSymbol(sym)) {
      Next();
      DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return MakeCompare(op, std::move(lhs), std::move(rhs));
    }
  }
  bool negated = false;
  if (PeekKeyword("NOT") &&
      (PeekKeyword("LIKE", 1) || PeekKeyword("BETWEEN", 1) ||
       PeekKeyword("IN", 1))) {
    Next();
    negated = true;
  }
  if (AcceptKeyword("LIKE")) {
    if (Peek().type != TokenType::kString) {
      return Error("expected string pattern after LIKE");
    }
    std::string pattern = Next().text;
    return MakeLike(std::move(lhs), std::move(pattern), negated);
  }
  if (AcceptKeyword("BETWEEN")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    DBFA_RETURN_IF_ERROR(ExpectKeyword("AND"));
    DBFA_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr range = MakeAnd(MakeCompare(CompareOp::kGe, lhs, std::move(lo)),
                            MakeCompare(CompareOp::kLe, lhs, std::move(hi)));
    return negated ? MakeNot(std::move(range)) : range;
  }
  if (AcceptKeyword("IN")) {
    DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
    ExprPtr disjunction;
    while (true) {
      DBFA_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      ExprPtr eq = MakeCompare(CompareOp::kEq, lhs, MakeLiteral(std::move(v)));
      disjunction = disjunction == nullptr
                        ? std::move(eq)
                        : MakeOr(std::move(disjunction), std::move(eq));
      if (!AcceptSymbol(",")) break;
    }
    DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    return negated ? MakeNot(std::move(disjunction)) : disjunction;
  }
  if (AcceptKeyword("IS")) {
    bool is_not = AcceptKeyword("NOT");
    DBFA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
    return MakeIsNull(std::move(lhs), is_not);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAdditive() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (true) {
    if (AcceptSymbol("+")) {
      DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeArith(ArithOp::kAdd, std::move(lhs), std::move(rhs));
    } else if (AcceptSymbol("-")) {
      DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeArith(ArithOp::kSub, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    if (AcceptSymbol("*")) {
      DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeArith(ArithOp::kMul, std::move(lhs), std::move(rhs));
    } else if (AcceptSymbol("/")) {
      DBFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeArith(ArithOp::kDiv, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

Result<ExprPtr> Parser::ParseUnary() {
  if (AcceptSymbol("-")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    return MakeArith(ArithOp::kSub, MakeLiteral(Value::Int(0)),
                     std::move(inner));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  if (AcceptSymbol("(")) {
    DBFA_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    return inner;
  }
  if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
      t.type == TokenType::kString) {
    DBFA_ASSIGN_OR_RETURN(Value v, ParseLiteral());
    return MakeLiteral(std::move(v));
  }
  if (t.type == TokenType::kIdentifier) {
    if (EqualsIgnoreCase(t.text, "NULL")) {
      Next();
      return MakeLiteral(Value::Null());
    }
    // Function call?
    if (Peek(1).type == TokenType::kSymbol && Peek(1).text == "(") {
      std::string fn = Next().text;
      Next();  // '('
      DBFA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return MakeFunc(std::move(fn), std::move(arg));
    }
    DBFA_ASSIGN_OR_RETURN(std::string name, ParseColumnName());
    return MakeColumn(std::move(name));
  }
  return Error("expected expression");
}

// ---- statements -------------------------------------------------------------

Result<Statement> Parser::ParseCreate() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (AcceptKeyword("INDEX")) {
    CreateIndexStmt stmt;
    DBFA_ASSIGN_OR_RETURN(stmt.index_name, ExpectIdentifier());
    DBFA_RETURN_IF_ERROR(ExpectKeyword("ON"));
    DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      DBFA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      stmt.columns.push_back(std::move(col));
      if (!AcceptSymbol(",")) break;
    }
    DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }
  DBFA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  CreateTableStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.schema.name, ExpectIdentifier());
  DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    if (AcceptKeyword("PRIMARY")) {
      DBFA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
      while (true) {
        DBFA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt.schema.primary_key.push_back(std::move(col));
        if (!AcceptSymbol(",")) break;
      }
      DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else if (AcceptKeyword("FOREIGN")) {
      DBFA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
      ForeignKey fk;
      DBFA_ASSIGN_OR_RETURN(fk.column, ExpectIdentifier());
      DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
      DBFA_RETURN_IF_ERROR(ExpectKeyword("REFERENCES"));
      DBFA_ASSIGN_OR_RETURN(fk.ref_table, ExpectIdentifier());
      DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
      DBFA_ASSIGN_OR_RETURN(fk.ref_column, ExpectIdentifier());
      DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.schema.foreign_keys.push_back(std::move(fk));
    } else {
      Column col;
      DBFA_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      DBFA_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      if (EqualsIgnoreCase(type_name, "INT") ||
          EqualsIgnoreCase(type_name, "INTEGER") ||
          EqualsIgnoreCase(type_name, "BIGINT")) {
        col.type = ColumnType::kInt;
      } else if (EqualsIgnoreCase(type_name, "DOUBLE") ||
                 EqualsIgnoreCase(type_name, "FLOAT") ||
                 EqualsIgnoreCase(type_name, "REAL") ||
                 EqualsIgnoreCase(type_name, "DECIMAL")) {
        col.type = ColumnType::kDouble;
      } else if (EqualsIgnoreCase(type_name, "VARCHAR") ||
                 EqualsIgnoreCase(type_name, "CHAR") ||
                 EqualsIgnoreCase(type_name, "TEXT")) {
        col.type = ColumnType::kVarchar;
        if (AcceptSymbol("(")) {
          if (Peek().type != TokenType::kInteger) {
            return Error("expected VARCHAR length");
          }
          col.max_length = static_cast<uint32_t>(Next().int_value);
          DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
        }
      } else {
        return Error("unknown column type " + type_name);
      }
      if (AcceptKeyword("NOT")) {
        DBFA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        col.nullable = false;
      }
      stmt.schema.columns.push_back(std::move(col));
    }
    if (!AcceptSymbol(",")) break;
  }
  DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
  if (stmt.schema.columns.empty()) {
    return Error("CREATE TABLE with no columns");
  }
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseDrop() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  DBFA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  DropTableStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseInsert() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  DBFA_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  InsertStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
  DBFA_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
  while (true) {
    DBFA_RETURN_IF_ERROR(ExpectSymbol("("));
    Record row;
    while (true) {
      DBFA_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      row.push_back(std::move(v));
      if (!AcceptSymbol(",")) break;
    }
    DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    stmt.rows.push_back(std::move(row));
    if (!AcceptSymbol(",")) break;
  }
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseUpdate() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  UpdateStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
  DBFA_RETURN_IF_ERROR(ExpectKeyword("SET"));
  while (true) {
    DBFA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
    DBFA_RETURN_IF_ERROR(ExpectSymbol("="));
    DBFA_ASSIGN_OR_RETURN(Value v, ParseLiteral());
    stmt.assignments.emplace_back(std::move(col), std::move(v));
    if (!AcceptSymbol(",")) break;
  }
  if (AcceptKeyword("WHERE")) {
    DBFA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseDelete() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  DBFA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  DeleteStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
  if (AcceptKeyword("WHERE")) {
    DBFA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseSelect() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  SelectStmt stmt;
  while (true) {
    SelectItem item;
    if (AcceptSymbol("*")) {
      item.star = true;
    } else if ((PeekKeyword("COUNT") || PeekKeyword("SUM") ||
                PeekKeyword("MIN") || PeekKeyword("MAX") ||
                PeekKeyword("AVG")) &&
               Peek(1).type == TokenType::kSymbol && Peek(1).text == "(") {
      std::string fn = ToUpper(Next().text);
      if (fn == "COUNT") {
        item.agg = AggFunc::kCount;
      } else if (fn == "SUM") {
        item.agg = AggFunc::kSum;
      } else if (fn == "MIN") {
        item.agg = AggFunc::kMin;
      } else if (fn == "MAX") {
        item.agg = AggFunc::kMax;
      } else {
        item.agg = AggFunc::kAvg;
      }
      Next();  // '('
      if (AcceptSymbol("*")) {
        if (item.agg != AggFunc::kCount) {
          return Error("only COUNT(*) supports '*'");
        }
        item.star = true;
      } else {
        DBFA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      DBFA_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else {
      DBFA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (AcceptKeyword("AS")) {
      DBFA_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
    }
    stmt.items.push_back(std::move(item));
    if (!AcceptSymbol(",")) break;
  }
  DBFA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  DBFA_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());
  while (AcceptKeyword("JOIN")) {
    JoinClause join;
    DBFA_ASSIGN_OR_RETURN(join.table, ParseTableRef());
    DBFA_RETURN_IF_ERROR(ExpectKeyword("ON"));
    DBFA_ASSIGN_OR_RETURN(join.left_column, ParseColumnName());
    DBFA_RETURN_IF_ERROR(ExpectSymbol("="));
    DBFA_ASSIGN_OR_RETURN(join.right_column, ParseColumnName());
    stmt.joins.push_back(std::move(join));
  }
  if (AcceptKeyword("WHERE")) {
    DBFA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  if (AcceptKeyword("GROUP")) {
    DBFA_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      DBFA_ASSIGN_OR_RETURN(std::string col, ParseColumnName());
      stmt.group_by.push_back(std::move(col));
      if (!AcceptSymbol(",")) break;
    }
  }
  if (AcceptKeyword("ORDER")) {
    DBFA_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      OrderKey key;
      DBFA_ASSIGN_OR_RETURN(key.column, ParseColumnName());
      if (AcceptKeyword("DESC")) {
        key.descending = true;
      } else {
        AcceptKeyword("ASC");
      }
      stmt.order_by.push_back(std::move(key));
      if (!AcceptSymbol(",")) break;
    }
  }
  if (AcceptKeyword("LIMIT")) {
    if (Peek().type != TokenType::kInteger) return Error("expected LIMIT n");
    stmt.limit = Next().int_value;
  }
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseVacuum() {
  DBFA_RETURN_IF_ERROR(ExpectKeyword("VACUUM"));
  VacuumStmt stmt;
  DBFA_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
  return Statement(std::move(stmt));
}

Result<Statement> Parser::ParseStatementTop() {
  Result<Statement> result = [&]() -> Result<Statement> {
    if (PeekKeyword("CREATE")) return ParseCreate();
    if (PeekKeyword("DROP")) return ParseDrop();
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("SELECT")) return ParseSelect();
    if (PeekKeyword("VACUUM")) return ParseVacuum();
    return Error("expected a statement keyword");
  }();
  if (!result.ok()) return result;
  AcceptSymbol(";");
  if (!AtEnd()) {
    return Error("unexpected trailing input");
  }
  return result;
}

Result<ExprPtr> Parser::ParseExpressionTop() {
  DBFA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  if (!AtEnd()) return Error("unexpected trailing input");
  return e;
}

}  // namespace

Result<Statement> ParseStatement(std::string_view text) {
  DBFA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStatementTop();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  DBFA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseExpressionTop();
}

}  // namespace dbfa::sql
