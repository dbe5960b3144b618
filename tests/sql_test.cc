#include <gtest/gtest.h>

#include "oracles/expr_reference.h"
#include "sql/bound_expr.h"
#include "sql/parser.h"
#include "sql/token.h"

namespace dbfa::sql {
namespace {

// ---- tokenizer -----------------------------------------------------------

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x <= 10.5 AND y <> 'o''k'");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const Token& t : *tokens) texts.push_back(t.text);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  // Find the <= symbol and the escaped string.
  bool saw_le = false;
  bool saw_str = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol && t.text == "<=") saw_le = true;
    if (t.type == TokenType::kString && t.text == "o'k") saw_str = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_str);
}

TEST(TokenizerTest, NumbersAndNegation) {
  auto tokens = Tokenize("42 3.5 1e3 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 3.5);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 1000.0);
}

TEST(TokenizerTest, NotEqualsNormalized) {
  auto tokens = Tokenize("a != b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
}

TEST(TokenizerTest, RejectsUnterminatedStringAndBadChars) {
  EXPECT_FALSE(Tokenize("'oops").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// ---- expressions -----------------------------------------------------------
//
// Every case runs through the production evaluator (BindExpr, then
// EvalBoundPredicate and EvalBound) and through the name-resolving oracle
// (tests/oracles/expr_reference.h) over the same row; the two must agree
// on the predicate, on the value and on its type.

const std::vector<std::string> kNames = {"name", "city", "age", "score",
                                         "missing_val"};
const Record kRow = {Value::Str("Christine"), Value::Str("Chicago"),
                     Value::Int(34), Value::Real(2.5), Value::Null()};

bool Holds(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  if (!e.ok()) return false;
  auto bound = BindExpr(**e, MakeSchemaResolver(kNames, "c"));
  EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
  if (!bound.ok()) return false;
  auto r = EvalBoundPredicate(**bound, kRow);
  auto v = EvalBound(**bound, kRow);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  if (!r.ok() || !v.ok()) return false;

  sql_reference::RecordBinding binding(kNames, kRow, "c");
  auto oracle_r = sql_reference::EvalPredicate(**e, binding);
  auto oracle_v = sql_reference::Eval(**e, binding);
  EXPECT_TRUE(oracle_r.ok()) << text << ": " << oracle_r.status().ToString();
  EXPECT_TRUE(oracle_v.ok()) << text << ": " << oracle_v.status().ToString();
  if (oracle_r.ok()) {
    EXPECT_EQ(*r, *oracle_r) << text;
  }
  if (oracle_v.ok()) {
    EXPECT_EQ(v->type(), oracle_v->type()) << text;
    EXPECT_EQ(*v, *oracle_v) << text;
  }
  return *r;
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(Holds("age = 34"));
  EXPECT_TRUE(Holds("age <> 35"));
  EXPECT_TRUE(Holds("age < 35"));
  EXPECT_TRUE(Holds("age >= 34"));
  EXPECT_FALSE(Holds("age > 34"));
  EXPECT_TRUE(Holds("name = 'Christine'"));
  EXPECT_TRUE(Holds("score = 2.5"));
  EXPECT_TRUE(Holds("age = 34.0")) << "cross numeric comparison";
}

TEST(ExprTest, BooleanConnectives) {
  EXPECT_TRUE(Holds("age = 34 AND city = 'Chicago'"));
  EXPECT_FALSE(Holds("age = 34 AND city = 'Boston'"));
  EXPECT_TRUE(Holds("age = 0 OR city = 'Chicago'"));
  EXPECT_TRUE(Holds("NOT age = 0"));
  EXPECT_TRUE(Holds("age = 1 OR age = 2 OR age = 34"));
  EXPECT_TRUE(Holds("(age = 34 OR age = 1) AND NOT city = 'X'"));
}

TEST(ExprTest, LikeAndBetweenAndIn) {
  EXPECT_TRUE(Holds("name LIKE 'Chris%'"));
  EXPECT_FALSE(Holds("name NOT LIKE 'Chris%'"));
  EXPECT_TRUE(Holds("age BETWEEN 30 AND 40"));
  EXPECT_FALSE(Holds("age BETWEEN 40 AND 50"));
  EXPECT_TRUE(Holds("age NOT BETWEEN 40 AND 50"));
  EXPECT_TRUE(Holds("age IN (1, 34, 99)"));
  EXPECT_TRUE(Holds("age NOT IN (1, 2)"));
  EXPECT_TRUE(Holds("city IN ('Chicago', 'NY')"));
}

TEST(ExprTest, NullSemantics) {
  EXPECT_FALSE(Holds("missing_val = 5")) << "NULL comparison is not true";
  EXPECT_FALSE(Holds("missing_val <> 5")) << "NULL comparison is not true";
  EXPECT_TRUE(Holds("missing_val IS NULL"));
  EXPECT_FALSE(Holds("missing_val IS NOT NULL"));
  EXPECT_TRUE(Holds("age IS NOT NULL"));
}

TEST(ExprTest, ArithmeticAndFunctions) {
  EXPECT_TRUE(Holds("age * 2 = 68"));
  EXPECT_TRUE(Holds("age + 1 - 5 = 30"));
  EXPECT_TRUE(Holds("age / 2 = 17.0"));
  EXPECT_TRUE(Holds("LENGTH(name) = 9"));
  EXPECT_TRUE(Holds("LENGTH(city) > 6"));
  EXPECT_TRUE(Holds("ABS(0 - age) = 34"));
  EXPECT_TRUE(Holds("-age = -34"));
}

TEST(ExprTest, QualifiedColumn) { EXPECT_TRUE(Holds("c.name LIKE 'C%'")); }

TEST(ExprTest, UnknownColumnIsError) {
  auto e = ParseExpression("nope = 1");
  ASSERT_TRUE(e.ok());
  auto bound = BindExpr(**e, MakeSchemaResolver(kNames, "c"));
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bound.status().message(), "unknown column: nope");
  sql_reference::RecordBinding binding(kNames, kRow, "c");
  auto oracle = sql_reference::EvalPredicate(**e, binding);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), bound.status().code());
  EXPECT_EQ(oracle.status().message(), bound.status().message());
}

TEST(ExprTest, UnknownColumnFailsAtBindEvenWhereEvaluationSkipsIt) {
  // The oracle short-circuits past the bad name; binding sees every name.
  auto e = ParseExpression("age = 0 AND nope = 1");
  ASSERT_TRUE(e.ok());
  sql_reference::RecordBinding binding(kNames, kRow, "c");
  auto oracle = sql_reference::EvalPredicate(**e, binding);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(*oracle);
  auto bound = BindExpr(**e, MakeSchemaResolver(kNames, "c"));
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().message(), "unknown column: nope");
}

TEST(ExprTest, OtherQualifierDoesNotResolve) {
  auto e = ParseExpression("x.name = 'Christine'");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(BindExpr(**e, MakeSchemaResolver(kNames, "c")).ok());
  sql_reference::RecordBinding binding(kNames, kRow, "c");
  EXPECT_FALSE(sql_reference::EvalPredicate(**e, binding).ok());
}

TEST(ExprTest, EvaluationErrorsAgree) {
  for (const char* text : {"name + 1 = 2", "age LIKE 'x%'",
                           "LENGTH(age) = 2", "ABS(name) = 1"}) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    auto bound = BindExpr(**e, MakeSchemaResolver(kNames, "c"));
    ASSERT_TRUE(bound.ok()) << text;
    auto r = EvalBoundPredicate(**bound, kRow);
    sql_reference::RecordBinding binding(kNames, kRow, "c");
    auto oracle = sql_reference::EvalPredicate(**e, binding);
    ASSERT_FALSE(r.ok()) << text;
    ASSERT_FALSE(oracle.ok()) << text;
    EXPECT_EQ(r.status().code(), oracle.status().code()) << text;
    EXPECT_EQ(r.status().message(), oracle.status().message()) << text;
  }
}

TEST(ExprTest, ToSqlRoundTrip) {
  for (const char* text :
       {"((age = 34) AND (name LIKE 'C%'))", "(LENGTH(name) > 10)",
        "((a + (b * 2)) >= 7)", "(x IS NOT NULL)"}) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    std::string rendered = (*e)->ToSql();
    auto reparsed = ParseExpression(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ((*reparsed)->ToSql(), rendered);
  }
}

// ---- statements -------------------------------------------------------------

TEST(ParserTest, CreateTableFull) {
  auto stmt = ParseStatement(
      "CREATE TABLE Lineorder (lo_orderkey INT NOT NULL, lo_shipmode "
      "VARCHAR(10), lo_revenue DOUBLE, PRIMARY KEY (lo_orderkey), "
      "FOREIGN KEY (lo_orderkey) REFERENCES Orders (o_id))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& create = std::get<CreateTableStmt>(*stmt);
  EXPECT_EQ(create.schema.name, "Lineorder");
  ASSERT_EQ(create.schema.columns.size(), 3u);
  EXPECT_FALSE(create.schema.columns[0].nullable);
  EXPECT_EQ(create.schema.columns[1].max_length, 10u);
  EXPECT_EQ(create.schema.primary_key,
            std::vector<std::string>{"lo_orderkey"});
  ASSERT_EQ(create.schema.foreign_keys.size(), 1u);
  EXPECT_EQ(create.schema.foreign_keys[0].ref_table, "Orders");
}

TEST(ParserTest, CreateIndex) {
  auto stmt = ParseStatement("CREATE INDEX idx_name ON Customer (Name, City)");
  ASSERT_TRUE(stmt.ok());
  const auto& ci = std::get<CreateIndexStmt>(*stmt);
  EXPECT_EQ(ci.index_name, "idx_name");
  EXPECT_EQ(ci.table, "Customer");
  EXPECT_EQ(ci.columns, (std::vector<std::string>{"Name", "City"}));
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', NULL, 2.5), (2, 'b', 'x', -1)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& ins = std::get<InsertStmt>(*stmt);
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_EQ(ins.rows[0][0], Value::Int(1));
  EXPECT_TRUE(ins.rows[0][2].is_null());
  EXPECT_EQ(ins.rows[1][3], Value::Int(-1));
}

TEST(ParserTest, UpdateWithWhere) {
  auto stmt =
      ParseStatement("UPDATE Product SET Price = 99, Name = 'x' WHERE PID = 7");
  ASSERT_TRUE(stmt.ok());
  const auto& up = std::get<UpdateStmt>(*stmt);
  ASSERT_EQ(up.assignments.size(), 2u);
  EXPECT_EQ(up.assignments[0].first, "Price");
  EXPECT_EQ(up.assignments[0].second, Value::Int(99));
  ASSERT_NE(up.where, nullptr);
}

TEST(ParserTest, DeleteVariants) {
  auto with_where =
      ParseStatement("DELETE FROM Customer WHERE Name LIKE 'Chris%'");
  ASSERT_TRUE(with_where.ok());
  EXPECT_NE(std::get<DeleteStmt>(*with_where).where, nullptr);
  auto without = ParseStatement("DELETE FROM Customer");
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(std::get<DeleteStmt>(*without).where, nullptr);
}

TEST(ParserTest, SelectWithJoinGroupOrderLimit) {
  auto stmt = ParseStatement(
      "SELECT d_year, SUM(lo_revenue * lo_discount) AS revenue "
      "FROM lineorder AS l JOIN date AS d ON l.lo_orderdate = d.d_datekey "
      "WHERE lo_quantity < 25 GROUP BY d_year ORDER BY revenue DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& sel = std::get<SelectStmt>(*stmt);
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[1].alias, "revenue");
  EXPECT_EQ(sel.from.alias, "l");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].left_column, "l.lo_orderdate");
  EXPECT_EQ(sel.group_by, std::vector<std::string>{"d_year"});
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_EQ(sel.limit, 5);
  EXPECT_TRUE(sel.HasAggregates());
}

TEST(ParserTest, SelectStarAndCountStar) {
  auto star = ParseStatement("SELECT * FROM t WHERE RowStatus = 'DELETED'");
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(std::get<SelectStmt>(*star).items[0].star);
  auto count = ParseStatement("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<SelectStmt>(*count).items[0].agg, AggFunc::kCount);
}

TEST(ParserTest, VacuumAndDrop) {
  ASSERT_TRUE(ParseStatement("VACUUM t").ok());
  ASSERT_TRUE(ParseStatement("DROP TABLE t;").ok());
}

TEST(ParserTest, StatementToSqlRoundTrips) {
  for (const char* text : {
           "DELETE FROM Customer WHERE (City = 'Chicago')",
           "INSERT INTO t VALUES (1, 'x', NULL)",
           "UPDATE t SET a = 1 WHERE (b > 2)",
           "SELECT * FROM t",
           "DROP TABLE t",
           "VACUUM t",
       }) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    std::string sql = StatementToSql(*stmt);
    auto reparsed = ParseStatement(sql);
    ASSERT_TRUE(reparsed.ok()) << sql;
    EXPECT_EQ(StatementToSql(*reparsed), sql);
  }
}

TEST(ParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("DELETE Customer").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t (1)").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t ()").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t extra garbage tokens").ok());
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("UPDATE t SET").ok());
}

TEST(ParserTest, StatementKindNames) {
  EXPECT_STREQ(StatementKind(*ParseStatement("SELECT * FROM t")), "SELECT");
  EXPECT_STREQ(StatementKind(*ParseStatement("DELETE FROM t")), "DELETE");
  EXPECT_STREQ(StatementKind(*ParseStatement("VACUUM t")), "VACUUM");
}

}  // namespace
}  // namespace dbfa::sql
