// Property-based tests: randomized operation streams checked against
// reference models and carving invariants, swept across all dialects.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/carver.h"
#include "engine/database.h"
#include "sql/bound_expr.h"
#include "sql/parser.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  return config;
}

Value RandomValue(Rng* rng, ColumnType type, uint32_t max_length) {
  if (rng->Bernoulli(0.08)) return Value::Null();
  switch (type) {
    case ColumnType::kInt:
      return Value::Int(rng->Uniform(-1'000'000, 1'000'000));
    case ColumnType::kDouble:
      return Value::Real(static_cast<double>(rng->Uniform(-10000, 10000)) /
                         8.0);
    case ColumnType::kVarchar: {
      size_t n = static_cast<size_t>(
          rng->Uniform(0, max_length > 0 ? max_length : 24));
      return Value::Str(rng->Word(n));
    }
  }
  return Value::Null();
}

// ---- Property 1: random records round-trip through every page format -----

class RecordRoundTripProperty : public ::testing::TestWithParam<std::string> {
};

TEST_P(RecordRoundTripProperty, RandomRecordsEncodeDecodeExactly) {
  PageLayoutParams params = GetDialect(GetParam()).value();
  PageFormatter fmt(params);
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Random schema: 1..10 columns of random types.
    TableSchema schema;
    schema.name = "T";
    int ncols = static_cast<int>(rng.Uniform(1, 10));
    for (int c = 0; c < ncols; ++c) {
      Column col;
      col.name = "c" + std::to_string(c);
      switch (rng.Uniform(0, 2)) {
        case 0:
          col.type = ColumnType::kInt;
          break;
        case 1:
          col.type = ColumnType::kDouble;
          break;
        default:
          col.type = ColumnType::kVarchar;
          col.max_length = static_cast<uint32_t>(rng.Uniform(1, 40));
      }
      schema.columns.push_back(col);
    }
    Bytes page(params.page_size);
    fmt.InitPage(page.data(), 1, 2, PageType::kData);
    std::vector<Record> originals;
    for (int r = 0; r < 20; ++r) {
      Record rec;
      for (const Column& col : schema.columns) {
        rec.push_back(RandomValue(&rng, col.type, col.max_length));
      }
      auto encoded = fmt.EncodeRecord(schema, rec, r + 1);
      ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
      auto slot = fmt.InsertRecordBytes(page.data(), *encoded);
      if (!slot.ok()) break;  // page full; enough coverage
      originals.push_back(rec);
    }
    for (size_t s = 0; s < originals.size(); ++s) {
      auto info = fmt.GetSlot(page.data(), static_cast<uint16_t>(s));
      ASSERT_TRUE(info.has_value());
      auto parsed = fmt.ParseRecordAt(ByteView(page.data(), page.size()),
                                      info->offset);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      auto decoded = fmt.DecodeTyped(*parsed, schema);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(CompareRecords(*decoded, originals[s]), 0)
          << "trial " << trial << " slot " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, RecordRoundTripProperty,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// ---- Property 2: engine vs reference model, then carve consistency --------

class EngineModelProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineModelProperty, RandomOpsMatchReferenceModelAndCarve) {
  DatabaseOptions options;
  options.dialect = GetParam();
  options.buffer_pool_pages = 16;  // force eviction traffic
  auto db = Database::Open(options).value();
  TableSchema schema;
  schema.name = "T";
  schema.columns = {{"k", ColumnType::kInt, 0, false},
                    {"v", ColumnType::kVarchar, 24, true}};
  schema.primary_key = {"k"};
  ASSERT_TRUE(db->CreateTable(schema).ok());

  std::map<int64_t, std::string> model;  // reference: live rows
  std::set<std::string> ever_deleted_values;
  Rng rng(GetParam().size() * 1337 + 11);
  int64_t next_key = 1;
  for (int op = 0; op < 600; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.55 || model.empty()) {
      int64_t k = next_key++;
      std::string v = "val-" + rng.Word(8);
      ASSERT_TRUE(db->Insert("T", {Value::Int(k), Value::Str(v)}).ok());
      model[k] = v;
    } else if (dice < 0.8) {
      // Delete a random existing key.
      auto it = model.begin();
      std::advance(it, rng.NextU64() % model.size());
      auto where = sql::ParseExpression("k = " + std::to_string(it->first));
      auto n = db->Delete("T", *where);
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, 1);
      ever_deleted_values.insert(it->second);
      model.erase(it);
    } else {
      // Update a random existing key's value.
      auto it = model.begin();
      std::advance(it, rng.NextU64() % model.size());
      std::string v = "upd-" + rng.Word(8);
      auto where = sql::ParseExpression("k = " + std::to_string(it->first));
      auto n = db->Update("T", {{"v", Value::Str(v)}}, *where);
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, 1);
      ever_deleted_values.insert(it->second);  // pre-image becomes residue
      it->second = v;
    }
  }

  // 1. SQL view == reference model (via PK index point lookups and scan).
  auto all = db->ExecuteSql("SELECT * FROM T");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), model.size());
  for (const Record& row : all->rows) {
    auto it = model.find(row[0].as_int());
    ASSERT_NE(it, model.end());
    EXPECT_EQ(row[1], Value::Str(it->second));
  }
  for (int probe = 0; probe < 20 && !model.empty(); ++probe) {
    auto it = model.begin();
    std::advance(it, rng.NextU64() % model.size());
    auto one = db->ExecuteSql("SELECT v FROM T WHERE k = " +
                              std::to_string(it->first));
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one->rows.size(), 1u);
    EXPECT_EQ(one->rows[0][0], Value::Str(it->second));
    EXPECT_EQ(db->last_access_path(), AccessPath::kIndexScan);
  }

  // 2. Carve == model for active rows; every deleted value is residue.
  Carver carver(ConfigFor(GetParam()));
  auto carve = carver.Carve(db->SnapshotDisk().value());
  ASSERT_TRUE(carve.ok());
  std::map<int64_t, std::string> carved_active;
  size_t carved_deleted = 0;
  for (const CarvedRecord* r : carve->RecordsForTable("T")) {
    if (!r->typed) continue;
    if (r->status == RowStatus::kActive) {
      carved_active[r->values[0].as_int()] = r->values[1].as_string();
    } else {
      ++carved_deleted;
    }
  }
  EXPECT_EQ(carved_active.size(), model.size());
  for (const auto& [k, v] : model) {
    auto it = carved_active.find(k);
    ASSERT_NE(it, carved_active.end()) << "missing active key " << k;
    EXPECT_EQ(it->second, v);
  }
  // No reuse/vacuum happened, so every delete/update left carvable residue.
  EXPECT_EQ(carved_deleted, ever_deleted_values.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, EngineModelProperty,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// ---- Property 3: carver never crashes and stays sane on corrupted input ---

class CorruptionProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(CorruptionProperty, RandomCorruptionNeverBreaksInvariants) {
  DatabaseOptions options;
  options.dialect = GetParam();
  auto db = Database::Open(options).value();
  TableSchema schema;
  schema.name = "T";
  schema.columns = {{"k", ColumnType::kInt, 0, false},
                    {"v", ColumnType::kVarchar, 24, true}};
  schema.primary_key = {"k"};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  for (int i = 1; i <= 400; ++i) {
    ASSERT_TRUE(
        db->Insert("T", {Value::Int(i), Value::Str("value-padding")}).ok());
  }
  Bytes pristine = db->SnapshotDisk().value();
  Carver carver(ConfigFor(GetParam()));
  size_t baseline = carver.Carve(pristine).value().records.size();

  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    Bytes image = pristine;
    // Corrupt 1-4 random regions of 1-600 bytes.
    int regions = static_cast<int>(rng.Uniform(1, 4));
    for (int r = 0; r < regions; ++r) {
      size_t offset = rng.NextU64() % image.size();
      size_t len = static_cast<size_t>(rng.Uniform(1, 600));
      CorruptRegion(&image, offset, len, &rng);
    }
    auto carve = carver.Carve(image);
    ASSERT_TRUE(carve.ok()) << "carver must never fail outright";
    // Invariants on whatever was recovered:
    EXPECT_LE(carve->records.size(), baseline + 8)
        << "corruption must not conjure many phantom records";
    for (const CarvedRecord& rec : carve->records) {
      EXPECT_LE(rec.values.size(), 64u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, CorruptionProperty,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// ---- Property 4: SQL expression parser round-trip under random ASTs -------

TEST(SqlRoundTripProperty, RandomExpressionsSurviveParseRenderParse) {
  Rng rng(7);
  auto random_literal = [&]() {
    switch (rng.Uniform(0, 2)) {
      case 0:
        return sql::MakeLiteral(Value::Int(rng.Uniform(-999, 999)));
      case 1:
        return sql::MakeLiteral(Value::Str(rng.Word(4)));
      default:
        return sql::MakeLiteral(Value::Null());
    }
  };
  std::function<sql::ExprPtr(int)> random_expr = [&](int depth) {
    if (depth <= 0 || rng.Bernoulli(0.3)) {
      if (rng.Bernoulli(0.5)) return random_literal();
      return sql::MakeColumn("col" + std::to_string(rng.Uniform(0, 5)));
    }
    switch (rng.Uniform(0, 5)) {
      case 0:
        return sql::MakeCompare(
            static_cast<sql::CompareOp>(rng.Uniform(0, 5)),
            random_expr(depth - 1), random_expr(depth - 1));
      case 1:
        return sql::MakeAnd(random_expr(depth - 1), random_expr(depth - 1));
      case 2:
        return sql::MakeOr(random_expr(depth - 1), random_expr(depth - 1));
      case 3:
        return sql::MakeNot(random_expr(depth - 1));
      case 4:
        return sql::MakeIsNull(random_expr(depth - 1), rng.Bernoulli(0.5));
      default:
        return sql::MakeArith(
            static_cast<sql::ArithOp>(rng.Uniform(0, 3)),
            random_expr(depth - 1), random_expr(depth - 1));
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    sql::ExprPtr e = random_expr(4);
    // First parse normalizes sugar (e.g. a negative literal becomes the
    // unary-minus form (0 - n)); after that, render->parse->render must be
    // a fixpoint.
    auto once = sql::ParseExpression(e->ToSql());
    ASSERT_TRUE(once.ok()) << e->ToSql() << ": "
                           << once.status().ToString();
    std::string normalized = (*once)->ToSql();
    auto twice = sql::ParseExpression(normalized);
    ASSERT_TRUE(twice.ok()) << normalized;
    EXPECT_EQ((*twice)->ToSql(), normalized) << "trial " << trial;
  }
}

// ---- Property 5: the SQL front end never crashes on arbitrary input -------

TEST(SqlFuzzProperty, RandomBytesNeverCrashTheParser) {
  Rng rng(4242);
  const char* fragments[] = {"SELECT", "FROM", "WHERE", "(", ")", ",",
                             "'", "*", "=", "<", "INSERT", "VALUES",
                             "AND", "NOT", "1", "x", ";", "LIKE", "--"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    size_t pieces = rng.NextU64() % 20;
    for (size_t i = 0; i < pieces; ++i) {
      if (rng.Bernoulli(0.3)) {
        input += static_cast<char>(rng.NextU64() % 256);
      } else {
        input += fragments[rng.NextU64() % 19];
        input += ' ';
      }
    }
    // Must return a Status, never crash or hang.
    (void)sql::ParseStatement(input);
    (void)sql::ParseExpression(input);
  }
}

TEST(SqlFuzzProperty, DeeplyNestedExpressionsParse) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  auto parsed = sql::ParseExpression(expr);
  ASSERT_TRUE(parsed.ok());
  // And bind and evaluate correctly (no columns to resolve).
  auto bound = sql::BindExpr(**parsed, sql::MakeSchemaResolver({}, ""));
  ASSERT_TRUE(bound.ok());
  auto v = sql::EvalBound(**bound, Record{});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(201));
}

}  // namespace
}  // namespace dbfa
