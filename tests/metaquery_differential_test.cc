// Differential suite: the tuple-at-a-time reference executor
// (tests/oracles/) is the oracle, and the streaming engine must reproduce
// its results exactly — same column names, same rows, same order, same
// value types, bit-identical doubles — at every memory budget (0 =
// unbounded, then 4 KiB to 1 MiB, where 4 KiB forces every operator to
// spill) and thread count. Runs under the `sanitize` CTest label so TSan
// sees the parallel partitions with real thread interleavings, and under
// `spill` for the low-budget CI job.
//
// Double-valued columns hold multiples of 0.1, which binary floating point
// cannot represent exactly, so SUM/AVG agree only because both executors
// fold each group's rows in input order (docs/metaquery_engine.md).
#include <gtest/gtest.h>

#include <map>
#include <variant>

#include "common/rng.h"
#include "common/strings.h"
#include "metaquery/exec_common.h"
#include "metaquery/session.h"
#include "oracles/reference_executor.h"
#include "sql/parser.h"

namespace dbfa {
namespace {

std::string DescribeCell(const Value& v) {
  return std::string(ValueTypeName(v.type())) + ":" + v.ToSqlLiteral();
}

/// Exact equality: same columns, same row count, and cell-by-cell same
/// type and same value (Value::Compare, which is exact for doubles).
void ExpectSameTable(const QueryTable& expected, const QueryTable& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.columns, actual.columns) << context;
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << context;
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    ASSERT_EQ(expected.rows[r].size(), actual.rows[r].size())
        << context << " row " << r;
    for (size_t c = 0; c < expected.rows[r].size(); ++c) {
      const Value& e = expected.rows[r][c];
      const Value& a = actual.rows[r][c];
      ASSERT_TRUE(e.type() == a.type() && Value::Compare(e, a) == 0)
          << context << " row " << r << " col " << c << ": expected "
          << DescribeCell(e) << ", got " << DescribeCell(a);
    }
  }
}

using RelationMap = std::map<std::string, std::shared_ptr<Relation>>;

/// Runs `query` on the reference executor over `relations` (names matched
/// case-insensitively, as MetaQuerySession does).
Result<QueryTable> QueryReference(const std::string& query,
                                  const RelationMap& relations) {
  DBFA_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(query));
  const auto* select = std::get_if<sql::SelectStmt>(&stmt);
  if (select == nullptr) return Status::InvalidArgument("not a SELECT");
  return metaquery_internal::ExecuteReference(
      *select,
      [&](const std::string& name) -> Result<std::shared_ptr<Relation>> {
        auto it = relations.find(ToLower(name));
        if (it == relations.end()) {
          return Status::NotFound("unknown relation: " + name);
        }
        return it->second;
      });
}

/// Every query against the reference, then against the streaming engine at
/// budgets {unbounded, 4 KiB, 64 KiB, 1 MiB} x threads {1, 2, 8}.
void ExpectEngineMatchesReference(const std::vector<std::string>& queries,
                                  const RelationMap& relations) {
  for (const std::string& query : queries) {
    auto expected = QueryReference(query, relations);
    ASSERT_TRUE(expected.ok())
        << query << ": " << expected.status().ToString();
    for (size_t budget : {0u, 4096u, 65536u, 1048576u}) {
      for (size_t threads : {1u, 2u, 8u}) {
        MetaQueryOptions options;
        options.num_threads = threads;
        options.memory_budget_bytes = budget;
        MetaQuerySession session(options);
        for (const auto& [name, relation] : relations) {
          session.Register(name, relation);
        }
        auto actual = session.Query(query);
        ASSERT_TRUE(actual.ok())
            << query << ": " << actual.status().ToString();
        ExpectSameTable(*expected, *actual,
                        StrFormat("[budget=%zu threads=%zu] %s", budget,
                                  threads, query.c_str()));
      }
    }
  }
}

/// A double in 0.1 steps — not exactly representable, so any change in
/// summation order shows up in the low bits.
Value TenthsValue(Rng* rng, int64_t lo, int64_t hi) {
  return Value::Real(0.1 * static_cast<double>(rng->Uniform(lo, hi)));
}

/// T1(id, g, d, s): sequential ids; g a small int with NULLs (GROUP BY
/// with NULL keys); d a double in 0.1 steps with heavy ties (ORDER BY DESC
/// with ties); s a short word from a small pool.
std::shared_ptr<Relation> MakeT1(Rng* rng, size_t n) {
  std::vector<std::string> pool = {"ant", "bee", "cat", "dog", "elk"};
  std::vector<Record> rows;
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.push_back(Value::Int(static_cast<int64_t>(i)));
    r.push_back(rng->Bernoulli(0.15) ? Value::Null()
                                     : Value::Int(rng->Uniform(0, 4)));
    r.push_back(rng->Bernoulli(0.1) ? Value::Null()
                                    : TenthsValue(rng, -100, 100));
    r.push_back(Value::Str(rng->Pick(pool)));
    rows.push_back(std::move(r));
  }
  return std::make_shared<VectorRelation>(
      std::vector<std::string>{"id", "g", "d", "s"}, std::move(rows));
}

/// T2(k, w): join partner. Keys are duplicated (every key ~4 times on
/// average) and a third of them are stored as the Compare-equal double
/// (Int(5) vs Real(5.0) hash identically — the hash-collision / cross-type
/// case for the Value-keyed join table). NULL keys must never join.
std::shared_ptr<Relation> MakeT2(Rng* rng, size_t n, int64_t key_space) {
  std::vector<Record> rows;
  for (size_t i = 0; i < n; ++i) {
    Record r;
    if (rng->Bernoulli(0.05)) {
      r.push_back(Value::Null());
    } else {
      int64_t k = rng->Uniform(0, key_space - 1);
      r.push_back(rng->Bernoulli(0.33)
                      ? Value::Real(static_cast<double>(k))
                      : Value::Int(k));
    }
    r.push_back(Value::Int(rng->Uniform(0, 9)));
    rows.push_back(std::move(r));
  }
  return std::make_shared<VectorRelation>(
      std::vector<std::string>{"k", "w"}, std::move(rows));
}

/// A random well-typed predicate over T1's columns (optionally qualified
/// for the joined shape).
std::string RandomPredicate(Rng* rng) {
  std::vector<std::string> preds = {
      "id >= %d",
      "g = %d",
      "g <> %d",
      "d > %d",
      "d <= %d",
      "g IS NULL",
      "g IS NOT NULL",
      "d IS NULL",
      "s LIKE 'a%%'",
      "s NOT LIKE '%%t'",
      "LENGTH(s) = 3",
      "ABS(d) < %d",
      "id + g > %d",
      "d * 2 >= %d",
      "g BETWEEN 1 AND 3",
      "g IN (0, 2, 4)",
  };
  std::string chosen = rng->Pick(preds);
  if (chosen.find("%d") != std::string::npos) {
    return StrFormat(chosen.c_str(), static_cast<int>(rng->Uniform(-5, 60)));
  }
  return chosen;
}

std::string RandomWhere(Rng* rng) {
  std::string a = RandomPredicate(rng);
  if (rng->Bernoulli(0.5)) return a;
  std::string b = RandomPredicate(rng);
  const char* op = rng->Bernoulli(0.5) ? "AND" : "OR";
  std::string combined = StrFormat("(%s) %s (%s)", a.c_str(), op, b.c_str());
  if (rng->Bernoulli(0.2)) return "NOT (" + combined + ")";
  return combined;
}

std::string RandomQuery(Rng* rng) {
  std::string where = RandomWhere(rng);
  switch (rng->Uniform(0, 5)) {
    case 0:  // projection with expressions, ORDER BY DESC with ties
      return StrFormat(
          "SELECT id, d, id + g AS e FROM T1 WHERE %s "
          "ORDER BY d DESC, id",
          where.c_str());
    case 1:  // SELECT * with LIMIT (sometimes LIMIT 0)
      return StrFormat("SELECT * FROM T1 WHERE %s ORDER BY id LIMIT %d",
                       where.c_str(),
                       static_cast<int>(rng->Uniform(0, 3)) * 7);
    case 2:  // GROUP BY with NULL keys and every aggregate
      return StrFormat(
          "SELECT g, COUNT(*) AS n, SUM(d) AS sd, MIN(d) AS lo, "
          "MAX(d) AS hi, AVG(d) AS mean FROM T1 WHERE %s GROUP BY g "
          "ORDER BY n DESC",
          where.c_str());
    case 3:  // ungrouped aggregates (empty-input path when WHERE kills all)
      return StrFormat(
          "SELECT COUNT(*) AS n, SUM(id) AS si, AVG(d) AS mean FROM T1 "
          "WHERE %s",
          where.c_str());
    case 4:  // join with duplicate and cross-type keys
      return StrFormat(
          "SELECT T1.id, T1.s, T2.w FROM T1 JOIN T2 ON g = k WHERE %s "
          "ORDER BY T1.id LIMIT 200",
          where.c_str());
    default:  // aggregate over a join, grouped by the string column
      return StrFormat(
          "SELECT s, COUNT(*) AS n, SUM(w) AS sw FROM T1 "
          "JOIN T2 ON g = k WHERE %s GROUP BY s ORDER BY s",
          where.c_str());
  }
}

class MetaQueryDifferentialTest : public ::testing::Test {
 protected:
  void RunDifferential(uint64_t seed, size_t t1_rows, size_t t2_rows) {
    Rng rng(seed);
    RelationMap relations;
    relations["t1"] = MakeT1(&rng, t1_rows);
    relations["t2"] = MakeT2(&rng, t2_rows, 6);

    std::vector<std::string> queries;
    // Fixed regression shapes first, then randomized ones.
    queries.push_back("SELECT * FROM T1 ORDER BY id LIMIT 0");
    queries.push_back(
        "SELECT g, COUNT(*) AS n FROM T1 GROUP BY g ORDER BY n DESC");
    queries.push_back(
        "SELECT T1.id, T2.w FROM T1 JOIN T2 ON g = k ORDER BY T1.id, T2.w");
    queries.push_back(
        "SELECT COUNT(*) AS n FROM T1 WHERE id < 0");  // empty input
    for (int q = 0; q < 24; ++q) queries.push_back(RandomQuery(&rng));
    ExpectEngineMatchesReference(queries, relations);
  }
};

TEST_F(MetaQueryDifferentialTest, RandomizedQueriesSeed1) {
  RunDifferential(/*seed=*/101, /*t1_rows=*/400, /*t2_rows=*/120);
}

TEST_F(MetaQueryDifferentialTest, RandomizedQueriesSeed2) {
  RunDifferential(/*seed=*/202, /*t1_rows=*/700, /*t2_rows=*/60);
}

TEST_F(MetaQueryDifferentialTest, TinyAndEmptyRelations) {
  RunDifferential(/*seed=*/303, /*t1_rows=*/3, /*t2_rows=*/1);
  RunDifferential(/*seed=*/404, /*t1_rows=*/0, /*t2_rows=*/0);
}

TEST_F(MetaQueryDifferentialTest, BatchBoundaryExactMultiples) {
  // Power-of-two row counts: inputs that end exactly where a spill run or a
  // partition boundary would fall in a naive layout.
  RunDifferential(/*seed=*/505, /*t1_rows=*/128, /*t2_rows=*/64);
}

TEST_F(MetaQueryDifferentialTest, MorselBoundariesMatchReference) {
  // T1 spans five morsels plus an uneven tail, so scans, filters, probes
  // and projections run as several morsels on the pool and the sinks must
  // stitch their outputs back together in scan order. T3 spans two
  // morsels plus a tail; its keys repeat (about twice each, at random
  // positions) and a third are stored as Compare-equal doubles, so
  // build-side chains cross its morsel boundaries. Probe keys repeat
  // across T1's morsels (g).
  const size_t m = metaquery_internal::kMorselRows;
  Rng rng(808);
  RelationMap relations;
  relations["t1"] = MakeT1(&rng, 5 * m + 7);
  relations["t2"] = MakeT2(&rng, 24, 6);
  relations["t3"] = MakeT2(&rng, 2 * m + 7, static_cast<int64_t>(m));
  std::vector<std::string> queries = {
      // No ORDER BY: output order is scan / probe order across morsels.
      "SELECT id, d, s FROM T1 WHERE d > 3",
      "SELECT * FROM T1",
      "SELECT T1.id, T3.w FROM T1 JOIN T3 ON id = k",
      "SELECT T1.id, T3.w, d FROM T1 JOIN T3 ON id = k WHERE d > 0 OR w > 5",
      // Sequential double folds over rows from every morsel.
      "SELECT s, COUNT(*) AS n, SUM(d) AS sd, AVG(d) AS mean FROM T1 "
      "JOIN T3 ON id = k GROUP BY s",
      "SELECT g, SUM(d) AS sd, MIN(d) AS lo FROM T1 WHERE s <> 'cat' "
      "GROUP BY g",
      "SELECT SUM(d) AS sd, AVG(d) AS mean FROM T1",
      // Two fast-path probes in one pipeline.
      "SELECT T2.w, COUNT(*) AS n, SUM(d) AS sd FROM T1 JOIN T3 ON "
      "id = T3.k JOIN T2 ON g = T2.k WHERE T3.w < 7 GROUP BY T2.w",
  };
  for (int q = 0; q < 10; ++q) queries.push_back(RandomQuery(&rng));
  ExpectEngineMatchesReference(queries, relations);
}

TEST_F(MetaQueryDifferentialTest, TopKMatchesReference) {
  // ORDER BY ... LIMIT keeps only the best k rows by (sort key, arrival).
  // d has heavy ties and NULLs, g five values and NULLs, so ties straddle
  // the k-th row; LIMIT 0, 1, the row count and beyond it are the edges.
  // At the smaller budgets a full sort of these rows spills runs.
  const size_t m = metaquery_internal::kMorselRows;
  const size_t rows = 3 * m + 7;
  Rng rng(909);
  RelationMap relations;
  relations["t1"] = MakeT1(&rng, rows);
  relations["t2"] = MakeT2(&rng, 30, 6);
  ExpectEngineMatchesReference(
      {
          "SELECT id, d FROM T1 ORDER BY d DESC LIMIT 7",
          "SELECT id, g, d FROM T1 ORDER BY g LIMIT 100",
          "SELECT id, g FROM T1 ORDER BY g DESC LIMIT 1",
          "SELECT id, d FROM T1 ORDER BY d LIMIT 0",
          "SELECT id, d FROM T1 ORDER BY d LIMIT 1",
          StrFormat("SELECT id, d, s FROM T1 ORDER BY s, d DESC LIMIT %zu",
                    rows),
          StrFormat("SELECT * FROM T1 ORDER BY d LIMIT %zu", rows + 50),
          "SELECT id, g, d, s FROM T1 ORDER BY g DESC, d, s DESC LIMIT 50",
          "SELECT id, d FROM T1 WHERE g IS NULL ORDER BY d DESC, id LIMIT 30",
          "SELECT g, COUNT(*) AS n FROM T1 GROUP BY g ORDER BY n DESC LIMIT 2",
          "SELECT T1.id, T2.w, d FROM T1 JOIN T2 ON g = k "
          "ORDER BY T2.w DESC, d LIMIT 25",
          "SELECT id, d FROM T1 LIMIT 9",
      },
      relations);
}

TEST_F(MetaQueryDifferentialTest, TenthStepDoubleSumsMatchSequentialFold) {
  // SUM/AVG over doubles in 0.1 steps are sensitive to summation order: any
  // engine that folds a group's rows in a different association (per-batch
  // partials, per-partition merges) diverges from the reference here. 40
  // groups over 3000 rows overflow the 4 KiB and 64 KiB group tables, so
  // the partitioned aggregation path is covered too.
  Rng rng(606);
  std::vector<Record> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(rng.Uniform(0, 39)),
                    rng.Bernoulli(0.05) ? Value::Null()
                                        : TenthsValue(&rng, -5000, 5000)});
  }
  RelationMap relations;
  relations["t"] = std::make_shared<VectorRelation>(
      std::vector<std::string>{"id", "g", "d"}, std::move(rows));
  relations["t2"] = MakeT2(&rng, 200, 40);
  ExpectEngineMatchesReference(
      {
          "SELECT g, SUM(d), AVG(d) FROM T GROUP BY g",
          "SELECT g, SUM(d), AVG(d) FROM T WHERE id >= 7 GROUP BY g "
          "ORDER BY g DESC",
          "SELECT SUM(d), AVG(d) FROM T",
          "SELECT w, SUM(d), AVG(d) FROM T JOIN T2 ON g = k GROUP BY w",
      },
      relations);
}

TEST_F(MetaQueryDifferentialTest, ErrorsMatchReference) {
  // Failing queries fail with the reference's error at every budget and
  // thread count — including which error wins when several stages would
  // fail: a WHERE error beats a GROUP BY planning error, as it does when
  // every stage runs to completion before the next.
  Rng rng(707);
  RelationMap relations;
  relations["t1"] = MakeT1(&rng, 300);
  relations["t2"] = MakeT2(&rng, 60, 6);
  // E spans five morsels plus a tail and F two, with one ill-typed cell per
  // column placed so that a later stage fails in an early morsel while an
  // earlier stage fails in a later one: a (projection / aggregate input)
  // fails at row 3, c (WHERE) in the middle morsel, b (WHERE) in the last.
  // Taking errors in completion order, or by seq across stages, breaks
  // these. Every failing row has join partners in F (k < 2000).
  const size_t m = metaquery_internal::kMorselRows;
  const size_t e_rows = 5 * m + 7;
  std::vector<Record> e;
  for (size_t i = 0; i < e_rows; ++i) {
    int64_t id = static_cast<int64_t>(i);
    e.push_back({Value::Int(id),
                 i == 3 ? Value::Str("a3") : Value::Int(id % 11),
                 i == e_rows - 3 ? Value::Str("b") : Value::Int(id % 13),
                 i == 2 * m + 5 ? Value::Int(7) : Value::Str("c"),
                 Value::Int(id % 2500)});
  }
  relations["e"] = std::make_shared<VectorRelation>(
      std::vector<std::string>{"id", "a", "b", "c", "k"}, std::move(e));
  std::vector<Record> f;
  for (size_t j = 0; j < 2 * m + 7; ++j) {
    int64_t v = static_cast<int64_t>(j);
    f.push_back({Value::Int(v % 2000),
                 j == 5 ? Value::Str("fv") : Value::Int(v % 17)});
  }
  relations["f"] = std::make_shared<VectorRelation>(
      std::vector<std::string>{"fk", "fv"}, std::move(f));
  for (const char* query : {
           "SELECT id FROM T1 WHERE s + 1 > 0",
           "SELECT g, COUNT(*) AS n FROM T1 WHERE s + 1 > 0 GROUP BY nope",
           "SELECT id, s * 2 AS x FROM T1 WHERE id >= 0",
           "SELECT g, SUM(s + 1) AS x FROM T1 GROUP BY g",
           "SELECT id FROM T1 ORDER BY nosuch",
           "SELECT T1.id FROM T1 JOIN T2 ON zz = qq",
           "SELECT id FROM missing",
           // Projection fails in morsel 0, WHERE in the last morsel.
           "SELECT id, ABS(a) AS x FROM E WHERE b + 1 > 0",
           // Two WHERE failures: the middle morsel's row comes first.
           "SELECT id FROM E WHERE b + 1 > 0 AND LENGTH(c) > 0",
           // Aggregate input fails at row 3, WHERE in the last morsel.
           "SELECT k, SUM(a + 1) AS x FROM E WHERE b + 1 > 0 GROUP BY k",
           // Fused WHERE (probe) fails in the last morsel, projection of a
           // joined row from morsel 0 earlier.
           "SELECT E.id, ABS(fv) AS x FROM E JOIN F ON k = fk "
           "WHERE b + 1 > 0",
           // Probe error in the middle morsel against an aggregate error in
           // morsel 0.
           "SELECT k, SUM(a + 1) AS x FROM E JOIN F ON k = fk "
           "WHERE LENGTH(c) > 0 GROUP BY k",
       }) {
    auto expected = QueryReference(query, relations);
    ASSERT_FALSE(expected.ok()) << query;
    for (size_t budget : {0u, 4096u}) {
      for (size_t threads : {1u, 8u}) {
        MetaQueryOptions options;
        options.num_threads = threads;
        options.memory_budget_bytes = budget;
        MetaQuerySession session(options);
        for (const auto& [name, relation] : relations) {
          session.Register(name, relation);
        }
        auto actual = session.Query(query);
        ASSERT_FALSE(actual.ok()) << query;
        EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
            << "[budget=" << budget << " threads=" << threads << "] "
            << query;
      }
    }
  }
}

}  // namespace
}  // namespace dbfa
