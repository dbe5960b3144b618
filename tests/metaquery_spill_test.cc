// Out-of-core tests: budget-fuzzed equivalence against the unbounded
// (budget 0) run, adversarial skew (join keys and groups that
// hash-partitioning cannot split), the 8x-over-budget join+aggregation
// acceptance shape, spill accounting, error parity, and temp-file hygiene
// — the spill directory must be empty after every query, including one
// aborted by a mid-scan failure, and never created at budget 0.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "metaquery/session.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

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
          << e.ToSqlLiteral() << ", got " << a.ToSqlLiteral();
    }
  }
}

/// fact(id, k, g, d, s): the driving relation. d holds multiples of 0.25
/// so double aggregates are exact; s pads rows so byte budgets bite.
std::shared_ptr<Relation> MakeFact(Rng* rng, size_t n, int64_t key_space) {
  std::vector<std::string> pool = {"north", "south", "east", "west"};
  std::vector<Record> rows;
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.push_back(Value::Int(static_cast<int64_t>(i)));
    r.push_back(rng->Bernoulli(0.04)
                    ? Value::Null()
                    : Value::Int(rng->Uniform(0, key_space - 1)));
    r.push_back(Value::Int(rng->Uniform(0, 7)));
    r.push_back(
        Value::Real(0.25 * static_cast<double>(rng->Uniform(-200, 200))));
    r.push_back(Value::Str(rng->Pick(pool) + std::string(16, '.')));
    rows.push_back(std::move(r));
  }
  return std::make_shared<VectorRelation>(
      std::vector<std::string>{"id", "k", "g", "d", "s"}, std::move(rows));
}

/// dim(k, label, w): join partner with duplicated and cross-type keys.
std::shared_ptr<Relation> MakeDim(Rng* rng, size_t n, int64_t key_space) {
  std::vector<Record> rows;
  for (size_t i = 0; i < n; ++i) {
    Record r;
    int64_t k = rng->Uniform(0, key_space - 1);
    r.push_back(rng->Bernoulli(0.25) ? Value::Real(static_cast<double>(k))
                                     : Value::Int(k));
    r.push_back(Value::Str(StrFormat("label-%d", static_cast<int>(k % 10))));
    r.push_back(Value::Int(rng->Uniform(0, 99)));
    rows.push_back(std::move(r));
  }
  return std::make_shared<VectorRelation>(
      std::vector<std::string>{"k", "label", "w"}, std::move(rows));
}

/// Relation wrapper whose Scan fails after `fail_after` rows — forces a
/// mid-query abort while spill files are already on disk.
class FailingRelation : public Relation {
 public:
  FailingRelation(std::shared_ptr<Relation> inner, size_t fail_after)
      : inner_(std::move(inner)), fail_after_(fail_after) {}

  const std::vector<std::string>& columns() const override {
    return inner_->columns();
  }

  Status Scan(const std::function<Status(const Record&)>& fn) const override {
    size_t seen = 0;
    return inner_->Scan([&](const Record& r) {
      if (++seen > fail_after_) return Status::IoError("injected scan fault");
      return fn(r);
    });
  }

 private:
  std::shared_ptr<Relation> inner_;
  size_t fail_after_;
};

std::unique_ptr<MetaQuerySession> MakeSession(
    const std::shared_ptr<Relation>& fact,
    const std::shared_ptr<Relation>& dim, MetaQueryOptions options) {
  auto session = std::make_unique<MetaQuerySession>(options);
  session->Register("fact", fact);
  session->Register("dim", dim);
  return session;
}

/// Counts entries in `dir` (non-recursively); 0 for a missing dir.
size_t DirEntries(const std::string& dir) {
  if (!fs::exists(dir)) return 0;
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++n;
  return n;
}

TEST(MetaQuerySpillTest, BudgetFuzzMatchesUnlimited) {
  Rng rng(20260806);
  auto fact = MakeFact(&rng, 1500, 12);
  auto dim = MakeDim(&rng, 300, 12);

  MetaQueryOptions unlimited;
  unlimited.num_threads = 2;
  std::unique_ptr<MetaQuerySession> baseline =
      MakeSession(fact, dim, unlimited);

  std::vector<std::string> shapes = {
      "SELECT id, d, s FROM fact WHERE %s ORDER BY d DESC, id",
      "SELECT * FROM fact WHERE %s ORDER BY id LIMIT 100",
      "SELECT g, COUNT(*) AS n, SUM(d) AS sd, MIN(d) AS lo, MAX(d) AS hi, "
      "AVG(d) AS mean FROM fact WHERE %s GROUP BY g ORDER BY n DESC",
      "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE %s ORDER BY fact.id, dim.w LIMIT 500",
      "SELECT label, COUNT(*) AS n, SUM(w) AS sw, AVG(d) AS mean FROM fact "
      "JOIN dim ON fact.k = dim.k WHERE %s GROUP BY label ORDER BY label",
      "SELECT COUNT(*) AS n, SUM(d) AS sd FROM fact WHERE %s",
  };
  std::vector<std::string> preds = {"g <> 3",      "d > -20", "id >= 40",
                                    "g IS NOT NULL", "d <= 35", "id + g > 9"};

  for (int trial = 0; trial < 18; ++trial) {
    std::string query = StrFormat(rng.Pick(shapes).c_str(),
                                  rng.Pick(preds).c_str());
    // Log-uniform random budget: from "everything spills" to "nothing
    // spills".
    size_t budget = size_t{256} << rng.Uniform(0, 13);
    auto expected = baseline->Query(query);
    ASSERT_TRUE(expected.ok()) << query << ": "
                               << expected.status().ToString();

    MetaQueryOptions options;
    options.num_threads = rng.Bernoulli(0.5) ? 1 : 4;
    options.memory_budget_bytes = budget;
    std::unique_ptr<MetaQuerySession> spilled = MakeSession(fact, dim, options);
    auto actual = spilled->Query(query);
    ASSERT_TRUE(actual.ok()) << query << ": " << actual.status().ToString();
    ExpectSameTable(*expected, *actual,
                    StrFormat("[budget=%zu threads=%zu] %s", budget,
                              options.num_threads, query.c_str()));
  }
}

TEST(MetaQuerySpillTest, JoinAndAggregationEightTimesOverBudget) {
  // The acceptance shape: relation footprint >= 8x the budget, joined and
  // aggregated. 4 KB against ~2000 padded rows is a ~100x ratio.
  Rng rng(7);
  auto fact = MakeFact(&rng, 2000, 10);
  auto dim = MakeDim(&rng, 400, 10);
  const std::string query =
      "SELECT label, COUNT(*) AS n, SUM(w) AS sw, MIN(d) AS lo "
      "FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY label ORDER BY label";

  MetaQueryOptions unlimited;
  std::unique_ptr<MetaQuerySession> baseline =
      MakeSession(fact, dim, unlimited);
  auto expected = baseline->Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (size_t threads : {1u, 8u}) {
    MetaQueryOptions options;
    options.num_threads = threads;
    options.memory_budget_bytes = 4096;
    std::unique_ptr<MetaQuerySession> spilled = MakeSession(fact, dim, options);
    auto actual = spilled->Query(query);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameTable(*expected, *actual,
                    StrFormat("threads=%zu", threads));
    EXPECT_TRUE(spilled->last_spill_stats().spilled());
    EXPECT_GT(spilled->last_spill_stats().bytes_written, 4096u);
  }
}

TEST(MetaQuerySpillTest, SkewedJoinKeyCannotBeSplit) {
  // Every row shares one join key, so re-partitioning can never shrink a
  // partition: the engine must take the documented over-budget escape
  // hatch and still produce exact results (quadratic output, LIMITed).
  std::vector<Record> fact_rows;
  std::vector<Record> dim_rows;
  for (int i = 0; i < 300; ++i) {
    fact_rows.push_back({Value::Int(i), Value::Int(1), Value::Int(i % 5),
                         Value::Real(0.5 * i), Value::Str("padpadpadpad")});
    dim_rows.push_back({Value::Int(1), Value::Str("only"), Value::Int(i)});
  }
  auto fact = std::make_shared<VectorRelation>(
      std::vector<std::string>{"id", "k", "g", "d", "s"},
      std::move(fact_rows));
  auto dim = std::make_shared<VectorRelation>(
      std::vector<std::string>{"k", "label", "w"}, std::move(dim_rows));
  const std::string query =
      "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.k = dim.k "
      "ORDER BY fact.id, dim.w LIMIT 1000";

  std::unique_ptr<MetaQuerySession> baseline = MakeSession(fact, dim, {});
  auto expected = baseline->Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  MetaQueryOptions options;
  options.memory_budget_bytes = 2048;
  std::unique_ptr<MetaQuerySession> spilled = MakeSession(fact, dim, options);
  auto actual = spilled->Query(query);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectSameTable(*expected, *actual, "skewed join");
}

TEST(MetaQuerySpillTest, SingleGroupAggregationOverBudget) {
  // One group over a large input: the group table can never split, and its
  // rows must still fold in input order for exact doubles.
  Rng rng(11);
  auto fact = MakeFact(&rng, 3000, 5);
  auto dim = MakeDim(&rng, 10, 5);
  const std::string query =
      "SELECT COUNT(*) AS n, SUM(d) AS sd, AVG(d) AS mean, MIN(id) AS lo "
      "FROM fact";

  std::unique_ptr<MetaQuerySession> baseline = MakeSession(fact, dim, {});
  auto expected = baseline->Query(query);
  ASSERT_TRUE(expected.ok());

  MetaQueryOptions options;
  options.memory_budget_bytes = 1024;
  std::unique_ptr<MetaQuerySession> spilled = MakeSession(fact, dim, options);
  auto actual = spilled->Query(query);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectSameTable(*expected, *actual, "single group");
}

TEST(MetaQuerySpillTest, SpillStatsReporting) {
  Rng rng(13);
  auto fact = MakeFact(&rng, 800, 8);
  auto dim = MakeDim(&rng, 100, 8);

  MetaQueryOptions options;
  options.memory_budget_bytes = 4096;
  std::unique_ptr<MetaQuerySession> session = MakeSession(fact, dim, options);
  ASSERT_TRUE(session->Query("SELECT id, d FROM fact ORDER BY d").ok());
  EXPECT_TRUE(session->last_spill_stats().spilled());

  // A generous budget must not touch disk at all...
  options.memory_budget_bytes = size_t{64} << 20;
  session->set_options(options);
  ASSERT_TRUE(session->Query("SELECT id, d FROM fact ORDER BY d").ok());
  EXPECT_FALSE(session->last_spill_stats().spilled());
  EXPECT_EQ(session->last_spill_stats().files_created, 0u);

  // ...and budget 0 (unbounded) always reports zeros.
  options.memory_budget_bytes = 0;
  session->set_options(options);
  ASSERT_TRUE(session->Query("SELECT id, d FROM fact ORDER BY d").ok());
  EXPECT_FALSE(session->last_spill_stats().spilled());
}

TEST(MetaQuerySpillTest, BudgetZeroNeverTouchesSpillDir) {
  // Budget 0 means unbounded: a join, a GROUP BY and an ORDER BY all run in
  // memory, so no spill file is written and the lazily created per-query
  // directory never appears under spill_dir.
  Rng rng(29);
  auto fact = MakeFact(&rng, 1500, 10);
  auto dim = MakeDim(&rng, 300, 10);
  std::string spill_root =
      (fs::path(::testing::TempDir()) / "spill_budget_zero").string();
  fs::remove_all(spill_root);
  fs::create_directories(spill_root);

  MetaQueryOptions options;
  options.num_threads = 4;
  options.memory_budget_bytes = 0;
  options.spill_dir = spill_root;
  std::unique_ptr<MetaQuerySession> session = MakeSession(fact, dim, options);
  for (const char* query : {
           "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.k = dim.k",
           "SELECT g, COUNT(*) AS n, SUM(d) AS sd FROM fact GROUP BY g",
           "SELECT id, d, s FROM fact ORDER BY d DESC, id",
       }) {
    auto result = session->Query(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    ASSERT_FALSE(result->rows.empty()) << query;
    const SpillStats& stats = session->last_spill_stats();
    EXPECT_EQ(stats.files_created, 0u) << query;
    EXPECT_EQ(stats.blocks_written, 0u) << query;
    EXPECT_EQ(stats.bytes_written, 0u) << query;
    EXPECT_EQ(stats.blocks_read, 0u) << query;
    EXPECT_EQ(stats.bytes_read, 0u) << query;
    EXPECT_FALSE(stats.spilled()) << query;
    EXPECT_EQ(DirEntries(spill_root), 0u)
        << query << ": a budget-0 query created a spill directory";
  }
}

TEST(MetaQuerySpillTest, SpillDirEmptyAfterSuccess) {
  Rng rng(17);
  auto fact = MakeFact(&rng, 1000, 8);
  auto dim = MakeDim(&rng, 200, 8);
  std::string spill_root =
      (fs::path(::testing::TempDir()) / "spill_success").string();

  MetaQueryOptions options;
  options.memory_budget_bytes = 4096;
  options.spill_dir = spill_root;
  std::unique_ptr<MetaQuerySession> session = MakeSession(fact, dim, options);
  auto result = session->Query(
      "SELECT label, COUNT(*) AS n FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY label ORDER BY n DESC, label");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(session->last_spill_stats().spilled());
  EXPECT_EQ(DirEntries(spill_root), 0u)
      << "spill files survived a successful query";
}

TEST(MetaQuerySpillTest, SpillDirEmptyAfterMidQueryFailure) {
  Rng rng(19);
  auto fact = MakeFact(&rng, 1200, 8);
  auto dim = MakeDim(&rng, 200, 8);
  // The join's left side fails late in its scan: by then the right side
  // has overflowed into partition files and the left scatter has flushed
  // blocks of its own, so abort-path cleanup is really exercised.
  auto failing_fact = std::make_shared<FailingRelation>(fact, 1000);
  std::string spill_root =
      (fs::path(::testing::TempDir()) / "spill_failure").string();

  MetaQueryOptions options;
  options.memory_budget_bytes = 2048;
  options.spill_dir = spill_root;
  MetaQuerySession session(options);
  session.Register("fact", failing_fact);
  session.Register("dim", dim);
  auto result = session.Query(
      "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.k = dim.k");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(session.last_spill_stats().spilled())
      << "test setup: the query was expected to spill before failing";
  EXPECT_EQ(DirEntries(spill_root), 0u)
      << "spill files survived an aborted query";
}

TEST(MetaQuerySpillTest, ErrorParityWithInMemoryEngine) {
  Rng rng(23);
  auto fact = MakeFact(&rng, 600, 8);
  auto dim = MakeDim(&rng, 100, 8);
  std::vector<std::string> bad_queries = {
      "SELECT id FROM fact ORDER BY nosuch",
      "SELECT nope, COUNT(*) AS n FROM fact GROUP BY nope",
      "SELECT fact.id FROM fact JOIN dim ON fact.zz = dim.qq",
      "SELECT id FROM missing_table",
  };
  std::unique_ptr<MetaQuerySession> baseline = MakeSession(fact, dim, {});
  MetaQueryOptions options;
  options.memory_budget_bytes = 4096;
  std::unique_ptr<MetaQuerySession> spilled = MakeSession(fact, dim, options);
  for (const std::string& query : bad_queries) {
    auto expected = baseline->Query(query);
    auto actual = spilled->Query(query);
    ASSERT_FALSE(expected.ok()) << query;
    ASSERT_FALSE(actual.ok()) << query;
    EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
        << query;
  }
}

}  // namespace
}  // namespace dbfa
