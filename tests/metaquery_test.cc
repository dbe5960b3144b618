// Meta-query engine tests, including the two scenarios of Section II-C.
#include <gtest/gtest.h>

#include <thread>

#include "common/string_pool.h"
#include "core/carver.h"
#include "metaquery/exec_common.h"
#include "metaquery/session.h"
#include "storage/dialects.h"

namespace dbfa {
namespace {

std::shared_ptr<Relation> ProductRelation(
    std::vector<std::tuple<int, std::string, double>> rows) {
  std::vector<Record> records;
  for (auto& [pid, name, price] : rows) {
    records.push_back(
        {Value::Int(pid), Value::Str(name), Value::Real(price)});
  }
  return std::make_shared<VectorRelation>(
      std::vector<std::string>{"PID", "Name", "Price"}, std::move(records));
}

TEST(MetaQueryTest, FilterProjectOrderLimit) {
  MetaQuerySession session;
  session.Register("Product", ProductRelation({{1, "Ant", 10.0},
                                               {2, "Bee", 5.0},
                                               {3, "Cat", 30.0},
                                               {4, "Dog", 20.0}}));
  auto result = session.Query(
      "SELECT Name, Price FROM Product WHERE Price > 6 "
      "ORDER BY Price DESC LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::Str("Cat"));
  EXPECT_EQ(result->rows[1][0], Value::Str("Dog"));
}

TEST(MetaQueryTest, Scenario2DiskRamJoinFindsUpdatedPrices) {
  // Section II-C scenario 2: find recent price changes by joining the RAM
  // carve against the disk carve.
  MetaQuerySession session;
  session.Register("CarvDiskProduct", ProductRelation({{1, "Ant", 10.0},
                                                       {2, "Bee", 5.0},
                                                       {3, "Cat", 30.0}}));
  session.Register("CarvRAMProduct", ProductRelation({{1, "Ant", 10.0},
                                                      {2, "Bee", 9.0},
                                                      {3, "Cat", 30.0}}));
  auto result = session.Query(
      "SELECT M.PID, M.Price, D.Price AS OldPrice "
      "FROM CarvRAMProduct AS M JOIN CarvDiskProduct AS D ON M.PID = D.PID "
      "WHERE M.Price <> D.Price");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(2));
  EXPECT_EQ(result->rows[0][1], Value::Real(9.0));
  EXPECT_EQ(result->rows[0][2], Value::Real(5.0));
}

TEST(MetaQueryTest, AggregatesWithGroupBy) {
  MetaQuerySession session;
  std::vector<Record> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({Value::Int(i % 3), Value::Int(i)});
  }
  session.Register("T", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"g", "v"}, rows));
  auto result = session.Query(
      "SELECT g, COUNT(*) AS n, SUM(v) AS total, MIN(v) AS lo, "
      "MAX(v) AS hi, AVG(v) AS mean FROM T GROUP BY g ORDER BY g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  EXPECT_EQ(result->rows[0][1], Value::Int(10));
  EXPECT_EQ(result->rows[0][3], Value::Int(0));
  EXPECT_EQ(result->rows[0][4], Value::Int(27));
  // SUM of 0,3,...,27 = 135; AVG = 13.5.
  EXPECT_EQ(result->rows[0][2], Value::Int(135));
  EXPECT_EQ(result->rows[0][5], Value::Real(13.5));
}

TEST(MetaQueryTest, AggregateOverEmptyInput) {
  MetaQuerySession session;
  session.Register("E", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"x"},
                            std::vector<Record>{}));
  auto result = session.Query("SELECT COUNT(*) AS n, SUM(x) AS s FROM E");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST(MetaQueryTest, ArithmeticInAggregates) {
  MetaQuerySession session;
  session.Register("T", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"a", "b"},
                            std::vector<Record>{
                                {Value::Int(2), Value::Int(3)},
                                {Value::Int(4), Value::Int(5)}}));
  auto result = session.Query("SELECT SUM(a * b) AS dot FROM T");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0], Value::Int(26));
}

TEST(MetaQueryTest, MultiWayJoin) {
  MetaQuerySession session;
  session.Register("A", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"id", "bref"},
                            std::vector<Record>{
                                {Value::Int(1), Value::Int(10)},
                                {Value::Int(2), Value::Int(20)}}));
  session.Register("B", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"bid", "cref"},
                            std::vector<Record>{
                                {Value::Int(10), Value::Int(100)},
                                {Value::Int(20), Value::Int(200)}}));
  session.Register("C", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"cid", "label"},
                            std::vector<Record>{
                                {Value::Int(100), Value::Str("x")},
                                {Value::Int(200), Value::Str("y")}}));
  auto result = session.Query(
      "SELECT id, label FROM A JOIN B ON bref = bid JOIN C ON cref = cid "
      "ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][1], Value::Str("x"));
  EXPECT_EQ(result->rows[1][1], Value::Str("y"));
}

TEST(MetaQueryTest, NullsNeverJoin) {
  MetaQuerySession session;
  session.Register("L", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"k"},
                            std::vector<Record>{{Value::Null()},
                                                {Value::Int(1)}}));
  session.Register("R", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"k2"},
                            std::vector<Record>{{Value::Null()},
                                                {Value::Int(1)}}));
  auto result = session.Query("SELECT * FROM L JOIN R ON k = k2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u) << "NULL keys must not match";
}

TEST(MetaQueryTest, ErrorsAreClean) {
  MetaQuerySession session;
  session.Register("T", ProductRelation({{1, "A", 1.0}}));
  EXPECT_FALSE(session.Query("SELECT * FROM Nope").ok());
  EXPECT_FALSE(session.Query("DELETE FROM T").ok());
  EXPECT_FALSE(session.Query("SELECT nope FROM T").ok());
  EXPECT_FALSE(session.Query("SELECT * FROM T ORDER BY nope").ok());
  EXPECT_FALSE(session.Query("SELECT *, COUNT(*) FROM T").ok());
}

TEST(MetaQueryTest, Scenario1DeletedRowsFromLiveCarve) {
  // Section II-C scenario 1 end-to-end: carve a real database and select
  // the delete-marked rows via the RowStatus pseudo-column.
  DatabaseOptions options;
  options.dialect = "oracle_like";
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  TableSchema schema;
  schema.name = "Customer";
  schema.columns = {{"Id", ColumnType::kInt, 0, false},
                    {"Name", ColumnType::kVarchar, 32, true}};
  schema.primary_key = {"Id"};
  ASSERT_TRUE((*db)->CreateTable(schema).ok());
  ASSERT_TRUE((*db)
                  ->ExecuteSql("INSERT INTO Customer VALUES (1, 'Keep'), "
                               "(2, 'Gone'), (3, 'AlsoGone')")
                  .ok());
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Customer WHERE Id > 1").ok());
  auto image = (*db)->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  CarverConfig config;
  config.params = GetDialect("oracle_like").value();
  Carver carver(config);
  auto carve = carver.Carve(*image);
  ASSERT_TRUE(carve.ok());

  MetaQuerySession session;
  ASSERT_TRUE(session.RegisterCarve(*carve, "Carv").ok());
  auto result = session.Query(
      "SELECT Name FROM CarvCustomer WHERE RowStatus = 'DELETED' "
      "ORDER BY Name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::Str("AlsoGone"));
  EXPECT_EQ(result->rows[1][0], Value::Str("Gone"));

  std::string text = result->ToText();
  EXPECT_NE(text.find("Name"), std::string::npos);
  EXPECT_NE(text.find("Gone"), std::string::npos);
}

TEST(MetaQueryTest, RegisterCarveReportsShadowedSchemas) {
  // A dropped-and-recreated table leaves two carved schemas with the same
  // name under different object ids. Name-based registration can only see
  // the first; the second must be reported, not silently dropped.
  CarveResult carve;
  TableSchema schema;
  schema.name = "Orders";
  schema.columns = {{"Id", ColumnType::kInt, 0, false}};
  carve.schemas[7] = schema;
  carve.schemas[9] = schema;
  CarvedRecord visible;
  visible.object_id = 7;
  visible.values = {Value::Int(42)};
  visible.typed = true;
  carve.records.push_back(visible);
  CarvedRecord shadowed = visible;
  shadowed.object_id = 9;
  shadowed.values = {Value::Int(99)};
  carve.records.push_back(shadowed);

  MetaQuerySession session;
  std::vector<std::string> skipped;
  ASSERT_TRUE(session.RegisterCarve(carve, "Carv", &skipped).ok());
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find("Orders"), std::string::npos);
  EXPECT_NE(skipped[0].find("object 9"), std::string::npos);
  EXPECT_NE(skipped[0].find("shadowed"), std::string::npos);

  // The first object's records are what got registered.
  auto result = session.Query("SELECT Id FROM CarvOrders");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(42));
}

TEST(MetaQueryTest, ToTextAlignsColumnsAndMarksHiddenRows) {
  QueryTable table;
  table.columns = {"a", "longheader"};
  table.rows = {{Value::Int(1), Value::Str("xx")},
                {Value::Int(12345), Value::Str("y")},
                {Value::Int(7), Value::Str("hidden")}};
  std::string text = table.ToText(/*max_rows=*/2);

  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  // Header, separator, two shown rows, overflow footer.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("a"), std::string::npos);
  EXPECT_NE(lines[0].find("longheader"), std::string::npos);
  // Every table line is padded to the same width; cells stay aligned even
  // when a value ("12345") is wider than its header ("a").
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(lines[i].size(), lines[0].size()) << "line " << i;
  }
  EXPECT_NE(lines[3].find("12345"), std::string::npos);
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_EQ(lines[4], "... (1 more rows)");
}

TEST(MetaQueryTest, ToTextRendersNullsDoublesAndInternedStrings) {
  // ToText appends every cell through AppendDisplayTo without per-cell
  // ToString() temporaries; the rendering must be identical for owned and
  // interned representations of the same content.
  StringPool pool;
  QueryTable table;
  table.columns = {"v"};
  table.rows = {{Value::Null()},
                {Value::Real(2.5)},
                {Value::Str("owned")},
                {Value::InternedStr(pool.Intern("interned"))}};
  std::string text = table.ToText();
  EXPECT_NE(text.find("| NULL"), std::string::npos);
  EXPECT_NE(text.find("| 2.5"), std::string::npos);
  EXPECT_NE(text.find("| owned"), std::string::npos);
  EXPECT_NE(text.find("| interned"), std::string::npos);
}

TEST(MetaQueryTest, ConcurrentQueriesOnOneSessionMatchSerialResults) {
  // Two threads query one 4-thread session at once. Both queries run their
  // morsels on the session's one pool, so each must wait for its own tasks
  // only; each result must equal the one the query gets alone. Runs under
  // the `sanitize` label, so the TSan job checks the shared pool and the
  // session's spill counters too.
  const size_t n = 5 * metaquery_internal::kMorselRows + 7;
  std::vector<Record> sales;
  std::vector<Record> products;
  for (size_t i = 0; i < n; ++i) {
    int64_t id = static_cast<int64_t>(i);
    sales.push_back({Value::Int(id), Value::Int(id % 997),
                     Value::Real(0.1 * static_cast<double>(id % 53))});
    products.push_back({Value::Int(id % 997), Value::Int(id % 7)});
  }
  MetaQueryOptions options;
  options.num_threads = 4;
  MetaQuerySession session(options);
  session.Register("S", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"id", "pid", "amt"},
                            std::move(sales)));
  session.Register("P", std::make_shared<VectorRelation>(
                            std::vector<std::string>{"ppid", "cat"},
                            std::move(products)));
  const std::string queries[2] = {
      "SELECT cat, COUNT(*) AS n, SUM(amt) AS total FROM S JOIN P ON "
      "pid = ppid WHERE id > 100 GROUP BY cat ORDER BY cat",
      "SELECT id, amt FROM S WHERE pid <> 5 ORDER BY amt DESC, id LIMIT 40",
  };
  QueryTable serial[2];
  for (int q = 0; q < 2; ++q) {
    auto result = session.Query(queries[q]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    serial[q] = *std::move(result);
  }
  for (int round = 0; round < 4; ++round) {
    Result<QueryTable> concurrent[2] = {Status::Internal("not run"),
                                        Status::Internal("not run")};
    std::thread other([&] { concurrent[1] = session.Query(queries[1]); });
    concurrent[0] = session.Query(queries[0]);
    other.join();
    for (int q = 0; q < 2; ++q) {
      ASSERT_TRUE(concurrent[q].ok()) << concurrent[q].status().ToString();
      EXPECT_EQ(concurrent[q]->columns, serial[q].columns);
      ASSERT_EQ(concurrent[q]->rows.size(), serial[q].rows.size());
      for (size_t r = 0; r < serial[q].rows.size(); ++r) {
        EXPECT_EQ(CompareRecords(concurrent[q]->rows[r], serial[q].rows[r]),
                  0)
            << "query " << q << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace dbfa
