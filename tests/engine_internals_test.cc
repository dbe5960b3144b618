// Focused tests for engine internals: pager, storage files, catalog,
// composite keys, secondary indexes, and clock behaviour.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "engine/database.h"
#include "storage/dialects.h"

namespace dbfa {
namespace {

TEST(StorageFileTest, AllocateAndAccess) {
  StorageFile file(512);
  EXPECT_EQ(file.page_count(), 0u);
  EXPECT_FALSE(file.Contains(1));
  uint32_t p1 = file.Allocate();
  uint32_t p2 = file.Allocate();
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(p2, 2u);
  EXPECT_TRUE(file.Contains(1));
  EXPECT_TRUE(file.Contains(2));
  EXPECT_FALSE(file.Contains(3));
  file.PageData(2)[0] = 0xAB;
  EXPECT_EQ(file.bytes()[512], 0xAB);
}

TEST(StorageFileTest, SaveLoadRoundTrip) {
  StorageFile file(512);
  file.Allocate();
  file.PageData(1)[100] = 0x5A;
  std::string path = ::testing::TempDir() + "/dbfa_storage_file.bin";
  ASSERT_TRUE(file.SaveTo(path).ok());
  auto loaded = StorageFile::LoadFrom(path, 512);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->page_count(), 1u);
  EXPECT_EQ(loaded->PageData(1)[100], 0x5A);
  // Page-size mismatch is corruption.
  EXPECT_FALSE(StorageFile::LoadFrom(path, 500).ok());
}

TEST(PagerTest, ObjectLifecycleAndLsnStamping) {
  PageLayoutParams params = GetDialect("postgres_like").value();
  Pager pager(params, 8);
  uint32_t a = pager.CreateObject();
  uint32_t b = pager.CreateObject();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_TRUE(pager.HasObject(1));
  EXPECT_FALSE(pager.HasObject(3));
  EXPECT_FALSE(pager.Fetch(3, 1).ok());
  EXPECT_FALSE(pager.Fetch(1, 1).ok()) << "no pages allocated yet";

  auto page = pager.NewPage(a, PageType::kData);
  ASSERT_TRUE(page.ok());
  uint64_t lsn1 = pager.fmt().Lsn(page->second.data());
  EXPECT_GT(lsn1, 0u);
  pager.CommitPage(&page->second);
  EXPECT_GT(pager.fmt().Lsn(page->second.data()), lsn1);
  EXPECT_TRUE(pager.fmt().VerifyChecksum(page->second.data()));
}

TEST(PagerTest, SnapshotDiskConcatenatesInObjectOrder) {
  PageLayoutParams params = GetDialect("sqlite_like").value();
  Pager pager(params, 8);
  uint32_t a = pager.CreateObject();
  uint32_t b = pager.CreateObject();
  ASSERT_TRUE(pager.NewPage(b, PageType::kData).ok());
  ASSERT_TRUE(pager.NewPage(a, PageType::kData).ok());
  ASSERT_TRUE(pager.NewPage(a, PageType::kData).ok());
  auto image = pager.SnapshotDisk();
  ASSERT_TRUE(image.ok());
  ASSERT_EQ(image->size(), 3u * params.page_size);
  PageFormatter fmt(params);
  // Object a's two pages first, then object b's one page.
  EXPECT_EQ(fmt.ObjectId(image->data()), a);
  EXPECT_EQ(fmt.ObjectId(image->data() + 2 * params.page_size), b);
}

TEST(CatalogTest, DirectApi) {
  PageLayoutParams params = GetDialect("mysql_like").value();
  Pager pager(params, 16);
  Catalog catalog(&pager);
  ASSERT_TRUE(catalog.Initialize().ok());

  TableSchema schema;
  schema.name = "T";
  schema.columns = {{"a", ColumnType::kInt, 0, false}};
  uint32_t object_id = pager.CreateObject();
  ASSERT_TRUE(catalog.AddTable(schema, object_id, 1).ok());
  EXPECT_EQ(catalog.AddTable(schema, object_id, 1).code(),
            StatusCode::kAlreadyExists);
  const TableInfo* info = catalog.Find("t");  // case-insensitive
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->object_id, object_id);

  IndexInfo index;
  index.name = "idx_a";
  index.object_id = pager.CreateObject();
  index.root_page = 1;
  index.columns = {"a"};
  ASSERT_TRUE(catalog.AddIndex("T", index).ok());
  EXPECT_EQ(catalog.AddIndex("T", index).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.AddIndex("Nope", index).code(), StatusCode::kNotFound);

  ASSERT_TRUE(catalog.UpdateIndexRoot("T", "idx_a", 9).ok());
  EXPECT_EQ(catalog.Find("T")->indexes[0].root_page, 9u);
  EXPECT_FALSE(catalog.UpdateIndexRoot("T", "nope", 9).ok());

  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_EQ(catalog.Find("T"), nullptr);
  EXPECT_EQ(catalog.DropTable("T").code(), StatusCode::kNotFound);
}

TEST(DatabaseInternalsTest, CompositePrimaryKeyEnforcedAndIndexed) {
  auto db = Database::Open(DatabaseOptions{}).value();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE LineItem (o INT NOT NULL, l INT "
                             "NOT NULL, v VARCHAR(8), PRIMARY KEY (o, l))")
                  .ok());
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO LineItem VALUES (1, 1, 'a'), (1, 2, 'b')")
          .ok());
  // Duplicate composite key rejected; differing second component fine.
  EXPECT_FALSE(
      db->ExecuteSql("INSERT INTO LineItem VALUES (1, 1, 'x')").ok());
  EXPECT_TRUE(
      db->ExecuteSql("INSERT INTO LineItem VALUES (2, 1, 'c')").ok());
  // Lookup through the composite index (leading column bound).
  auto rows = db->ExecuteSql("SELECT v FROM LineItem WHERE o = 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(db->last_access_path(), AccessPath::kIndexScan);
}

TEST(DatabaseInternalsTest, SecondaryIndexOnExistingDataAndAfterInserts) {
  auto db = Database::Open(DatabaseOptions{}).value();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE T (k INT NOT NULL, city "
                             "VARCHAR(16), PRIMARY KEY (k))")
                  .ok());
  for (int i = 1; i <= 300; ++i) {
    ASSERT_TRUE(db->ExecuteSql(StrFormat(
                                   "INSERT INTO T VALUES (%d, 'city%d')", i,
                                   i % 7))
                    .ok());
  }
  // Index created after the fact must cover existing rows.
  ASSERT_TRUE(db->ExecuteSql("CREATE INDEX idx_city ON T (city)").ok());
  auto rows = db->ExecuteSql("SELECT * FROM T WHERE city = 'city3'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(db->last_access_path(), AccessPath::kIndexScan);
  size_t before = rows->rows.size();
  EXPECT_GT(before, 30u);
  // ... and rows inserted afterwards.
  ASSERT_TRUE(db->ExecuteSql("INSERT INTO T VALUES (999, 'city3')").ok());
  rows = db->ExecuteSql("SELECT * FROM T WHERE city = 'city3'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), before + 1);
}

TEST(DatabaseInternalsTest, SelectPrefersIndexOverScanOnlyWhenBound) {
  auto db = Database::Open(DatabaseOptions{}).value();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE T (k INT NOT NULL, v INT, "
                             "PRIMARY KEY (k))")
                  .ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(
        db->ExecuteSql(StrFormat("INSERT INTO T VALUES (%d, %d)", i, i * 2))
            .ok());
  }
  // OR disjunction on the key cannot use the index bounds extractor.
  auto rows = db->ExecuteSql("SELECT * FROM T WHERE k = 5 OR k = 7");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(db->last_access_path(), AccessPath::kFullScan);
  // Reversed comparison still uses it (literal on the left).
  rows = db->ExecuteSql("SELECT * FROM T WHERE 40 < k");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 10u);
  EXPECT_EQ(db->last_access_path(), AccessPath::kIndexScan);
}

TEST(ClockTest, ManualClockSemantics) {
  ManualClock clock(100, 2);
  EXPECT_EQ(clock.Now(), 100);
  EXPECT_EQ(clock.Now(), 102);
  clock.Set(50);
  EXPECT_EQ(clock.Peek(), 50);
  EXPECT_EQ(clock.Now(), 50);
  clock.Advance(1000);
  EXPECT_EQ(clock.Peek(), 1052);
}

TEST(DatabaseInternalsTest, DeleteAndUpdateWithoutWhereTouchEverything) {
  auto db = Database::Open(DatabaseOptions{}).value();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE T (k INT NOT NULL, v INT, "
                             "PRIMARY KEY (k))")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(
        db->ExecuteSql(StrFormat("INSERT INTO T VALUES (%d, 0)", i)).ok());
  }
  ASSERT_TRUE(db->ExecuteSql("UPDATE T SET v = 1").ok());
  auto rows = db->ExecuteSql("SELECT * FROM T WHERE v = 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 20u);
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM T").ok());
  rows = db->ExecuteSql("SELECT * FROM T");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
}

TEST(DatabaseInternalsTest, ErrorsComeBackCleanly) {
  auto db = Database::Open(DatabaseOptions{}).value();
  EXPECT_FALSE(db->ExecuteSql("INSERT INTO Missing VALUES (1)").ok());
  EXPECT_FALSE(db->ExecuteSql("not even sql").ok());
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE T (a INT)").ok());
  EXPECT_FALSE(db->ExecuteSql("CREATE TABLE T (a INT)").ok());
  EXPECT_FALSE(db->ExecuteSql("CREATE INDEX i ON T (missing)").ok());
  EXPECT_FALSE(db->ExecuteSql("UPDATE T SET missing = 1").ok());
  EXPECT_FALSE(db->ExecuteSql("INSERT INTO T VALUES (1, 2)").ok())
      << "arity mismatch";
  EXPECT_FALSE(db->Vacuum("Missing").ok());
  // Failed statements must not be logged.
  for (const AuditEntry& e : db->audit_log().entries()) {
    EXPECT_EQ(e.sql.find("Missing"), std::string::npos);
  }
}

// WHERE clauses and select items bind once per statement, so an unknown
// column is the same error on an empty table as on a filled one, and even
// where AND/OR would never evaluate it.
TEST(DatabaseInternalsTest, UnknownColumnIsABindErrorOnEmptyAndFilledTables) {
  for (int rows : {0, 20}) {
    SCOPED_TRACE(rows);
    auto db = Database::Open(DatabaseOptions{}).value();
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE T (a INT, b VARCHAR(8))").ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          db->ExecuteSql(StrFormat("INSERT INTO T VALUES (%d, 'x')", i)).ok());
    }
    for (const char* sql :
         {"DELETE FROM T WHERE nope = 1", "UPDATE T SET a = 1 WHERE nope = 1",
          "SELECT * FROM T WHERE nope = 1", "SELECT nope FROM T",
          "SELECT * FROM T WHERE a < 0 AND nope = 1",
          "DELETE FROM T WHERE a >= 0 OR nope = 1",
          "SELECT * FROM T WHERE x.a = 1"}) {
      auto result = db->ExecuteSql(sql);
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << sql;
      EXPECT_EQ(result.status().message().rfind("unknown column: ", 0), 0u)
          << sql << ": " << result.status().ToString();
    }
    // Nothing was deleted or rewritten, and nothing was logged.
    auto all = db->ExecuteSql("SELECT * FROM T");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->rows.size(), static_cast<size_t>(rows));
    for (const AuditEntry& e : db->audit_log().entries()) {
      EXPECT_EQ(e.sql.find("nope"), std::string::npos) << e.sql;
    }
  }
}

TEST(DatabaseInternalsTest, DuplicateColumnNameRejected) {
  auto db = Database::Open(DatabaseOptions{}).value();
  TableSchema schema;
  schema.name = "T";
  schema.columns = {{"a", ColumnType::kInt, 0, true},
                    {"A", ColumnType::kInt, 0, true}};
  EXPECT_FALSE(db->CreateTable(schema).ok());
}

}  // namespace
}  // namespace dbfa
