// Tests for the paper's future-work features implemented as extensions:
// evidence packages (III-D), external page building (IV-b), and
// cache-aware query reordering (IV-c).
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/strings.h"
#include "core/carver.h"
#include "core/page_builder.h"
#include "detective/evidence.h"
#include "pli/query_reorder.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  return config;
}

// ---- Evidence packages (Section III-D) ------------------------------------

TEST(EvidenceTest, PackageReproducesFindingsIndependently) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 21);
  ASSERT_TRUE(workload.Setup(200).ok());
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id = 50").ok());
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id = 150").ok());
  db->audit_log().SetEnabled(true);

  CarverConfig config = ConfigFor(db->params().dialect);
  Bytes image = db->SnapshotDisk().value();
  Carver carver(config);
  auto carve = carver.Carve(image).value();
  DbDetective detective(&carve, &db->audit_log());
  auto findings = detective.FindUnattributedModifications().value();
  ASSERT_EQ(findings.size(), 2u);

  EvidenceCollector collector(config);
  auto package = collector.Collect(image, carve, findings);
  ASSERT_TRUE(package.ok()) << package.status().ToString();

  // Minimal: far smaller than the full image, but more than one page
  // (catalog + data pages).
  EXPECT_LT(package->image.size(), image.size());
  EXPECT_GE(package->image.size(), 2u * db->params().page_size);
  EXPECT_EQ(package->claimed.size(), 2u);

  // Independent verification from the package alone.
  EXPECT_TRUE(
      EvidenceCollector::Verify(*package, db->audit_log()).ok());

  // A log that *does* explain the deletions makes verification fail —
  // the package does not prove a breach against that log.
  AuditLog explaining = db->audit_log();
  explaining.Append(db->clock().Now(),
                    "DELETE FROM Accounts WHERE Id = 50");
  explaining.Append(db->clock().Now(),
                    "DELETE FROM Accounts WHERE Id = 150");
  EXPECT_FALSE(EvidenceCollector::Verify(*package, explaining).ok());
}

TEST(EvidenceTest, PackageSurvivesDiskRoundTrip) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 22);
  ASSERT_TRUE(workload.Setup(50).ok());
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id = 7").ok());
  db->audit_log().SetEnabled(true);

  CarverConfig config = ConfigFor(db->params().dialect);
  Bytes image = db->SnapshotDisk().value();
  Carver carver(config);
  auto carve = carver.Carve(image).value();
  DbDetective detective(&carve, &db->audit_log());
  auto findings = detective.FindUnattributedModifications().value();
  EvidenceCollector collector(config);
  auto package = collector.Collect(image, carve, findings).value();

  std::string dir = ::testing::TempDir() + "/dbfa_evidence";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(package.SaveTo(dir).ok());
  auto loaded = EvidencePackage::LoadFrom(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->image, package.image);
  EXPECT_EQ(loaded->claimed, package.claimed);
  EXPECT_TRUE(EvidenceCollector::Verify(*loaded, db->audit_log()).ok());
}

TEST(EvidenceTest, CorruptedPackageLoadsFailWithStatus) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 23);
  ASSERT_TRUE(workload.Setup(50).ok());
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id = 9").ok());
  db->audit_log().SetEnabled(true);

  CarverConfig config = ConfigFor(db->params().dialect);
  Bytes image = db->SnapshotDisk().value();
  Carver carver(config);
  auto carve = carver.Carve(image).value();
  DbDetective detective(&carve, &db->audit_log());
  auto findings = detective.FindUnattributedModifications().value();
  EvidenceCollector collector(config);
  EvidencePackage package = collector.Collect(image, carve, findings).value();

  std::string dir = ::testing::TempDir() + "/dbfa_evidence_corrupt";
  auto save_variant = [&](const EvidencePackage& p) {
    ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
              0);
    ASSERT_TRUE(p.SaveTo(dir).ok());
  };

  // Baseline sanity: the untouched package loads.
  save_variant(package);
  ASSERT_TRUE(EvidencePackage::LoadFrom(dir).ok());

  // Truncated evidence.img (not a page-size multiple).
  {
    EvidencePackage truncated = package;
    truncated.image.resize(truncated.image.size() - 100);
    save_variant(truncated);
    auto loaded = EvidencePackage::LoadFrom(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("page size"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Empty image.
  {
    EvidencePackage empty = package;
    empty.image.clear();
    save_variant(empty);
    EXPECT_EQ(EvidencePackage::LoadFrom(dir).status().code(),
              StatusCode::kCorruption);
  }

  // Malformed manifest lines: wrong field count, non-numeric fields,
  // and out-of-range ids.
  for (const std::string& bad_line :
       {std::string("1 2"), std::string("a b c"),
        std::string("0 5 1024"), std::string("7 0 1024"),
        std::string("1 2 3 4"), std::string("5000000000 1 0")}) {
    EvidencePackage bad = package;
    bad.manifest[0] = bad_line;
    save_variant(bad);
    auto loaded = EvidencePackage::LoadFrom(dir);
    ASSERT_FALSE(loaded.ok()) << "line: " << bad_line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << bad_line << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("manifest"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Manifest page count disagreeing with the image.
  {
    EvidencePackage short_manifest = package;
    short_manifest.manifest.pop_back();
    save_variant(short_manifest);
    EXPECT_EQ(EvidencePackage::LoadFrom(dir).status().code(),
              StatusCode::kCorruption);
  }

  // Config/image page-size mismatch: a config whose page size does not
  // divide the image must be rejected before any page math runs.
  {
    EvidencePackage mismatched = package;
    CarverConfig other = config;
    other.params.page_size = config.params.page_size * 2;
    mismatched.config_text = ConfigToText(other);
    // Keep the image size indivisible by the doubled page size.
    mismatched.image.resize(config.params.page_size * 3);
    mismatched.manifest.resize(3);
    save_variant(mismatched);
    EXPECT_EQ(EvidencePackage::LoadFrom(dir).status().code(),
              StatusCode::kCorruption);
  }
}

// ---- External page building (Section IV-b) ---------------------------------

class PageBuilderDialectTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(PageBuilderDialectTest, BuiltFileAttachesAndQueriesCorrectly) {
  CarverConfig config = ConfigFor(GetParam());
  ExternalPageBuilder builder(config);
  TableSchema schema;
  schema.name = "Imported";
  schema.columns = {{"Id", ColumnType::kInt, 0, false},
                    {"Tag", ColumnType::kVarchar, 24, true}};
  schema.primary_key = {"Id"};
  std::vector<Record> rows;
  for (int i = 1; i <= 500; ++i) {
    rows.push_back({Value::Int(i), Value::Str(StrFormat("tag-%04d", i))});
  }
  auto file = builder.BuildTableFile(schema, rows);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size() % config.params.page_size, 0u);
  EXPECT_GT(file->size() / config.params.page_size, 1u)
      << "500 rows must span several pages";

  // The built file is already carvable stand-alone (no catalog: untyped).
  CarveOptions carve_options;
  carve_options.scan_step = config.params.page_size;
  Carver carver(config, carve_options);
  auto standalone = carver.Carve(*file).value();
  EXPECT_EQ(standalone.records.size(), 500u);

  // Attach to a live instance; "minor changes" rewrite object ids.
  DatabaseOptions options;
  options.dialect = GetParam();
  auto db = Database::Open(options).value();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE Existing (x INT, PRIMARY KEY "
                             "(x))")
                  .ok());
  ASSERT_TRUE(db->ExecuteSql("INSERT INTO Existing VALUES (1)").ok());
  auto attach = db->AttachExternalTable(schema, *file);
  ASSERT_TRUE(attach.ok()) << attach.ToString();

  auto all = db->ExecuteSql("SELECT * FROM Imported WHERE Id > 490");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rows.size(), 10u);
  // The PK index was built during attach: point lookups use it.
  auto one = db->ExecuteSql("SELECT Tag FROM Imported WHERE Id = 123");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0], Value::Str("tag-0123"));
  EXPECT_EQ(db->last_access_path(), AccessPath::kIndexScan);
  // New inserts continue normally after attach.
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Imported VALUES (501, 'fresh')").ok());
  auto fresh = db->ExecuteSql("SELECT * FROM Imported WHERE Id = 501");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 1u);
  // Attached content carves as part of the instance, with types.
  auto carve2 = Carver(config).Carve(db->SnapshotDisk().value()).value();
  EXPECT_EQ(carve2.RecordsForTable("Imported").size(), 501u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, PageBuilderDialectTest,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(PageBuilderTest, RejectsBadInput) {
  CarverConfig config = ConfigFor("postgres_like");
  ExternalPageBuilder builder(config);
  TableSchema schema;
  schema.name = "T";
  schema.columns = {{"x", ColumnType::kInt, 0, false}};
  auto bad = builder.BuildTableFile(schema, {{Value::Str("not an int")}});
  EXPECT_FALSE(bad.ok());

  auto db = Database::Open(DatabaseOptions{}).value();
  EXPECT_FALSE(db->AttachExternalTable(schema, Bytes{1, 2, 3}).ok());
  Bytes zeros(config.params.page_size, 0);
  EXPECT_FALSE(db->AttachExternalTable(schema, zeros).ok());
}

// ---- Query reordering (Section IV-c) ----------------------------------------

TEST(QueryReorderTest, ReorderingReducesEstimatedMisses) {
  DatabaseOptions options;
  options.buffer_pool_pages = 16;  // smaller than any two tables together
  auto db = Database::Open(options).value();
  // Three tables, each spanning ~10 pages.
  for (const char* name : {"A", "B", "C"}) {
    SyntheticWorkload workload(db.get(), name, 5);
    ASSERT_TRUE(workload.Setup(1200).ok());
  }
  // Warm the cache with table B.
  ASSERT_TRUE(db->ExecuteSql("SELECT * FROM B WHERE Owner = 'Maria'").ok());

  // Interleaved scans thrash; grouped scans reuse the cache.
  std::vector<std::string> queries = {
      "SELECT * FROM A WHERE Owner = 'Joe'",
      "SELECT * FROM C WHERE Owner = 'Joe'",
      "SELECT * FROM B WHERE Owner = 'Joe'",
      "SELECT * FROM A WHERE Owner = 'Olga'",
      "SELECT * FROM C WHERE Owner = 'Olga'",
      "SELECT * FROM B WHERE Owner = 'Olga'",
      "SELECT * FROM A WHERE Owner = 'Wei'",
      "SELECT * FROM C WHERE Owner = 'Wei'",
      "SELECT * FROM B WHERE Owner = 'Wei'",
  };
  auto plan = QueryReorderer::Plan(db.get(), queries);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->order.size(), queries.size());
  // A permutation:
  std::set<size_t> unique(plan->order.begin(), plan->order.end());
  EXPECT_EQ(unique.size(), queries.size());
  EXPECT_LT(plan->estimated_misses_reordered,
            plan->estimated_misses_original)
      << plan->ToString();

  // The plan's estimate is honest: executing in the planned order causes
  // fewer real pool misses than the original order.
  auto run_in_order = [&](const std::vector<size_t>& order) -> uint64_t {
    DatabaseOptions fresh_options;
    fresh_options.buffer_pool_pages = 16;
    auto fresh = Database::Open(fresh_options).value();
    for (const char* name : {"A", "B", "C"}) {
      SyntheticWorkload workload(fresh.get(), name, 5);
      EXPECT_TRUE(workload.Setup(1200).ok());
    }
    EXPECT_TRUE(
        fresh->ExecuteSql("SELECT * FROM B WHERE Owner = 'Maria'").ok());
    uint64_t before = fresh->pager().pool().stats().misses;
    for (size_t i : order) {
      EXPECT_TRUE(fresh->ExecuteSql(queries[i]).ok());
    }
    return fresh->pager().pool().stats().misses - before;
  };
  std::vector<size_t> original_order;
  for (size_t i = 0; i < queries.size(); ++i) original_order.push_back(i);
  uint64_t misses_original = run_in_order(original_order);
  uint64_t misses_reordered = run_in_order(plan->order);
  EXPECT_LT(misses_reordered, misses_original);
}

TEST(QueryReorderTest, IndexScansAreCheapEverywhere) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(3000).ok());
  // Cold cache: the full scan is expensive, point lookups are not.
  ASSERT_TRUE(db->pager().pool().Clear().ok());
  std::vector<std::string> queries = {
      "SELECT * FROM Accounts",                 // full scan
      "SELECT * FROM Accounts WHERE Id = 5",    // point lookup
      "SELECT * FROM Accounts WHERE Id = 9",    // point lookup
  };
  auto plan = QueryReorderer::Plan(db.get(), queries);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->order.size(), 3u);
  // Point lookups (cheap) schedule before the cold full scan.
  EXPECT_EQ(plan->order.back(), 0u) << plan->ToString();
}

TEST(QueryReorderTest, NotEqualPlansTheFullScanTheEngineRuns) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(3000).ok());
  ASSERT_TRUE(db->pager().pool().Clear().ok());
  const std::string ne = "SELECT * FROM Accounts WHERE Id <> 5";
  auto full = QueryReorderer::Plan(db.get(), {"SELECT * FROM Accounts"});
  auto plan = QueryReorderer::Plan(db.get(), {ne});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(plan.ok());
  // <> bounds no index: the same cold misses as the full scan.
  EXPECT_GT(full->estimated_misses_original, 0u);
  EXPECT_EQ(plan->estimated_misses_original, full->estimated_misses_original);
  ASSERT_TRUE(db->ExecuteSql(ne).ok());
  EXPECT_EQ(db->last_access_path(), AccessPath::kFullScan);
}

TEST(QueryReorderTest, ConjunctionPlansTheIndexTheEngineChooses) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(3000).ok());
  ASSERT_TRUE(db->CreateIndex("idx_owner", "Accounts", {"Owner"}).ok());
  ASSERT_TRUE(db->pager().pool().Clear().ok());
  // Both conjuncts bound an index; the engine takes the first in catalog
  // order (the primary key), so the plan is the Id range scan's.
  auto range = QueryReorderer::Plan(
      db.get(), {"SELECT * FROM Accounts WHERE Id > 5"});
  auto both = QueryReorderer::Plan(
      db.get(), {"SELECT * FROM Accounts WHERE Id > 5 AND Owner = 'Joe'"});
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->estimated_misses_original,
            range->estimated_misses_original);
}

TEST(QueryReorderTest, RejectsNonSelects) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(10).ok());
  EXPECT_FALSE(
      QueryReorderer::Plan(db.get(), {"DELETE FROM Accounts"}).ok());
  EXPECT_FALSE(QueryReorderer::Plan(db.get(), {"SELECT * FROM Nope"}).ok());
}

}  // namespace
}  // namespace dbfa
