// Anti-forensics tests: wiping completeness (four categories) and the
// Figure 3 steganography scenario on the SSBM schema.
#include <gtest/gtest.h>

#include "antiforensics/steganography.h"
#include "antiforensics/wiper.h"
#include "metaquery/session.h"
#include "storage/dialects.h"
#include "workload/ssbm.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  return config;
}

class WiperDialectTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WiperDialectTest, WipesAllFourCategories) {
  DatabaseOptions options;
  options.dialect = GetParam();
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 11);
  ASSERT_TRUE(workload.Setup(120).ok());
  // Deletes + updates leave records; a dropped table leaves pages.
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Accounts WHERE Id <= 30").ok());
  ASSERT_TRUE(
      (*db)->ExecuteSql("UPDATE Accounts SET Balance = 0 WHERE Id = 40").ok());
  ASSERT_TRUE((*db)
                  ->ExecuteSql("CREATE TABLE Doomed (x INT, y VARCHAR(8), "
                               "PRIMARY KEY (x))")
                  .ok());
  ASSERT_TRUE(
      (*db)->ExecuteSql("INSERT INTO Doomed VALUES (1, 'secret')").ok());
  ASSERT_TRUE((*db)->ExecuteSql("DROP TABLE Doomed").ok());

  // Pre-wipe carve shows plenty of residue.
  CarverConfig config = ConfigFor(GetParam());
  Carver carver(config);
  auto image_before = (*db)->SnapshotDisk();
  ASSERT_TRUE(image_before.ok());
  auto carve_before = carver.Carve(*image_before);
  ASSERT_TRUE(carve_before.ok());
  EXPECT_GE(carve_before->CountRecords(RowStatus::kDeleted), 31u);
  EXPECT_FALSE(carve_before->dropped_objects.empty());

  Wiper wiper(config);
  auto report = wiper.WipeDatabase(db->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->deleted_records_wiped, 31u);
  EXPECT_GT(report->index_entries_wiped, 0u)
      << "stale PK entries for deleted rows must be wiped";
  EXPECT_GT(report->unallocated_pages_wiped, 0u);
  EXPECT_GT(report->catalog_entries_wiped, 0u)
      << "Doomed's catalog remnants must be wiped";

  // Post-wipe carve: nothing deleted remains; the secret is gone; the
  // database still works.
  auto image_after = (*db)->SnapshotDisk();
  ASSERT_TRUE(image_after.ok());
  auto carve_after = carver.Carve(*image_after);
  ASSERT_TRUE(carve_after.ok());
  EXPECT_EQ(carve_after->CountRecords(RowStatus::kDeleted), 0u);
  std::string image_text(image_after->begin(), image_after->end());
  EXPECT_EQ(image_text.find("secret"), std::string::npos);
  EXPECT_EQ(image_text.find("Doomed"), std::string::npos);

  auto rows = (*db)->ExecuteSql("SELECT * FROM Accounts WHERE Id > 30");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 90u) << "live rows survive the wipe";
  // Index lookups still work after index-page rewrites.
  auto by_pk = (*db)->ExecuteSql("SELECT * FROM Accounts WHERE Id = 77");
  ASSERT_TRUE(by_pk.ok());
  EXPECT_EQ(by_pk->rows.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, WiperDialectTest,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(SteganographyTest, Figure3ScenarioOnSsbm) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SsbmConfig config;
  config.customers = 50;
  config.suppliers = 20;
  config.parts = 50;
  config.date_days = 365;
  config.lineorders = 300;
  ASSERT_TRUE(LoadSsbm(db->get(), config).ok());

  // Baseline query results before hiding.
  std::map<std::string, std::string> before;
  for (const std::string& qid : SsbmQueryIds()) {
    auto r = RunSsbmQuery(db->get(), qid);
    ASSERT_TRUE(r.ok()) << qid;
    before[qid] = r->ToText(1000);
  }

  // The Figure 3 record: NULL composite PK (absent from the PK index),
  // -1 foreign keys (bypass referential integrity, never join), and an
  // 11-character LO_Shipmode in a VARCHAR(10) (domain violation).
  Record hidden = {Value::Null(),  Value::Null(),  Value::Int(-1),
                   Value::Int(-1), Value::Int(-1), Value::Int(-1),
                   Value::Int(0),  Value::Int(0),  Value::Int(0),
                   Value::Int(0),  Value::Int(0),  Value::Str("Hello_World")};
  // The SQL surface rejects it outright...
  EXPECT_FALSE((*db)->Insert("lineorder", hidden).ok());
  // ...but byte-level steganography does not care.
  CarverConfig carver_config = ConfigFor((*db)->params().dialect);
  Steganographer steg(carver_config);
  ASSERT_TRUE(steg.HideInDatabase(db->get(), "lineorder", hidden).ok());

  // Every SSBM query returns byte-identical results: the record is
  // invisible to all of them (each joins at least one dimension).
  for (const std::string& qid : SsbmQueryIds()) {
    auto r = RunSsbmQuery(db->get(), qid);
    ASSERT_TRUE(r.ok()) << qid;
    EXPECT_EQ(r->ToText(1000), before[qid]) << qid;
  }

  // A full scan *does* see it (it is real storage content) — the paper's
  // retrieval query by domain violation:
  MetaQuerySession session;
  ASSERT_TRUE(session.RegisterDatabase(db->get()).ok());
  auto retrieve = session.Query(
      "SELECT lo_shipmode FROM lineorder WHERE LENGTH(lo_shipmode) > 10");
  ASSERT_TRUE(retrieve.ok()) << retrieve.status().ToString();
  ASSERT_EQ(retrieve->rows.size(), 1u);
  EXPECT_EQ(retrieve->rows[0][0], Value::Str("Hello_World"));

  // And the forensic extractor finds it with its violations enumerated.
  auto image = (*db)->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  auto hidden_found = steg.ExtractHidden(*image);
  ASSERT_TRUE(hidden_found.ok()) << hidden_found.status().ToString();
  ASSERT_EQ(hidden_found->size(), 1u);
  const HiddenRecord& h = (*hidden_found)[0];
  EXPECT_EQ(h.record.values[11], Value::Str("Hello_World"));
  // The extractor's carve is gone: every interned string must point into
  // a pool the hidden record holds.
  for (const Value& v : h.record.values) {
    if (v.is_interned()) {
      EXPECT_TRUE(h.string_pools.Holds(v.interned_ref().pool_id))
          << v.ToString();
    }
  }
  // Violations: VARCHAR(10) overflow, NULL PK components (2, also NOT
  // NULL), and 4 unmatched FKs.
  EXPECT_GE(h.violations.size(), 6u);
  bool domain = false;
  bool null_pk = false;
  bool fk = false;
  for (const ConstraintViolation& v : h.violations) {
    if (v.what.find("VARCHAR(10)") != std::string::npos) domain = true;
    if (v.what.find("PRIMARY KEY") != std::string::npos) null_pk = true;
    if (v.what.find("unmatched") != std::string::npos) fk = true;
  }
  EXPECT_TRUE(domain);
  EXPECT_TRUE(null_pk);
  EXPECT_TRUE(fk);
}

TEST(SteganographyTest, CleanDatabaseHasNoHiddenRecords) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 3);
  ASSERT_TRUE(workload.Setup(60).ok());
  CarverConfig config = ConfigFor((*db)->params().dialect);
  Steganographer steg(config);
  auto image = (*db)->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  auto found = steg.ExtractHidden(*image);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->empty()) << "no false positives on a clean database";
}

}  // namespace
}  // namespace dbfa
