// DBDetective tests, including the exact Figure 4 scenario.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/carver.h"
#include "detective/confidence.h"
#include "detective/dbdetective.h"
#include "detective/log_index.h"
#include "oracles/detective_reference.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const Database& db) {
  CarverConfig config;
  config.params = GetDialect(db.params().dialect).value();
  return config;
}

Result<CarveResult> CarveDisk(Database* db) {
  DBFA_ASSIGN_OR_RETURN(Bytes image, db->SnapshotDisk());
  Carver carver(ConfigFor(*db));
  return carver.Carve(image);
}

TEST(DetectiveTest, Figure4UnattributedDelete) {
  // Figure 4: carved deleted rows (1,Christine,Chicago),
  // (3,Christopher,Seattle), (4,Thomas,Austin); the log holds
  // DELETE WHERE City='Chicago' and DELETE WHERE Name LIKE 'Chris%'.
  // Only (4,Thomas,Austin) must be flagged.
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  TableSchema schema;
  schema.name = "Customer";
  schema.columns = {{"Id", ColumnType::kInt, 0, false},
                    {"Name", ColumnType::kVarchar, 32, true},
                    {"City", ColumnType::kVarchar, 24, true}};
  schema.primary_key = {"Id"};
  ASSERT_TRUE((*db)->CreateTable(schema).ok());
  ASSERT_TRUE((*db)
                  ->ExecuteSql("INSERT INTO Customer VALUES "
                               "(1, 'Christine', 'Chicago'), "
                               "(2, 'James', 'Boston'), "
                               "(3, 'Christopher', 'Seattle'), "
                               "(4, 'Thomas', 'Austin')")
                  .ok());
  ASSERT_TRUE(
      (*db)->ExecuteSql("DELETE FROM Customer WHERE City = 'Chicago'").ok());
  ASSERT_TRUE(
      (*db)
          ->ExecuteSql("DELETE FROM Customer WHERE Name LIKE 'Chris%'")
          .ok());
  // The attack: logging disabled, row 4 deleted, logging re-enabled.
  (*db)->audit_log().SetEnabled(false);
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Customer WHERE Id = 4").ok());
  (*db)->audit_log().SetEnabled(true);

  auto carve = CarveDisk(db->get());
  ASSERT_TRUE(carve.ok());
  DbDetective detective(&*carve, &(*db)->audit_log());
  auto report = detective.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->modifications.size(), 1u) << report->ToString();
  const UnattributedModification& m = report->modifications[0];
  EXPECT_EQ(m.kind, UnattributedModification::Kind::kDelete);
  EXPECT_EQ(m.table, "Customer");
  EXPECT_EQ(m.values[0], Value::Int(4));
  EXPECT_EQ(m.values[1], Value::Str("Thomas"));
  EXPECT_EQ(m.values[2], Value::Str("Austin"));
  EXPECT_NE(report->ToString().find("Thomas"), std::string::npos);
}

TEST(DetectiveTest, CleanWorkloadProducesNoFindings) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(80).ok());
  ASSERT_TRUE(workload.Run(120, OpMix{}, /*logged=*/true).ok());
  auto carve = CarveDisk(db->get());
  ASSERT_TRUE(carve.ok());
  DbDetective detective(&*carve, &(*db)->audit_log());
  auto report = detective.Analyze();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Clean()) << report->ToString();
  EXPECT_GT(report->deleted_records_checked, 0u);
  EXPECT_GT(report->active_records_checked, 0u);
}

TEST(DetectiveTest, UnloggedInsertAndDeleteDetected) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(50).ok());
  (*db)->audit_log().SetEnabled(false);
  ASSERT_TRUE((*db)
                  ->ExecuteSql("INSERT INTO Accounts VALUES "
                               "(7001, 'Mallory', 'Nowhere', 13.37)")
                  .ok());
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Accounts WHERE Id = 17").ok());
  (*db)->audit_log().SetEnabled(true);

  auto carve = CarveDisk(db->get());
  ASSERT_TRUE(carve.ok());
  DbDetective detective(&*carve, &(*db)->audit_log());
  auto report = detective.Analyze();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->modifications.size(), 2u) << report->ToString();
  bool saw_insert = false;
  bool saw_delete = false;
  for (const auto& m : report->modifications) {
    if (m.kind == UnattributedModification::Kind::kInsert &&
        m.values[1] == Value::Str("Mallory")) {
      saw_insert = true;
    }
    if (m.kind == UnattributedModification::Kind::kDelete &&
        m.values[0] == Value::Int(17)) {
      saw_delete = true;
    }
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_delete);
}

TEST(DetectiveTest, LoggedUpdateExplainsBothVersions) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(20).ok());
  ASSERT_TRUE(
      (*db)
          ->ExecuteSql("UPDATE Accounts SET Balance = 777.25 WHERE Id = 3")
          .ok());
  auto carve = CarveDisk(db->get());
  ASSERT_TRUE(carve.ok());
  DbDetective detective(&*carve, &(*db)->audit_log());
  auto report = detective.Analyze();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Clean())
      << "pre- and post-image of a logged UPDATE are attributed: "
      << report->ToString();
}

TEST(DetectiveTest, UnloggedSelectLeavesCachePattern) {
  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(300).ok());
  // Second table the attacker will secretly read.
  TableSchema secret = AccountsSchema("Payroll");
  ASSERT_TRUE((*db)->CreateTable(secret).ok());
  for (int i = 1; i <= 300; ++i) {
    ASSERT_TRUE((*db)
                    ->Insert("Payroll", {Value::Int(i), Value::Str("Emp"),
                                         Value::Str("HQ"), Value::Real(9.5)})
                    .ok());
  }
  // Persist everything, then restart-like state: clear the cache so only
  // activity after this point leaves traces. The investigator compares
  // the cache against the log window starting here.
  ASSERT_TRUE((*db)->SnapshotDisk().ok());
  ASSERT_TRUE((*db)->pager().pool().Clear().ok());
  uint64_t watermark = (*db)->audit_log().entries().back().seq;

  auto disk_carve = CarveDisk(db->get());
  ASSERT_TRUE(disk_carve.ok());

  // The attack: unlogged full read of Payroll.
  (*db)->audit_log().SetEnabled(false);
  ASSERT_TRUE((*db)->ExecuteSql("SELECT * FROM Payroll").ok());
  (*db)->audit_log().SetEnabled(true);

  Bytes ram = (*db)->SnapshotRam();
  CarveOptions ram_options;
  ram_options.scan_step = (*db)->params().page_size;
  Carver ram_carver(ConfigFor(**db), ram_options);
  auto ram_carve = ram_carver.Carve(ram);
  ASSERT_TRUE(ram_carve.ok());

  AuditLog window = (*db)->audit_log().TailAfter(watermark);
  DbDetective detective(&*disk_carve, &window, &*ram_carve);
  auto reads = detective.FindUnloggedReads();
  ASSERT_TRUE(reads.ok()) << reads.status().ToString();
  ASSERT_GE(reads->size(), 1u);
  bool payroll_flagged = false;
  for (const UnloggedAccess& access : *reads) {
    if (access.table == "Payroll") {
      payroll_flagged = true;
      EXPECT_EQ(access.pattern, UnloggedAccess::Pattern::kFullScan)
          << access.ToString();
    }
    EXPECT_NE(access.table, "Accounts")
        << "Accounts activity is fully logged";
  }
  EXPECT_TRUE(payroll_flagged);
}

TEST(DetectiveTest, LoggedSelectExplainsCachePattern) {
  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(200).ok());
  ASSERT_TRUE((*db)->SnapshotDisk().ok());
  ASSERT_TRUE((*db)->pager().pool().Clear().ok());
  uint64_t watermark = (*db)->audit_log().entries().back().seq;
  auto disk_carve = CarveDisk(db->get());
  ASSERT_TRUE(disk_carve.ok());
  ASSERT_TRUE((*db)->ExecuteSql("SELECT * FROM Accounts").ok());  // logged
  Bytes ram = (*db)->SnapshotRam();
  CarveOptions ram_options;
  ram_options.scan_step = (*db)->params().page_size;
  Carver ram_carver(ConfigFor(**db), ram_options);
  auto ram_carve = ram_carver.Carve(ram);
  ASSERT_TRUE(ram_carve.ok());
  AuditLog window = (*db)->audit_log().TailAfter(watermark);
  DbDetective detective(&*disk_carve, &window, &*ram_carve);
  auto reads = detective.FindUnloggedReads();
  ASSERT_TRUE(reads.ok());
  EXPECT_TRUE(reads->empty()) << (*reads)[0].ToString();
}

TEST(DetectiveTest, MakeMetaQuerySessionRunsBudgetedSql) {
  // Investigations over large carves drop the carved relations into a
  // meta-query session with a memory budget; the out-of-core engine must
  // return exactly what the unlimited session returns.
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 5);
  ASSERT_TRUE(workload.Setup(150).ok());
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Accounts WHERE Id <= 30").ok());

  auto disk_carve = CarveDisk(db->get());
  ASSERT_TRUE(disk_carve.ok());
  Bytes ram = (*db)->SnapshotRam();
  CarveOptions ram_options;
  ram_options.scan_step = (*db)->params().page_size;
  Carver ram_carver(ConfigFor(**db), ram_options);
  auto ram_carve = ram_carver.Carve(ram);
  ASSERT_TRUE(ram_carve.ok());

  const std::string query =
      "SELECT Id, RowStatus FROM CarvDiskAccounts "
      "WHERE RowStatus = 'DELETED' ORDER BY Id";

  DbDetective unlimited_detective(&*disk_carve, &(*db)->audit_log(),
                                  &*ram_carve);
  auto unlimited = unlimited_detective.MakeMetaQuerySession();
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  auto expected = (*unlimited)->Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->rows.size(), 0u);

  DetectiveOptions options;
  options.metaquery.memory_budget_bytes = 1024;
  DbDetective detective(&*disk_carve, &(*db)->audit_log(), &*ram_carve,
                        options);
  auto session = detective.MakeMetaQuerySession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Both snapshots are registered under Section II-C's naming.
  std::vector<std::string> names = (*session)->RelationNames();
  bool disk_seen = false;
  bool ram_seen = false;
  for (const std::string& name : names) {
    if (name == "CarvDiskAccounts") disk_seen = true;
    if (name == "CarvRAMAccounts") ram_seen = true;
  }
  EXPECT_TRUE(disk_seen);
  EXPECT_TRUE(ram_seen);

  auto actual = (*session)->Query(query);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_TRUE((*session)->last_spill_stats().spilled())
      << "a 1 KB budget over a 150-row carve must spill";
  ASSERT_EQ(expected->columns, actual->columns);
  ASSERT_EQ(expected->rows.size(), actual->rows.size());
  for (size_t r = 0; r < expected->rows.size(); ++r) {
    ASSERT_EQ(expected->rows[r].size(), actual->rows[r].size());
    for (size_t c = 0; c < expected->rows[r].size(); ++c) {
      EXPECT_EQ(Value::Compare(expected->rows[r][c], actual->rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }

  // The cross-snapshot join from Section II-C's example also runs under
  // the budget.
  auto joined = (*session)->Query(
      "SELECT CarvDiskAccounts.Id FROM CarvDiskAccounts "
      "JOIN CarvRAMAccounts ON CarvDiskAccounts.Id = CarvRAMAccounts.Id "
      "ORDER BY CarvDiskAccounts.Id LIMIT 20");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
}

TEST(ConfidenceTest, CleanFreshDatabaseScoresHigh) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 31);
  ASSERT_TRUE(workload.Setup(100).ok());
  ASSERT_TRUE(workload.Run(60, OpMix{}, true).ok());
  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  ConfidenceReport report =
      EstimateDetectionConfidence(*carve, db->audit_log());
  EXPECT_GT(report.score, 0.6) << report.ToString();
}

TEST(ConfidenceTest, VacuumCollapsesConfidence) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 32);
  ASSERT_TRUE(workload.Setup(100).ok());
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id <= 40").ok());
  auto before = CarveDisk(db.get());
  ASSERT_TRUE(before.ok());
  double clean = EstimateDetectionConfidence(*before, db->audit_log()).score;
  ASSERT_TRUE(db->ExecuteSql("VACUUM Accounts").ok());
  auto after = CarveDisk(db.get());
  ASSERT_TRUE(after.ok());
  ConfidenceReport degraded =
      EstimateDetectionConfidence(*after, db->audit_log());
  EXPECT_LT(degraded.score, clean * 0.5) << degraded.ToString();
  bool vacuum_factor = false;
  for (const std::string& f : degraded.factors) {
    if (f.find("VACUUM") != std::string::npos) vacuum_factor = true;
  }
  EXPECT_TRUE(vacuum_factor);
}

TEST(ConfidenceTest, EvidenceReuseLowersResidueRatio) {
  DatabaseOptions options;
  options.page_reuse_threshold = 0.5;
  auto db = Database::Open(options).value();
  SyntheticWorkload workload(db.get(), "Accounts", 33);
  ASSERT_TRUE(workload.Setup(300).ok());
  // 200 logged single-row deletes free whole pages; inserts reclaim them.
  for (int id = 1; id <= 200; ++id) {
    ASSERT_TRUE(db->ExecuteSql(StrFormat(
                                   "DELETE FROM Accounts WHERE Id = %d", id))
                    .ok());
  }
  OpMix inserts_only;
  inserts_only.insert_weight = 1.0;
  inserts_only.delete_weight = 0.0;
  inserts_only.update_weight = 0.0;
  inserts_only.select_weight = 0.0;
  ASSERT_TRUE(workload.Run(400, inserts_only, true).ok());
  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  ConfidenceReport report =
      EstimateDetectionConfidence(*carve, db->audit_log());
  // Residue was overwritten; the rating must reflect reduced completeness.
  EXPECT_LT(report.score, 1.0) << report.ToString();
}

TEST(DetectiveTest, PreboundMatcherMatchesReferenceImplementation) {
  // The prebound matcher (predicates bound per carved schema once,
  // statements bucketed per table) must produce exactly the report of the
  // name-resolving tuple-at-a-time oracle (tests/oracles/), findings in the
  // same order, on a workload that mixes logged activity with unlogged
  // INSERT/DELETE/UPDATE tampering.
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 11);
  ASSERT_TRUE(workload.Setup(120).ok());
  ASSERT_TRUE(workload.Run(250, OpMix{}, /*logged=*/true).ok());
  (*db)->audit_log().SetEnabled(false);
  ASSERT_TRUE((*db)
                  ->ExecuteSql("INSERT INTO Accounts VALUES "
                               "(9001, 'Mallory', 'Nowhere', 13.37)")
                  .ok());
  ASSERT_TRUE((*db)->ExecuteSql("DELETE FROM Accounts WHERE Id = 23").ok());
  ASSERT_TRUE(
      (*db)
          ->ExecuteSql("UPDATE Accounts SET Balance = 0.5 WHERE Id = 31")
          .ok());
  (*db)->audit_log().SetEnabled(true);

  auto carve = CarveDisk(db->get());
  ASSERT_TRUE(carve.ok());
  DbDetective prebound(&*carve, &(*db)->audit_log());

  size_t fast_deleted = 0, fast_active = 0;
  size_t ref_deleted = 0, ref_active = 0;
  auto fast =
      prebound.FindUnattributedModifications(&fast_deleted, &fast_active);
  auto ref = detective_internal::FindUnattributedModificationsReference(
      *carve, (*db)->audit_log(), &ref_deleted, &ref_active);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(fast_deleted, ref_deleted);
  EXPECT_EQ(fast_active, ref_active);
  ASSERT_EQ(fast->size(), ref->size());
  EXPECT_FALSE(fast->empty());
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_EQ((*fast)[i].ToString(), (*ref)[i].ToString()) << "finding " << i;
  }
}

TEST(AuditLogIndexTest, ExtendsOverSharedHandlesAndRebuildsOtherwise) {
  AuditLog log;
  log.Append(1, "CREATE TABLE T (Id INT NOT NULL, Name VARCHAR(8))");
  log.Append(2, "INSERT INTO T VALUES (1, 'a'), (2, 'b')");
  log.Append(3, "DELETE FROM T WHERE Id = 1");
  log.Append(4, "SELECT * FROM S");
  AuditLogIndex index(log);
  EXPECT_EQ(index.size(), 4u);
  const AuditLogIndex::TableLog* t = index.Find("t");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->deletes.size(), 1u);
  EXPECT_EQ(t->insert_rows.size(), 2u);
  EXPECT_FALSE(t->dropped);
  const AuditLogIndex::TableLog* s = index.Find("s");  // read only
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->deletes.empty() && s->insert_rows.empty());
  EXPECT_EQ(index.Find("U"), nullptr);
  const sql::DeleteStmt* first_delete = t->deletes[0];
  EXPECT_EQ(first_delete,
            &std::get<sql::DeleteStmt>(*log.entries()[2].statement()));

  // A copy that grew shares the indexed handles: only the tail is added.
  AuditLog grown = log;
  grown.Append(5, "DROP TABLE T");
  index.Update(grown);
  EXPECT_EQ(index.size(), 5u);
  t = index.Find("T");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->dropped);
  ASSERT_EQ(t->deletes.size(), 1u);
  EXPECT_EQ(t->deletes[0], first_delete);

  // Same text, fresh handles: rebuilt over the reloaded statements.
  auto reloaded = AuditLog::FromText(grown.ToText());
  ASSERT_TRUE(reloaded.ok());
  index.Update(*reloaded);
  t = index.Find("T");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->deletes.size(), 1u);
  EXPECT_NE(t->deletes[0], first_delete);
  EXPECT_TRUE(t->dropped);

  // A shorter log over the original handles: rebuilt, the DROP is gone.
  index.Update(log);
  EXPECT_EQ(index.size(), 4u);
  t = index.Find("T");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->dropped);
  EXPECT_EQ(t->deletes[0], first_delete);

  index.Update(AuditLog());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find("T"), nullptr);
  EXPECT_EQ(index.Find("S"), nullptr);
}

}  // namespace
}  // namespace dbfa
