// DBStorageAuditor tests: byte-level tampering detection and the
// equivalence of the sorted matcher with the nested-loop reference
// (tests/oracles/auditor_reference.h).
#include <gtest/gtest.h>

#include "auditor/storage_auditor.h"
#include "oracles/auditor_reference.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const Database& db) {
  CarverConfig config;
  config.params = GetDialect(db.params().dialect).value();
  return config;
}

std::unique_ptr<Database> FreshDbWithAccounts(int rows,
                                              const std::string& dialect =
                                                  "postgres_like") {
  DatabaseOptions options;
  options.dialect = dialect;
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 17);
  EXPECT_TRUE(workload.Setup(rows).ok());
  return std::move(db).value();
}

RowPointer FindRow(Database* db, int64_t id) {
  RowPointer out{};
  EXPECT_TRUE(db->heap("Accounts")
                  ->Scan([&](RowPointer ptr, const Record& rec) {
                    if (rec[0] == Value::Int(id)) out = ptr;
                    return Status::Ok();
                  })
                  .ok());
  return out;
}

class AuditorDialectTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AuditorDialectTest, CleanDatabasePassesAudit) {
  auto db = FreshDbWithAccounts(150, GetParam());
  // Legitimate deletes leave residue that must NOT be flagged.
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id <= 20").ok());
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  StorageAuditor auditor(ConfigFor(*db));
  auto report = auditor.Audit(*image);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean()) << report->ToString();
  EXPECT_GT(report->records_checked, 0u);
  EXPECT_GT(report->pointers_checked, 0u);
}

TEST_P(AuditorDialectTest, DetectsAllThreeTamperKinds) {
  auto db = FreshDbWithAccounts(150, GetParam());
  // 1. Overwrite Id 30's primary key in place (value mismatch).
  RowPointer victim = FindRow(db.get(), 30);
  ASSERT_TRUE(TamperOverwriteField(db.get(), "Accounts", victim, "Id",
                                   Value::Int(999930))
                  .ok());
  // 2. Smuggle a record in without index entries (extraneous).
  ASSERT_TRUE(TamperInsertRecord(db.get(), "Accounts",
                                 {Value::Int(4444), Value::Str("Ghost"),
                                  Value::Str("Nowhere"), Value::Real(0.0)})
                  .ok());
  // 3. Erase Id 40 at byte level (dangling pointer).
  ASSERT_TRUE(
      TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 40)).ok());

  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  StorageAuditor auditor(ConfigFor(*db));
  auto report = auditor.Audit(*image);
  ASSERT_TRUE(report.ok());
  bool mismatch = false;
  bool extraneous = false;
  bool dangling = false;
  for (const TamperFinding& f : report->findings) {
    switch (f.kind) {
      case TamperFinding::Kind::kValueMismatch:
        // The in-place overwrite: index key 30 vs record key 999930.
        if (!f.index_keys.empty() && f.index_keys[0] == Value::Int(30)) {
          mismatch = true;
        }
        break;
      case TamperFinding::Kind::kExtraneousRecord:
        if (!f.record_values.empty() &&
            f.record_values[0] == Value::Int(4444)) {
          extraneous = true;
        }
        break;
      case TamperFinding::Kind::kDanglingPointer:
        if (!f.index_keys.empty() && f.index_keys[0] == Value::Int(40)) {
          dangling = true;
        }
        break;
    }
  }
  EXPECT_TRUE(mismatch) << report->ToString();
  EXPECT_TRUE(extraneous) << report->ToString();
  EXPECT_TRUE(dangling) << report->ToString();
  // The overwritten record also has no matching entry at key 999930; no
  // clean finding should reference untampered rows.
  for (const TamperFinding& f : report->findings) {
    if (f.kind == TamperFinding::Kind::kExtraneousRecord) {
      EXPECT_TRUE(f.record_values[0] == Value::Int(4444) ||
                  f.record_values[0] == Value::Int(999930))
          << f.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, AuditorDialectTest,
    ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(AuditorTest, SortedAndNaiveMatchersAgree) {
  auto db = FreshDbWithAccounts(200);
  ASSERT_TRUE(TamperInsertRecord(db.get(), "Accounts",
                                 {Value::Int(5555), Value::Str("Ghost"),
                                  Value::Str("X"), Value::Real(1.0)})
                  .ok());
  ASSERT_TRUE(
      TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 60)).ok());
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());

  auto carve = Carver(ConfigFor(*db)).Carve(*image);
  ASSERT_TRUE(carve.ok());
  auto r1 = StorageAuditor(ConfigFor(*db)).AuditCarve(*carve);
  ASSERT_TRUE(r1.ok());
  AuditReport r2 = auditor_internal::AuditCarveReference(*carve);
  // Same finding multiset (order may differ) and the same counts.
  std::multiset<std::string> s1;
  std::multiset<std::string> s2;
  for (const auto& f : r1->findings) s1.insert(f.ToString());
  for (const auto& f : r2.findings) s2.insert(f.ToString());
  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(s1.empty());
  EXPECT_EQ(r1->records_checked, r2.records_checked);
  EXPECT_EQ(r1->pointers_checked, r2.pointers_checked);
}

TEST(AuditorTest, IndexStructureTamperingDetected) {
  auto db = FreshDbWithAccounts(400);
  // Corrupt the PK index: swap two entries' order inside a leaf by
  // overwriting a key byte at storage level.
  const TableInfo* info = db->catalog().Find("Accounts");
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->indexes.size(), 1u);
  uint32_t index_object = info->indexes[0].object_id;
  ASSERT_TRUE(db->pager().pool().FlushAll().ok());
  StorageFile* file = db->pager().file(index_object);
  ASSERT_NE(file, nullptr);
  const PageFormatter& fmt = db->pager().fmt();
  bool corrupted = false;
  for (uint32_t page_id = 1; page_id <= file->page_count() && !corrupted;
       ++page_id) {
    uint8_t* page = file->PageData(page_id);
    if (fmt.TypeOf(page) != PageType::kIndexLeaf) continue;
    if (fmt.RecordCount(page) < 4) continue;
    // Rewrite slot 2's entry with a huge key so in-node order breaks.
    auto slot = fmt.GetSlot(page, 2);
    ASSERT_TRUE(slot.has_value());
    auto entry = fmt.ParseIndexEntryAt(ByteView(page, fmt.page_size()),
                                       slot->offset);
    ASSERT_TRUE(entry.ok());
    Bytes forged = fmt.EncodeLeafEntry({Value::Int(1)}, entry->pointer);
    // Only overwrite if sizes match (same key width).
    if (forged.size() == entry->length && fmt.RecordCount(page) > 3) {
      std::memcpy(page + slot->offset, forged.data(), forged.size());
      fmt.UpdateChecksum(page);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  ASSERT_TRUE(db->pager().pool().Clear().ok());

  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  StorageAuditor auditor(ConfigFor(*db));
  auto report = auditor.Audit(*image);
  ASSERT_TRUE(report.ok());
  bool order_issue = false;
  for (const BTreeIssue& issue : report->index_issues) {
    if (issue.what.find("out of order") != std::string::npos) {
      order_issue = true;
    }
  }
  EXPECT_TRUE(order_issue) << report->ToString();
}

TEST(AuditorTest, ChecksumFailureReportedAsIndexIssue) {
  auto db = FreshDbWithAccounts(200);
  const TableInfo* info = db->catalog().Find("Accounts");
  uint32_t index_object = info->indexes[0].object_id;
  ASSERT_TRUE(db->pager().pool().FlushAll().ok());
  StorageFile* file = db->pager().file(index_object);
  // Careless attacker: modify an index page without fixing the checksum.
  file->PageData(1)[db->params().header_size + 3] += 1;
  ASSERT_TRUE(db->pager().pool().Clear().ok());
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  StorageAuditor auditor(ConfigFor(*db));
  auto report = auditor.Audit(*image);
  ASSERT_TRUE(report.ok());
  bool checksum_issue = false;
  for (const BTreeIssue& issue : report->index_issues) {
    if (issue.what.find("checksum") != std::string::npos) {
      checksum_issue = true;
    }
  }
  EXPECT_TRUE(checksum_issue) << report->ToString();
}

}  // namespace
}  // namespace dbfa
