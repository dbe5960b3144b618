// Carved strings have one ownership rule (docs/columnar_memory.md): every
// string cell a carve or a snapshot repository decodes is interned, and
// every public result that carries carved Values holds the pools its cells
// point into. Each test here builds one such result, destroys its source
// (the carve, the meta-query session, or the SnapshotRepo), and then reads
// every string cell: under ASan a pool freed with its source is a
// heap-use-after-free, and without ASan the pool check names the cell.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "antiforensics/steganography.h"
#include "auditor/storage_auditor.h"
#include "carve_equivalence.h"
#include "core/carver.h"
#include "detective/dbdetective.h"
#include "metaquery/session.h"
#include "pli/pli.h"
#include "reenact/recovery.h"
#include "snapshot/snapshot_repo.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const Database& db) {
  CarverConfig config;
  config.params = GetDialect(db.params().dialect).value();
  return config;
}

/// Accounts (string Owner and City columns) with unlogged activity of every
/// kind the results below report: an unlogged DELETE and INSERT (Figure-4
/// findings), a record smuggled in at byte level (an auditor finding and a
/// recovery row), and a hidden record whose Owner overflows VARCHAR(24).
std::unique_ptr<Database> TamperedDb() {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 17);
  EXPECT_TRUE(workload.Setup(40).ok());
  EXPECT_TRUE(
      workload.RunStatement("DELETE FROM Accounts WHERE Id = 5", false).ok());
  EXPECT_TRUE(workload
                  .RunStatement("INSERT INTO Accounts VALUES (900, "
                                "'Unlogged Owner', 'Nowhere', 1.5)",
                                false)
                  .ok());
  EXPECT_TRUE(TamperInsertRecord(db.get(), "Accounts",
                                 {Value::Int(990001), Value::Str("Ghost"),
                                  Value::Str("Smuggled"), Value::Real(0.5)})
                  .ok());
  Steganographer steg(ConfigFor(*db));
  EXPECT_TRUE(steg.HideInDatabase(
                      db.get(), "Accounts",
                      {Value::Int(990002),
                       Value::Str("an owner name far past its domain"),
                       Value::Str("Hidden"), Value::Real(2.5)})
                  .ok());
  return db;
}

Bytes DiskImage(Database* db) { return db->SnapshotDisk().value(); }

CarveResult Carve(const Database& db, const Bytes& image) {
  return Carver(ConfigFor(db)).Carve(image).value();
}

/// Reads every string cell of `values` and checks that each interned cell
/// points into a pool `held` says it holds. Returns the interned cells.
size_t ReadCells(const std::vector<Value>& values,
                 const std::function<bool(uint64_t)>& held) {
  size_t interned = 0;
  for (const Value& v : values) {
    if (v.type() != ValueType::kString) continue;
    std::string copy(v.as_string());
    EXPECT_EQ(copy, v.ToString());
    if (!v.is_interned()) continue;
    ++interned;
    EXPECT_TRUE(held(v.interned_ref().pool_id)) << "cell '" << copy << "'";
  }
  return interned;
}

size_t ReadCells(const std::vector<Value>& values,
                 const StringPoolSet& pools) {
  return ReadCells(values, [&pools](uint64_t id) { return pools.Holds(id); });
}

std::string RepoDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// A repository holding one ingest of `image`.
std::unique_ptr<SnapshotRepo> RepoWith(const std::string& name,
                                       const Database& db,
                                       const Bytes& image) {
  CarveOptions options;
  options.num_threads = 2;  // the ingest decode interns from two workers
  auto repo = SnapshotRepo::Create(RepoDir(name), ConfigFor(db), options);
  EXPECT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_TRUE((*repo)->Ingest(ByteView(image)).ok());
  return std::move(repo).value();
}

TEST(ResultLifetimeTest, DetectiveReportOutlivesItsCarves) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  std::optional<CarveResult> disk = Carve(*db, image);
  auto report = DbDetective(&*disk, &db->audit_log()).Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  disk.reset();
  ASSERT_FALSE(report->modifications.empty());
  size_t interned = 0;
  for (const UnattributedModification& m : report->modifications) {
    interned += ReadCells(m.values, report->string_pools);
  }
  EXPECT_GT(interned, 0u);
}

TEST(ResultLifetimeTest, AuditReportOutlivesItsCarve) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  // Audit carves internally; the carve is gone when it returns.
  auto report = StorageAuditor(ConfigFor(*db)).Audit(image);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->findings.empty());
  size_t interned = 0;
  for (const TamperFinding& f : report->findings) {
    interned += ReadCells(f.record_values, report->string_pools);
    ReadCells(f.index_keys, report->string_pools);
  }
  EXPECT_GT(interned, 0u);
}

TEST(ResultLifetimeTest, HiddenRecordsOutliveTheExtractorsCarve) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  auto hidden = Steganographer(ConfigFor(*db)).ExtractHidden(image);
  ASSERT_TRUE(hidden.ok()) << hidden.status().ToString();
  ASSERT_FALSE(hidden->empty());
  size_t interned = 0;
  for (const HiddenRecord& h : *hidden) {
    interned += ReadCells(h.record.values, h.string_pools);
  }
  EXPECT_GT(interned, 0u);
}

TEST(ResultLifetimeTest, QueryTableOutlivesItsSessionAndCarves) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  std::optional<CarveResult> first = Carve(*db, image);
  std::optional<CarveResult> second = Carve(*db, image);
  auto session = std::make_unique<MetaQuerySession>();
  ASSERT_TRUE(session->RegisterCarve(*first, "A").ok());
  ASSERT_TRUE(session->RegisterCarve(*second, "B").ok());
  // A join of two carves: each row carries cells of both pools.
  auto table = session->Query(
      "SELECT X.Owner, Y.City FROM AAccounts AS X JOIN BAccounts AS Y "
      "ON X.Id = Y.Id WHERE X.RowStatus = 'ACTIVE'");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  session.reset();
  first.reset();
  second.reset();
  ASSERT_FALSE(table->rows.empty());
  EXPECT_EQ(table->string_pools.size(), 2u);
  size_t interned = 0;
  for (const Record& row : table->rows) {
    interned += ReadCells(row, table->string_pools);
  }
  EXPECT_EQ(interned, 2 * table->rows.size());
}

TEST(ResultLifetimeTest, RecoveryScriptOutlivesItsCarve) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  std::optional<CarveResult> disk = Carve(*db, image);
  Reenactor reenactor(ConfigFor(*db));
  auto script = RecoveryPlanner(reenactor).Plan(db->audit_log(), *disk);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  disk.reset();
  ASSERT_FALSE(script->corruptions.empty());
  size_t interned = 0;
  for (const RowCorruption& c : script->corruptions) {
    interned += ReadCells(c.actual, script->string_pools);
    ReadCells(c.claimed, script->string_pools);
  }
  EXPECT_GT(interned, 0u);
}

TEST(ResultLifetimeTest, PhysicalLocationIndexOutlivesItsCarve) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  std::optional<CarveResult> carve = Carve(*db, image);
  auto pli = PhysicalLocationIndex::Build(*carve, "Accounts", "Owner", 1);
  ASSERT_TRUE(pli.ok()) << pli.status().ToString();
  carve.reset();
  ASSERT_FALSE(pli->buckets().empty());
  size_t interned = 0;
  for (const PliBucket& b : pli->buckets()) {
    interned += ReadCells({b.min_value, b.max_value}, pli->string_pools());
  }
  EXPECT_EQ(interned, 2 * pli->buckets().size());
}

TEST(ResultLifetimeTest, AssembledCarveOutlivesItsRepository) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  auto repo = RepoWith("lifetime_assemble", *db, image);
  auto carve = repo->AssembleCarve(1);
  ASSERT_TRUE(carve.ok()) << carve.status().ToString();
  repo.reset();
  ASSERT_NE(carve->string_pool, nullptr);
  auto held = [&](uint64_t id) { return id == carve->string_pool->pool_id(); };
  size_t interned = 0;
  for (const CarvedRecord& r : carve->records) {
    interned += ReadCells(r.values, held);
  }
  for (const CarvedIndexEntry& e : carve->index_entries) {
    ReadCells(e.keys, held);
  }
  EXPECT_GT(interned, 0u);
  ExpectSameCarveResult(Carve(*db, image), *carve);
}

TEST(ResultLifetimeTest, IncrementalDetectionOutlivesItsRepository) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  auto repo = RepoWith("lifetime_incremental", *db, image);
  auto detection = repo->DetectIncremental(0, 1, db->audit_log());
  ASSERT_TRUE(detection.ok()) << detection.status().ToString();
  repo.reset();
  ASSERT_FALSE(detection->modifications.empty());
  size_t interned = 0;
  for (const UnattributedModification& m : detection->modifications) {
    interned += ReadCells(m.values, detection->string_pools);
  }
  EXPECT_GT(interned, 0u);
}

TEST(ResultLifetimeTest, RecordHistoryOutlivesItsRepositoryAndQuery) {
  auto db = TamperedDb();
  Bytes image = DiskImage(db.get());
  auto repo = RepoWith("lifetime_history", *db, image);
  // The queried record comes from a carve of its own, gone before the
  // history is read.
  std::optional<CarveResult> carve = Carve(*db, image);
  std::vector<const CarvedRecord*> rows = carve->RecordsForTable("Accounts");
  ASSERT_FALSE(rows.empty());
  auto history = repo->History("Accounts", rows[0]->values);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  repo.reset();
  carve.reset();
  EXPECT_EQ(history->first_seen, 1u);
  EXPECT_GT(ReadCells(history->values, history->string_pools), 0u);
}

}  // namespace
}  // namespace dbfa
