// E5 — Figure 3 / Section II-D evaluation: (a) the hidden record is
// invisible to every SSBM query yet forensically retrievable; (b) wiping
// destroys all four categories of deleted data, verified by re-carving,
// with throughput measured.
#include <chrono>
#include <cstdio>
#include <map>

#include "antiforensics/steganography.h"
#include "antiforensics/wiper.h"
#include "engine/database.h"
#include "metaquery/session.h"
#include "storage/dialects.h"
#include "workload/ssbm.h"
#include "workload/synthetic.h"

int main() {
  using namespace dbfa;

  // ---- part A: steganography on SSBM ---------------------------------------
  std::printf("E5a — steganography (Figure 3) on SSBM\n\n");
  auto db = Database::Open(DatabaseOptions{}).value();
  SsbmConfig ssbm;
  ssbm.customers = 120;
  ssbm.suppliers = 40;
  ssbm.parts = 120;
  ssbm.date_days = 730;
  ssbm.lineorders = 1200;
  if (!LoadSsbm(db.get(), ssbm).ok()) return 1;

  std::map<std::string, std::string> before;
  for (const std::string& qid : SsbmQueryIds()) {
    before[qid] = RunSsbmQuery(db.get(), qid).value().ToText(100000);
  }
  Record hidden = {Value::Null(),  Value::Null(),  Value::Int(-1),
                   Value::Int(-1), Value::Int(-1), Value::Int(-1),
                   Value::Int(0),  Value::Int(0),  Value::Int(0),
                   Value::Int(0),  Value::Int(0),  Value::Str("Hello_World")};
  CarverConfig config;
  config.params = GetDialect(db->params().dialect).value();
  Steganographer steg(config);
  if (!steg.HideInDatabase(db.get(), "lineorder", hidden).ok()) return 1;

  std::printf("%-8s %-14s %-22s\n", "query", "result rows",
              "sees hidden record?");
  bool all_blind = true;
  for (const std::string& qid : SsbmQueryIds()) {
    auto after = RunSsbmQuery(db.get(), qid).value();
    bool identical = after.ToText(100000) == before[qid];
    all_blind = all_blind && identical;
    std::printf("%-8s %-14zu %-22s\n", qid.c_str(), after.rows.size(),
                identical ? "no (identical result)" : "YES (changed!)");
  }
  auto found = steg.ExtractHidden(db->SnapshotDisk().value()).value();
  std::printf(
      "\nall 13 queries blind: %s; forensic extraction found %zu hidden "
      "record(s)\n",
      all_blind ? "yes" : "NO", found.size());
  if (!found.empty()) {
    std::printf("message: %s (%zu constraint violations)\n",
                found[0].record.values[11].ToString().c_str(),
                found[0].violations.size());
  }

  // ---- part B: wiping -------------------------------------------------------
  std::printf("\nE5b — wiping the four deleted-data categories\n\n");
  std::printf("%-16s %-10s %-10s %-9s %-9s %-9s %-8s %-10s\n", "dialect",
              "residue", "residue", "index", "catalog", "unalloc", "MB/s",
              "re-carve");
  std::printf("%-16s %-10s %-10s %-9s %-9s %-9s %-8s %-10s\n", "", "before",
              "after", "wiped", "wiped", "pages", "", "clean?");
  for (const std::string& name : BuiltinDialectNames()) {
    DatabaseOptions options;
    options.dialect = name;
    auto wdb = Database::Open(options).value();
    SyntheticWorkload workload(wdb.get(), "Accounts", 77);
    if (!workload.Setup(400).ok()) return 1;
    (void)wdb->ExecuteSql("DELETE FROM Accounts WHERE Id <= 120");
    (void)wdb->ExecuteSql(
        "UPDATE Accounts SET Balance = 1.0 WHERE Id BETWEEN 200 AND 260");
    (void)wdb->ExecuteSql(
        "CREATE TABLE Doomed (x INT, PRIMARY KEY (x))");
    (void)wdb->ExecuteSql("INSERT INTO Doomed VALUES (1), (2), (3)");
    (void)wdb->ExecuteSql("DROP TABLE Doomed");

    CarverConfig wconfig;
    wconfig.params = GetDialect(name).value();
    Carver carver(wconfig);
    auto image = wdb->SnapshotDisk().value();
    size_t residue_before =
        carver.Carve(image).value().CountRecords(RowStatus::kDeleted);

    Wiper wiper(wconfig);
    auto start = std::chrono::steady_clock::now();
    auto report = wiper.WipeDatabase(wdb.get());
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (!report.ok()) return 1;
    auto image_after = wdb->SnapshotDisk().value();
    auto carve_after = carver.Carve(image_after).value();
    size_t residue_after = carve_after.CountRecords(RowStatus::kDeleted);
    double mbps = static_cast<double>(image.size()) / 1e6 / seconds;
    std::printf("%-16s %-10zu %-10zu %-9zu %-9zu %-9zu %-8.1f %-10s\n",
                name.c_str(), residue_before, residue_after,
                report->index_entries_wiped, report->catalog_entries_wiped,
                report->unallocated_pages_wiped, mbps,
                residue_after == 0 ? "yes" : "NO");
  }
  std::printf(
      "\nPaper claim: generalized (config-driven) sanitization erases "
      "deleted records,\ndangling index values, catalog remnants, and "
      "unallocated pages on any dialect.\nExpected shape: residue-after = "
      "0 everywhere.\n");
  return 0;
}
