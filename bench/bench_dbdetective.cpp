// E6 — DBDetective detection accuracy (Figure 4 / Section III-D): precision
// and recall of unattributed-delete detection versus attack volume, and
// recall degradation as post-attack activity overwrites evidence under an
// aggressive page-reuse policy.
//
// Also benchmarks unattributed-modification matching throughput of the
// prebound matcher (predicates compiled once per carved schema, statements
// bucketed per table, logged INSERT rows hashed). The accuracy tables print
// to stderr so `--benchmark_format=json` output on stdout stays
// machine-readable.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "core/carver.h"
#include "detective/dbdetective.h"
#include "sql/parser.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace {

using namespace dbfa;

struct Accuracy {
  double precision = 1.0;
  double recall = 1.0;
  size_t flagged = 0;
};

/// Runs one scenario: logged workload, an unlogged attack (scattered
/// single-row deletes, or one contiguous range delete when
/// `contiguous_attack`), optional post-attack logged inserts, detection.
Accuracy RunScenario(int attack_deletes, int post_ops,
                     double reuse_threshold, uint64_t seed,
                     bool contiguous_attack = false) {
  DatabaseOptions options;
  options.page_reuse_threshold = reuse_threshold;
  auto db = Database::Open(options).value();
  SyntheticWorkload workload(db.get(), "Accounts", seed);
  (void)workload.Setup(300);
  (void)workload.Run(150, OpMix{}, /*logged=*/true);

  // The attack (logging off); remember the victims' values.
  Rng rng(seed * 31 + 7);
  std::vector<Record> attacked;
  db->audit_log().SetEnabled(false);
  if (contiguous_attack) {
    // Wipe a contiguous id block — frees whole pages, the case where
    // reuse policies diverge.
    int64_t lo = 1;
    int64_t hi = lo + attack_deletes - 1;
    (void)db->heap("Accounts")->Scan([&](RowPointer, const Record& rec) {
      int64_t id = rec[0].as_int();
      if (id >= lo && id <= hi) attacked.push_back(rec);
      return Status::Ok();
    });
    auto where = sql::ParseExpression(StrFormat(
        "Id BETWEEN %lld AND %lld", static_cast<long long>(lo),
        static_cast<long long>(hi)));
    (void)db->Delete("Accounts", *where);
  } else {
    for (int k = 0; k < attack_deletes; ++k) {
      Record victim;
      (void)db->heap("Accounts")->Scan([&](RowPointer, const Record& rec) {
        if (victim.empty() && rng.Bernoulli(0.02)) victim = rec;
        return Status::Ok();
      });
      if (victim.empty()) continue;
      auto where = sql::ParseExpression(StrFormat(
          "Id = %lld", static_cast<long long>(victim[0].as_int())));
      auto n = db->Delete("Accounts", *where);
      if (n.ok() && *n == 1) attacked.push_back(victim);
    }
  }
  db->audit_log().SetEnabled(true);

  // Post-attack legitimate activity: pure inserts, so any recall loss
  // comes from physical evidence overwrite, not from later logged DELETE
  // predicates coincidentally matching the victims.
  OpMix inserts_only;
  inserts_only.insert_weight = 1.0;
  inserts_only.delete_weight = 0.0;
  inserts_only.update_weight = 0.0;
  inserts_only.select_weight = 0.0;
  (void)workload.Run(post_ops, inserts_only, /*logged=*/true);

  // Detect.
  CarverConfig config;
  config.params = GetDialect(db->params().dialect).value();
  Carver carver(config);
  auto carve = carver.Carve(db->SnapshotDisk().value()).value();
  DbDetective detective(&carve, &db->audit_log());
  auto found = detective.FindUnattributedModifications().value();

  size_t true_hits = 0;
  size_t deletions_flagged = 0;
  for (const UnattributedModification& m : found) {
    if (m.kind != UnattributedModification::Kind::kDelete) continue;
    ++deletions_flagged;
    for (const Record& victim : attacked) {
      if (CompareRecords(m.values, victim) == 0) {
        ++true_hits;
        break;
      }
    }
  }
  Accuracy acc;
  acc.flagged = deletions_flagged;
  acc.recall = attacked.empty() ? 1.0
                                : static_cast<double>(true_hits) /
                                      static_cast<double>(attacked.size());
  acc.precision = deletions_flagged == 0
                      ? 1.0
                      : static_cast<double>(true_hits) /
                            static_cast<double>(deletions_flagged);
  return acc;
}

void PrintAccuracyTables() {
  std::fprintf(
      stderr,
      "E6 — DBDetective unattributed-delete detection accuracy\n"
      "(300-row Accounts table, 150 logged mixed ops before the attack)\n\n");

  std::fprintf(stderr, "Table 1: accuracy vs attack volume (no page reuse)\n");
  std::fprintf(stderr, "%-16s %-10s %-11s %-8s\n", "attack deletes", "recall",
               "precision", "flagged");
  for (int k : {1, 2, 4, 8, 16, 32}) {
    Accuracy acc = RunScenario(k, /*post_ops=*/0, /*reuse=*/2.0,
                               /*seed=*/1000 + k);
    std::fprintf(stderr, "%-16d %-10.3f %-11.3f %-8zu\n", k, acc.recall,
                 acc.precision, acc.flagged);
  }

  std::fprintf(
      stderr,
      "\nTable 2: recall vs post-attack inserts (one unlogged 200-row "
      "range delete)\n");
  std::fprintf(stderr, "%-12s %-26s %-26s\n", "post ops",
               "reuse disabled (Oracle)", "aggressive reuse (0.5)");
  for (int post : {0, 100, 300, 900}) {
    Accuracy keep = RunScenario(200, post, 2.0, 42, true);
    Accuracy reuse = RunScenario(200, post, 0.5, 42, true);
    std::fprintf(stderr, "%-12d recall %-19.3f recall %-19.3f\n", post,
                 keep.recall, reuse.recall);
  }
  std::fprintf(
      stderr,
      "\nPaper claim (Section III-D): detection accuracy is high and "
      "degrades with the\nvolume of subsequent operations; conservative "
      "page-utilization policies (Oracle)\npreserve deleted evidence "
      "longer. Expected shape: Table 1 ~1.0/1.0 throughout;\nTable 2 "
      "reuse-enabled recall decays with post-attack volume while the "
      "reuse-\ndisabled column stays at 1.0.\n\n");
}

// ---------------------------------------------------------------------------
// Matching throughput versus table cardinality.

/// A carved image plus its audit log: `rows` logged multi-row inserts, 60
/// logged range DELETEs covering 90% of the ids (so most carved records are
/// deleted and must be attributed through predicate matching), 20 logged
/// UPDATEs, and a small unlogged attack so the report is non-trivial.
struct MatchScenario {
  std::unique_ptr<Database> db;  // owns the audit log
  CarveResult carve;
};

const MatchScenario& ScenarioForRows(int rows) {
  static std::map<int, MatchScenario>& cache =
      *new std::map<int, MatchScenario>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;

  MatchScenario s;
  s.db = Database::Open(DatabaseOptions{}).value();
  (void)s.db->ExecuteSql(
      "CREATE TABLE Accounts (Id INT NOT NULL, Name VARCHAR(24), City "
      "VARCHAR(24), Balance DOUBLE, PRIMARY KEY (Id))");
  for (int i = 1; i <= rows;) {
    std::string sql = "INSERT INTO Accounts VALUES ";
    for (int j = 0; j < 500 && i <= rows; ++j, ++i) {
      if (j > 0) sql += ", ";
      sql += StrFormat("(%d, 'acct%06d', 'city%02d', %d.25)", i, i, i % 40,
                       i % 997);
    }
    (void)s.db->ExecuteSql(sql);
  }
  // 60 logged range deletes over the first 90% of ids: carved deleted
  // records outnumber active ones, and each must scan the predicate list
  // until its own range matches.
  int deleted_span = rows * 9 / 10;
  int step = deleted_span / 60 > 0 ? deleted_span / 60 : 1;
  for (int lo = 1; lo <= deleted_span; lo += step) {
    int hi = std::min(lo + step - 1, deleted_span);
    (void)s.db->ExecuteSql(StrFormat(
        "DELETE FROM Accounts WHERE Id BETWEEN %d AND %d", lo, hi));
  }
  // 20 logged updates in the surviving range: active records that match no
  // insert row and must be attributed through the UPDATE post-image.
  for (int k = 0; k < 20; ++k) {
    (void)s.db->ExecuteSql(StrFormat(
        "UPDATE Accounts SET Balance = %d.5 WHERE Id = %d", k,
        deleted_span + 1 + k));
  }
  // The unlogged attack: a few deletes and inserts the log cannot explain.
  s.db->audit_log().SetEnabled(false);
  (void)s.db->ExecuteSql(StrFormat(
      "DELETE FROM Accounts WHERE Id BETWEEN %d AND %d", deleted_span + 40,
      deleted_span + 49));
  (void)s.db->ExecuteSql(StrFormat(
      "INSERT INTO Accounts VALUES (%d, 'Mallory', 'Nowhere', 13.37)",
      rows + 1));
  s.db->audit_log().SetEnabled(true);

  CarverConfig config;
  config.params = GetDialect(s.db->params().dialect).value();
  Carver carver(config);
  s.carve = carver.Carve(s.db->SnapshotDisk().value()).value();
  return cache.emplace(rows, std::move(s)).first->second;
}

void BM_UnattributedMatching(benchmark::State& state) {
  const MatchScenario& s = ScenarioForRows(static_cast<int>(state.range(0)));
  DbDetective detective(&s.carve, &s.db->audit_log());
  size_t checked = 0;
  size_t flagged = 0;
  for (auto _ : state) {
    size_t deleted = 0, active = 0;
    auto found = detective.FindUnattributedModifications(&deleted, &active);
    if (!found.ok()) state.SkipWithError("matching failed");
    checked = deleted + active;
    flagged = found->size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["records_checked"] = static_cast<double>(checked);
  state.counters["flagged"] = static_cast<double>(flagged);
}
BENCHMARK(BM_UnattributedMatching)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  PrintAccuracyTables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
