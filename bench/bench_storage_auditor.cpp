// E8 — DBStorageAuditor (Section III-B): tamper-detection completeness and
// the scalability ablation the paper motivates ("we organize the index
// pointers based on physical location to keep our matching approach
// scalable"): location-sorted merge matching vs the naive quadratic
// baseline, as table size grows. The baseline is the nested-loop
// reference matcher of tests/oracles/auditor_reference.h; the library
// ships only the sorted matcher.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "auditor/storage_auditor.h"
#include "oracles/auditor_reference.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace {

using namespace dbfa;

CarverConfig Config() {
  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  return config;
}

/// Tampered carve per row count, built once.
const CarveResult& CarveForRows(int rows) {
  static std::map<int, CarveResult>& cache = *new std::map<int, CarveResult>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;

  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 4242);
  (void)workload.Setup(rows);
  // Representative tampering: one smuggled record, one erased record.
  (void)TamperInsertRecord(db.get(), "Accounts",
                           {Value::Int(900001), Value::Str("Ghost"),
                            Value::Str("X"), Value::Real(0.0)});
  RowPointer victim{};
  (void)db->heap("Accounts")->Scan([&](RowPointer ptr, const Record& rec) {
    if (rec[0] == Value::Int(rows / 2)) victim = ptr;
    return Status::Ok();
  });
  (void)TamperEraseRecord(db.get(), "Accounts", victim);

  Carver carver(Config());
  CarveResult carve = carver.Carve(db->SnapshotDisk().value()).value();
  return cache.emplace(rows, std::move(carve)).first->second;
}

void BM_SortedMatching(benchmark::State& state) {
  const CarveResult& carve = CarveForRows(static_cast<int>(state.range(0)));
  StorageAuditor auditor(Config());
  size_t findings = 0;
  for (auto _ : state) {
    auto report = auditor.AuditCarve(carve);
    if (!report.ok()) state.SkipWithError("audit failed");
    findings = report->findings.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_SortedMatching)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(32000);

void BM_NaiveMatching(benchmark::State& state) {
  const CarveResult& carve = CarveForRows(static_cast<int>(state.range(0)));
  size_t findings = 0;
  for (auto _ : state) {
    AuditReport report = auditor_internal::AuditCarveReference(carve);
    findings = report.findings.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["findings"] = static_cast<double>(findings);
}
// The quadratic baseline becomes painful quickly; cap it lower.
BENCHMARK(BM_NaiveMatching)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_FullAuditFromImage(benchmark::State& state) {
  // End-to-end: carve + verify + match.
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 7);
  (void)workload.Setup(static_cast<int>(state.range(0)));
  Bytes image = db->SnapshotDisk().value();
  StorageAuditor auditor(Config());
  for (auto _ : state) {
    auto report = auditor.Audit(image);
    if (!report.ok()) state.SkipWithError("audit failed");
    benchmark::DoNotOptimize(report);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_FullAuditFromImage)->Arg(2000)->Arg(8000);

}  // namespace

BENCHMARK_MAIN();
