// E4 — meta-query latency for the two Section II-C scenarios, versus
// carved-artifact volume: scenario 1 (deleted-row selection) and scenario
// 2 (disk-vs-RAM join for fresh updates). Each scenario runs unbounded
// (budget 0, nothing spills) and again at a budget of 1/8 of the carved
// relation footprint (every operator forced to spill) for the
// spilled-vs-in-memory overhead rows in BENCH_metaquery.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "core/carver.h"
#include "engine/database.h"
#include "metaquery/relation.h"
#include "metaquery/session.h"
#include "sql/row_codec.h"
#include "storage/dialects.h"

namespace {

using namespace dbfa;

struct PreparedCarves {
  CarveResult disk;
  CarveResult ram;
};

const PreparedCarves& CarvesForRows(int rows) {
  static std::map<int, PreparedCarves>& cache =
      *new std::map<int, PreparedCarves>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;

  DatabaseOptions options;
  options.dialect = "postgres_like";
  // The RAM-carve scenario needs the buffer pool to keep catalog pages
  // (and the fresh row versions) cached after a full-table scan; size it
  // with the table so the 100k case doesn't evict the catalog.
  options.buffer_pool_pages = std::max(512, rows / 20);
  auto db = Database::Open(options).value();
  (void)db->ExecuteSql(
      "CREATE TABLE Product (PID INT NOT NULL, Name VARCHAR(24), Price "
      "DOUBLE, PRIMARY KEY (PID))");
  // Multi-row INSERTs keep the 100k-row setup tolerable (one parse per 500
  // rows instead of one per row).
  for (int i = 1; i <= rows;) {
    std::string sql = "INSERT INTO Product VALUES ";
    for (int j = 0; j < 500 && i <= rows; ++j, ++i) {
      if (j > 0) sql += ", ";
      sql += StrFormat("(%d, 'prod%06d', %d.99)", i, i, i % 500);
    }
    (void)db->ExecuteSql(sql);
  }
  (void)db->ExecuteSql(StrFormat(
      "DELETE FROM Product WHERE PID < %d", rows / 5));
  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  Carver carver(config);
  PreparedCarves prepared;
  prepared.disk = carver.Carve(db->SnapshotDisk().value()).value();
  // Update some prices, then capture RAM (holds the fresh versions).
  (void)db->ExecuteSql(StrFormat(
      "UPDATE Product SET Price = 1.5 WHERE PID > %d", rows - rows / 10));
  (void)db->ExecuteSql("SELECT * FROM Product WHERE PID > 0");
  CarveOptions ram_options;
  ram_options.scan_step = config.params.page_size;
  Carver ram_carver(config, ram_options);
  prepared.ram = ram_carver.Carve(db->SnapshotRam()).value();
  return cache.emplace(rows, std::move(prepared)).first->second;
}

/// In-memory footprint of one carved relation, measured the same way the
/// engine charges its budget.
size_t CarveFootprintBytes(const CarveResult& carve) {
  auto relation = MakeCarvedRelation(carve, "Product");
  if (!relation.ok()) return 0;
  size_t bytes = 0;
  (void)(*relation)->Scan([&](const Record& r) {
    bytes += sql::EstimateRecordMemoryBytes(r);
    return Status::Ok();
  });
  return bytes;
}

/// Budget forcing the acceptance ratio: the (largest) relation in the
/// query is >= 8x the budget.
MetaQueryOptions SpilledOptions(size_t footprint_bytes) {
  MetaQueryOptions options;
  options.memory_budget_bytes = std::max<size_t>(footprint_bytes / 8, 1024);
  return options;
}

void RunScenario1(benchmark::State& state, const MetaQueryOptions& options) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  MetaQuerySession session(options);
  (void)session.RegisterCarve(carves.disk, "Carv");
  size_t rows = 0;
  for (auto _ : state) {
    auto result = session.Query(
        "SELECT * FROM CarvProduct WHERE RowStatus = 'DELETED'");
    if (!result.ok()) state.SkipWithError("query failed");
    rows = result->rows.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["deleted_rows"] = static_cast<double>(rows);
  if (options.memory_budget_bytes > 0) {
    state.counters["budget_bytes"] =
        static_cast<double>(options.memory_budget_bytes);
    state.counters["spill_bytes"] =
        static_cast<double>(session.last_spill_stats().bytes_written);
  }
}

void BM_Scenario1DeletedRows(benchmark::State& state) {
  RunScenario1(state, MetaQueryOptions{});
}
BENCHMARK(BM_Scenario1DeletedRows)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Same query at a budget of 1/8 of the carve footprint.
void BM_Scenario1DeletedRowsSpilled(benchmark::State& state) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  RunScenario1(state, SpilledOptions(CarveFootprintBytes(carves.disk)));
}
BENCHMARK(BM_Scenario1DeletedRowsSpilled)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void RunScenario2(benchmark::State& state, const MetaQueryOptions& options) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  MetaQuerySession session(options);
  (void)session.RegisterCarve(carves.disk, "CarvDisk");
  (void)session.RegisterCarve(carves.ram, "CarvRAM");
  size_t rows = 0;
  for (auto _ : state) {
    auto result = session.Query(
        "SELECT M.PID, M.Price, D.Price AS OldPrice "
        "FROM CarvRAMProduct AS M JOIN CarvDiskProduct AS D ON M.PID = D.PID "
        "WHERE M.Price <> D.Price AND M.RowStatus = 'ACTIVE' AND "
        "D.RowStatus = 'ACTIVE'");
    if (!result.ok()) state.SkipWithError("query failed");
    rows = result->rows.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["updated_rows"] = static_cast<double>(rows);
  if (options.memory_budget_bytes > 0) {
    state.counters["budget_bytes"] =
        static_cast<double>(options.memory_budget_bytes);
    state.counters["spill_bytes"] =
        static_cast<double>(session.last_spill_stats().bytes_written);
  }
}

void BM_Scenario2DiskRamJoin(benchmark::State& state) {
  RunScenario2(state, MetaQueryOptions{});
}
BENCHMARK(BM_Scenario2DiskRamJoin)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Scenario2DiskRamJoinSpilled(benchmark::State& state) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  RunScenario2(state,
               SpilledOptions(std::max(CarveFootprintBytes(carves.disk),
                                       CarveFootprintBytes(carves.ram))));
}
BENCHMARK(BM_Scenario2DiskRamJoinSpilled)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void RunAggregate(benchmark::State& state, const MetaQueryOptions& options) {
  const PreparedCarves& carves = CarvesForRows(20000);
  MetaQuerySession session(options);
  (void)session.RegisterCarve(carves.disk, "Carv");
  for (auto _ : state) {
    auto result = session.Query(
        "SELECT RowStatus, COUNT(*) AS n, AVG(Price) AS avg_price "
        "FROM CarvProduct GROUP BY RowStatus");
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
  if (options.memory_budget_bytes > 0) {
    state.counters["budget_bytes"] =
        static_cast<double>(options.memory_budget_bytes);
    state.counters["spill_bytes"] =
        static_cast<double>(session.last_spill_stats().bytes_written);
  }
}

void BM_AggregateOverCarve(benchmark::State& state) {
  RunAggregate(state, MetaQueryOptions{});
}
BENCHMARK(BM_AggregateOverCarve);

void BM_AggregateOverCarveSpilled(benchmark::State& state) {
  const PreparedCarves& carves = CarvesForRows(20000);
  RunAggregate(state, SpilledOptions(CarveFootprintBytes(carves.disk)));
}
BENCHMARK(BM_AggregateOverCarveSpilled);

/// The acceptance-criteria shape: join + aggregation over relations >= 8x
/// the budget, compared against the same query fully in memory.
void RunJoinAggregate(benchmark::State& state,
                      const MetaQueryOptions& options) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  MetaQuerySession session(options);
  (void)session.RegisterCarve(carves.disk, "CarvDisk");
  (void)session.RegisterCarve(carves.ram, "CarvRAM");
  for (auto _ : state) {
    auto result = session.Query(
        "SELECT D.RowStatus, COUNT(*) AS n, AVG(M.Price) AS fresh, "
        "AVG(D.Price) AS stale "
        "FROM CarvRAMProduct AS M JOIN CarvDiskProduct AS D ON M.PID = D.PID "
        "GROUP BY D.RowStatus ORDER BY D.RowStatus");
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
  if (options.memory_budget_bytes > 0) {
    state.counters["budget_bytes"] =
        static_cast<double>(options.memory_budget_bytes);
    state.counters["spill_bytes"] =
        static_cast<double>(session.last_spill_stats().bytes_written);
  }
}

void BM_JoinAggregate(benchmark::State& state) {
  RunJoinAggregate(state, MetaQueryOptions{});
}
BENCHMARK(BM_JoinAggregate)
    ->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_JoinAggregateSpilled(benchmark::State& state) {
  const PreparedCarves& carves = CarvesForRows(static_cast<int>(state.range(0)));
  RunJoinAggregate(state,
                   SpilledOptions(std::max(CarveFootprintBytes(carves.disk),
                                           CarveFootprintBytes(carves.ram))));
}
BENCHMARK(BM_JoinAggregateSpilled)
    ->Arg(5000)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
