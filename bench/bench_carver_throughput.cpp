// E3 — DBCarver pipeline throughput (Figure 2): carving speed versus image
// size, with and without interleaved non-database garbage, plus the
// multi-config scan. Uses google-benchmark; bytes/sec counters give MB/s.
#include <benchmark/benchmark.h>

#include <map>

#include "common/strings.h"
#include "core/carver.h"
#include "core/parallel_carver.h"
#include "engine/database.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace {

using namespace dbfa;

struct PreparedImage {
  Bytes clean;
  Bytes with_garbage;
};

/// Builds (once per row count) a postgres_like image with `rows` rows and a
/// variant with sector-aligned garbage interleaved between files.
const PreparedImage& ImageForRows(int rows) {
  static std::map<int, PreparedImage>& cache =
      *new std::map<int, PreparedImage>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;

  DatabaseOptions options;
  options.dialect = "postgres_like";
  auto db = Database::Open(options).value();
  (void)db->ExecuteSql(
      "CREATE TABLE Events (Id INT NOT NULL, What VARCHAR(32), Amount "
      "DOUBLE, PRIMARY KEY (Id))");
  for (int i = 1; i <= rows; ++i) {
    (void)db->ExecuteSql(StrFormat(
        "INSERT INTO Events VALUES (%d, 'event-%08d', %d.25)", i, i,
        i % 1000));
  }
  (void)db->ExecuteSql("DELETE FROM Events WHERE Id < 100");

  PreparedImage prepared;
  prepared.clean = db->SnapshotDisk().value();
  Rng rng(5);
  DiskImageBuilder builder;
  auto files = db->ExportFiles().value();
  builder.AppendGarbage(512 * 16, &rng);
  for (const auto& [name, bytes] : files) {
    builder.AppendFile(name, bytes);
    builder.AppendTextGarbage(512 * 24, &rng);
  }
  prepared.with_garbage = builder.TakeBytes();
  return cache.emplace(rows, std::move(prepared)).first->second;
}

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  return config;
}

void BM_CarveCleanImage(benchmark::State& state) {
  const PreparedImage& image = ImageForRows(static_cast<int>(state.range(0)));
  Carver carver(ConfigFor("postgres_like"));
  size_t records = 0;
  for (auto _ : state) {
    auto result = carver.Carve(image.clean);
    if (!result.ok()) state.SkipWithError("carve failed");
    records = result->records.size();
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.clean.size()));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_CarveCleanImage)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_CarveImageWithGarbage(benchmark::State& state) {
  const PreparedImage& image = ImageForRows(static_cast<int>(state.range(0)));
  Carver carver(ConfigFor("postgres_like"));
  for (auto _ : state) {
    auto result = carver.Carve(image.with_garbage);
    if (!result.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.with_garbage.size()));
}
BENCHMARK(BM_CarveImageWithGarbage)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_CarveMultiConfig(benchmark::State& state) {
  // All eight candidate configs over one image: the "storage of unknown
  // provenance" scan mode.
  const PreparedImage& image = ImageForRows(4000);
  std::vector<CarverConfig> configs;
  for (const std::string& name : BuiltinDialectNames()) {
    configs.push_back(ConfigFor(name));
  }
  for (auto _ : state) {
    auto results = Carver::CarveMulti(image.with_garbage, configs);
    if (!results.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.with_garbage.size()));
}
BENCHMARK(BM_CarveMultiConfig);

/// A ≥64 MB forensic image: one garbage-interleaved snapshot tiled until
/// the target size. Page ids repeat across tiles, which the carver treats
/// like any multi-file image; record volume scales with the tiling.
const Bytes& LargeImage() {
  static Bytes* image = [] {
    constexpr size_t kTargetBytes = 64u << 20;
    const PreparedImage& base = ImageForRows(16000);
    Bytes* out = new Bytes();
    out->reserve(kTargetBytes + base.with_garbage.size());
    while (out->size() < kTargetBytes) {
      out->insert(out->end(), base.with_garbage.begin(),
                  base.with_garbage.end());
    }
    return out;
  }();
  return *image;
}

/// Serial baseline over the large image; compare bytes_per_second against
/// BM_CarveLargeImageParallel to read the speedup.
void BM_CarveLargeImageSerial(benchmark::State& state) {
  const Bytes& image = LargeImage();
  Carver carver(ConfigFor("postgres_like"));
  for (auto _ : state) {
    auto result = carver.Carve(image);
    if (!result.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_CarveLargeImageSerial)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Parallel chunked pipeline, Arg = worker threads. UseRealTime so MB/s
/// reflects wall clock, not the orchestrating thread's CPU time.
void BM_CarveLargeImageParallel(benchmark::State& state) {
  const Bytes& image = LargeImage();
  CarveOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  ParallelCarver carver(ConfigFor("postgres_like"), options);
  for (auto _ : state) {
    auto result = carver.Carve(image);
    if (!result.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
  state.counters["threads"] =
      static_cast<double>(carver.thread_count());
}
BENCHMARK(BM_CarveLargeImageParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CarveMultiConfigParallel(benchmark::State& state) {
  // The multi-config scan with one task per (config, chunk).
  const PreparedImage& image = ImageForRows(4000);
  std::vector<CarverConfig> configs;
  for (const std::string& name : BuiltinDialectNames()) {
    configs.push_back(ConfigFor(name));
  }
  CarveOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto results =
        ParallelCarver::CarveMulti(image.with_garbage, configs, options);
    if (!results.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.with_garbage.size()));
}
BENCHMARK(BM_CarveMultiConfigParallel)->Arg(2)->Arg(4)->UseRealTime();

void BM_RamSnapshotCarve(benchmark::State& state) {
  DatabaseOptions options;
  options.dialect = "mysql_like";
  options.buffer_pool_pages = 128;
  auto db = Database::Open(options).value();
  (void)db->ExecuteSql(
      "CREATE TABLE T (Id INT NOT NULL, V VARCHAR(24), PRIMARY KEY (Id))");
  for (int i = 1; i <= 3000; ++i) {
    (void)db->ExecuteSql(
        StrFormat("INSERT INTO T VALUES (%d, 'v%08d')", i, i));
  }
  (void)db->ExecuteSql("SELECT * FROM T WHERE Id > 0");
  Bytes ram = db->SnapshotRam();
  CarveOptions carve_options;
  carve_options.scan_step = db->params().page_size;
  Carver carver(ConfigFor("mysql_like"), carve_options);
  for (auto _ : state) {
    auto result = carver.Carve(ram);
    if (!result.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ram.size()));
}
BENCHMARK(BM_RamSnapshotCarve);

}  // namespace

BENCHMARK_MAIN();
