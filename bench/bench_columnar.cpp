// E15 — allocation behaviour of the carve hot path: interned
// (arena/StringPool) vs. owned (one heap std::string per cell) content
// decode, counted per carved page with a global operator new hook.
// BENCH_columnar.json is produced from this binary (procedure in
// EXPERIMENTS.md E15); the acceptance bar is >= 5x fewer allocations per
// carved page with interning on.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "common/strings.h"
#include "core/carver.h"
#include "engine/database.h"
#include "storage/dialects.h"

// ---- counting global allocator -------------------------------------------
// Counts every operator-new on the process; benchmarks read deltas around
// the region under test. Deallocation stays uncounted (free is cheap and
// symmetric). Relaxed ordering: the benches are single-threaded.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? align : n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dbfa;

// ---- workload -------------------------------------------------------------
// String-heavy audit-trail table: eight VARCHAR columns per row, every
// cell past the 15-byte SSO bound, so each owned decode really pays one
// heap allocation per string cell. City/Note/Status repeat heavily — the
// shape interning collapses to arena-chunk granularity; Customer is
// distinct per row, so the arena also absorbs a growing set.

const Bytes& ImageForRows(int rows) {
  static std::map<int, Bytes>& cache = *new std::map<int, Bytes>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;

  DatabaseOptions options;
  options.dialect = "postgres_like";
  options.buffer_pool_pages = std::max(512, rows / 20);
  auto db = Database::Open(options).value();
  (void)db->ExecuteSql(
      "CREATE TABLE Orders (OID INT NOT NULL, Customer VARCHAR(32), "
      "City VARCHAR(32), Note VARCHAR(32), Status VARCHAR(24), "
      "Channel VARCHAR(24), Region VARCHAR(24), Clerk VARCHAR(24), "
      "Terminal VARCHAR(24), Carrier VARCHAR(24), Origin VARCHAR(24), "
      "Handler VARCHAR(24), Amount DOUBLE, PRIMARY KEY (OID))");
  for (int i = 1; i <= rows;) {
    std::string sql = "INSERT INTO Orders VALUES ";
    for (int j = 0; j < 250 && i <= rows; ++j, ++i) {
      if (j > 0) sql += ", ";
      sql += StrFormat(
          "(%d, 'customer-account-%08d', 'metropolitan-district-%02d', "
          "'priority-handling-%03d', 'status-confirmed-%d', "
          "'channel-point-of-sale-%d', 'region-northwest-%02d', "
          "'clerk-identifier-%03d', 'terminal-station-%03d', "
          "'carrier-overnight-%02d', 'origin-warehouse-%02d', "
          "'handler-rotation-%02d', %d.25)",
          i, i, i % 24, i % 50, i % 4, i % 6, i % 12, i % 120, i % 200,
          i % 16, i % 32, i % 48, i % 400);
    }
    (void)db->ExecuteSql(sql);
  }
  (void)db->ExecuteSql(StrFormat("DELETE FROM Orders WHERE OID < %d",
                                 rows / 5));
  return cache.emplace(rows, db->SnapshotDisk().value()).first->second;
}

CarveOptions DecodeOptions(bool intern) {
  CarveOptions options;
  options.intern_strings = intern;
  return options;
}

Result<CarveResult> CarveImage(const Bytes& image, bool intern) {
  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  Carver carver(config, DecodeOptions(intern));
  return carver.Carve(image);
}

struct AllocSample {
  double allocs_per_page = 0;
  double bytes_per_page = 0;
};

/// One measured carve of the prepared image: operator-new count and bytes
/// over the whole Carve() call, divided by pages carved.
AllocSample MeasureCarve(const Bytes& image, bool intern) {
  std::uint64_t count0 = g_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  auto carve = CarveImage(image, intern);
  std::uint64_t count1 = g_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t bytes1 = g_alloc_bytes.load(std::memory_order_relaxed);
  AllocSample sample;
  if (carve.ok() && !carve->pages.empty()) {
    double pages = static_cast<double>(carve->pages.size());
    sample.allocs_per_page = static_cast<double>(count1 - count0) / pages;
    sample.bytes_per_page = static_cast<double>(bytes1 - bytes0) / pages;
  }
  return sample;
}

void RunCarveDecode(benchmark::State& state, bool intern) {
  const Bytes& image = ImageForRows(static_cast<int>(state.range(0)));
  AllocSample sample;
  for (auto _ : state) {
    sample = MeasureCarve(image, intern);
    benchmark::DoNotOptimize(sample);
  }
  // The headline counters: allocations (and allocated bytes) per carved
  // page for this decode mode, plus the interned-vs-owned reduction
  // factor measured on the same image in the same process.
  state.counters["allocs_per_page"] = sample.allocs_per_page;
  state.counters["alloc_bytes_per_page"] = sample.bytes_per_page;
  AllocSample owned = intern ? MeasureCarve(image, /*intern=*/false) : sample;
  AllocSample interned = intern ? sample : MeasureCarve(image, /*intern=*/true);
  if (interned.allocs_per_page > 0) {
    state.counters["alloc_reduction_x"] =
        owned.allocs_per_page / interned.allocs_per_page;
  }
}

void BM_CarveDecodeInterned(benchmark::State& state) {
  RunCarveDecode(state, /*intern=*/true);
}
BENCHMARK(BM_CarveDecodeInterned)
    ->Arg(4000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_CarveDecodeOwned(benchmark::State& state) {
  RunCarveDecode(state, /*intern=*/false);
}
BENCHMARK(BM_CarveDecodeOwned)
    ->Arg(4000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
