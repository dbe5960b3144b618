// E15 — allocation behaviour of the carve hot path: string cells are
// interned into the carve's arena-backed StringPool, and allocations are
// counted per carved page with a global operator new hook.
// BENCH_columnar.json is produced from this binary (procedure in
// EXPERIMENTS.md E15). The retired owned-string decode measured 313
// allocations per page on the 4000-row image; tests/carve_alloc_test.cc
// holds the interned carve to a fifth of that.
#include <benchmark/benchmark.h>

#include <map>

#include "carve_alloc_counter.h"
#include "workload/synthetic.h"

namespace {

using namespace dbfa;

// ---- workload -------------------------------------------------------------
// StringHeavyOrdersImage (workload/synthetic.h): eleven VARCHAR cells per
// row, every one past the 15-byte SSO bound, most of them repeating — the
// shape interning collapses to arena-chunk granularity; Customer is
// distinct per row, so the arena also absorbs a growing set.

const Bytes& ImageForRows(int rows) {
  static std::map<int, Bytes>& cache = *new std::map<int, Bytes>();
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  return cache.emplace(rows, StringHeavyOrdersImage(rows).value())
      .first->second;
}

void BM_CarveDecodeInterned(benchmark::State& state) {
  const Bytes& image = ImageForRows(static_cast<int>(state.range(0)));
  AllocSample sample;
  for (auto _ : state) {
    sample = MeasureCarveAllocs(image);
    benchmark::DoNotOptimize(sample);
  }
  // The headline counters: allocations (and allocated bytes) per carved
  // page. tests/carve_alloc_test.cc bounds allocs_per_page on the 4000-row
  // image.
  state.counters["allocs_per_page"] = sample.allocs_per_page;
  state.counters["alloc_bytes_per_page"] = sample.bytes_per_page;
}
BENCHMARK(BM_CarveDecodeInterned)
    ->Arg(4000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
