// Allocation counting for the E15 carve measurements (EXPERIMENTS.md):
// replaces the global operator new/delete with malloc-backed versions that
// count every allocation, and measures allocations per carved page.
// Shared by bench/bench_columnar.cpp and tests/carve_alloc_test.cc; include
// it from exactly one translation unit of a binary, since it defines the
// replacement operators.
#ifndef DBFA_TESTS_CARVE_ALLOC_COUNTER_H_
#define DBFA_TESTS_CARVE_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/carver.h"
#include "storage/dialects.h"

// ---- counting global allocator -------------------------------------------
// Counts every operator-new on the process; measurements read deltas
// around the region under test. Deallocation stays uncounted (free is
// cheap and symmetric). Relaxed ordering: the measured carves are serial.

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

namespace dbfa {

struct AllocSample {
  double allocs_per_page = 0;
  double bytes_per_page = 0;
};

/// One serial postgres_like carve of `image`: operator-new count and bytes
/// over the whole Carve() call, divided by pages carved.
inline AllocSample MeasureCarveAllocs(const Bytes& image) {
  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  Carver carver(config);
  std::uint64_t count0 = g_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  auto carve = carver.Carve(image);
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

}  // namespace dbfa

#endif  // DBFA_TESTS_CARVE_ALLOC_COUNTER_H_
