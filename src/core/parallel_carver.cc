#include "core/parallel_carver.h"

namespace dbfa {
namespace {

/// A pool of `num_threads` workers (0 = hardware concurrency), or null when
/// that is a single thread: the serial carve needs no worker.
std::unique_ptr<ThreadPool> MakePool(size_t num_threads) {
  size_t n = num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads;
  if (n <= 1) return nullptr;
  return std::make_unique<ThreadPool>(n);
}

}  // namespace

ParallelCarver::ParallelCarver(CarverConfig config, CarveOptions options)
    : carver_(std::move(config), options),
      owned_pool_(MakePool(options.num_threads)),
      pool_(owned_pool_.get()) {}

ParallelCarver::ParallelCarver(CarverConfig config, CarveOptions options,
                               ThreadPool* pool)
    : carver_(std::move(config), options), pool_(pool) {}

Result<std::vector<CarveResult>> ParallelCarver::CarveMulti(
    ByteView image, const std::vector<CarverConfig>& configs,
    CarveOptions options) {
  std::unique_ptr<ThreadPool> pool = MakePool(options.num_threads);
  return Carver::CarveMulti(image, configs, options, pool.get());
}

}  // namespace dbfa
