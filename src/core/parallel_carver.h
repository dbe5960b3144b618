// A Carver bundled with the worker pool it carves on. Same inputs and
// byte-identical outputs as the serial Carver (see
// docs/parallel_carving.md for the equivalence argument): page detection
// runs the chunked scan of core/page_scanner.h, catalog reconstruction
// stays serial, and contiguous ranges of the accepted page list are
// decoded concurrently and concatenated in range order. At one thread no
// pool is created and the carve is the serial one.
#ifndef DBFA_CORE_PARALLEL_CARVER_H_
#define DBFA_CORE_PARALLEL_CARVER_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/carver.h"

namespace dbfa {

class ParallelCarver {
 public:
  /// Owns a pool of options.num_threads workers (0 = hardware
  /// concurrency); none when that resolves to one thread.
  explicit ParallelCarver(CarverConfig config, CarveOptions options = {});

  /// Borrows `pool` (must outlive the carver); options.num_threads is
  /// ignored in favor of the pool's size.
  ParallelCarver(CarverConfig config, CarveOptions options, ThreadPool* pool);

  const CarverConfig& config() const { return carver_.config(); }
  size_t thread_count() const {
    return pool_ == nullptr ? 1 : pool_->thread_count();
  }

  /// Reconstructs all artifacts from `image`; byte-identical to
  /// Carver(config, options).Carve(image).
  Result<CarveResult> Carve(ByteView image) const {
    return carver_.Carve(image, pool_);
  }

  /// Runs all configs over one image on one pool of options.num_threads
  /// workers. Results match Carver::CarveMulti element-wise, same order.
  static Result<std::vector<CarveResult>> CarveMulti(
      ByteView image, const std::vector<CarverConfig>& configs,
      CarveOptions options = {});

 private:
  Carver carver_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // owned_pool_.get() or a borrowed pool; null inline
};

}  // namespace dbfa

#endif  // DBFA_CORE_PARALLEL_CARVER_H_
