#include "core/page_scanner.h"

#include <algorithm>
#include <numeric>

namespace dbfa {

PageScanner::PageScanner(size_t image_size, size_t page_size,
                         const CarveOptions& options)
    : has_pages_(image_size >= page_size),
      last_start_(has_pages_ ? image_size - page_size : 0),
      page_size_(page_size),
      step_(options.scan_step == 0 ? 512 : options.scan_step),
      // Offsets the cursor reaches are sums of steps and page sizes.
      grid_(std::gcd(step_, page_size_)),
      chunk_pages_(options.chunk_pages) {}

size_t PageScanner::ChunkBytes(size_t threads) const {
  size_t image_pages = last_start_ / page_size_ + 1;
  size_t pages = chunk_pages_;
  if (pages == 0) {
    // A handful of tasks per worker balances uneven garbage / page density
    // without drowning in scheduling overhead.
    size_t target_tasks = threads * 4;
    pages = std::max<size_t>(16, (image_pages + target_tasks) / target_tasks);
  }
  // A multiple of the page size, so every task starts on the grid.
  return std::min(pages, image_pages) * page_size_;
}

}  // namespace dbfa
