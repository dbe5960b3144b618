// Page detection (carver pass 1): the one scan that finds page starts in
// an image. Serial carving, parallel carving and snapshot ingest all run
// it; they differ only in the per-offset probe.
//
// The cursor rule: the scan starts at offset 0; a probe that accepts a
// page advances the cursor by a full page, so page-interior bytes are
// never re-interpreted as page starts, and a miss advances it by the scan
// step. A move past the last offset a whole page fits at ends the scan.
//
// With a pool of more than one worker the page starts are split into
// chunks; each chunk task probes every offset of the detection grid (the
// offsets the cursor could ever reach) in its range, and a serial merge
// replays the cursor rule over the candidates in offset order. Because a
// probe depends only on the bytes at its offset, the merge yields exactly
// the serial page list for any thread count and chunk size
// (docs/parallel_carving.md).
#ifndef DBFA_CORE_PAGE_SCANNER_H_
#define DBFA_CORE_PAGE_SCANNER_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/carver.h"

namespace dbfa {

class PageScanner {
 public:
  /// Takes `scan_step` (0 = the 512-byte sector default) and
  /// `chunk_pages` (0 = sized from the image and the pool) from `options`.
  PageScanner(size_t image_size, size_t page_size,
              const CarveOptions& options);

  /// Runs `probe(offset) -> std::optional<Page>` under the cursor rule and
  /// returns the accepted pages in offset order. Serial when `pool` is null
  /// or has one worker; otherwise `probe` runs concurrently on the pool and
  /// must be safe to call from several threads. Adds the number of offsets
  /// probed to *probes (the parallel scan probes the full grid, so its
  /// count may exceed the serial one).
  template <typename Page, typename Probe>
  std::vector<Page> Scan(ThreadPool* pool, const Probe& probe,
                         size_t* probes) const;

 private:
  /// Moves the cursor `distance` bytes; false when that passes the last
  /// page start (the end of the scan). Overflow-safe for any distance.
  bool Advance(size_t* offset, size_t distance) const {
    if (distance > last_start_ - *offset) return false;
    *offset += distance;
    return true;
  }

  /// True when the cursor, standing at `cursor`, reaches `offset` by
  /// misses alone.
  bool Reaches(size_t cursor, size_t offset) const {
    return offset >= cursor && (offset - cursor) % step_ == 0;
  }

  /// Bytes of page starts per detection task on a pool of `threads`.
  size_t ChunkBytes(size_t threads) const;

  bool has_pages_;     // the image holds at least one whole page
  size_t last_start_;  // last offset a whole page fits at
  size_t page_size_;
  size_t step_;
  size_t grid_;  // probe stride of a chunk task
  size_t chunk_pages_;
};

template <typename Page, typename Probe>
std::vector<Page> PageScanner::Scan(ThreadPool* pool, const Probe& probe,
                                    size_t* probes) const {
  std::vector<Page> pages;
  if (!has_pages_) return pages;

  if (pool == nullptr || pool->thread_count() <= 1) {
    size_t offset = 0;
    bool more = true;
    while (more) {
      ++*probes;
      std::optional<Page> page = probe(offset);
      size_t distance = page.has_value() ? page_size_ : step_;
      if (page.has_value()) pages.push_back(std::move(*page));
      more = Advance(&offset, distance);
    }
    return pages;
  }

  struct ChunkOut {
    std::vector<std::pair<size_t, Page>> candidates;  // (offset, page)
    size_t probes = 0;
  };
  size_t chunk_bytes = ChunkBytes(pool->thread_count());
  std::vector<ChunkOut> outs(last_start_ / chunk_bytes + 1);
  pool->ParallelFor(outs.size(), [&](size_t c) {
    ChunkOut& out = outs[c];
    size_t begin = c * chunk_bytes;
    size_t end = std::min(begin + chunk_bytes, last_start_ + 1);
    for (size_t offset = begin; offset < end; offset += grid_) {
      ++out.probes;
      std::optional<Page> page = probe(offset);
      if (page.has_value()) {
        out.candidates.emplace_back(offset, std::move(*page));
      }
    }
  });

  // Chunks partition the page starts in offset order, so their candidates
  // concatenate into one ascending list. A candidate below the cursor is
  // the interior of an accepted page; one the cursor's stride steps over
  // was never probed by the serial scan.
  size_t cursor = 0;
  for (ChunkOut& out : outs) {
    *probes += out.probes;
    for (auto& [offset, page] : out.candidates) {
      if (!Reaches(cursor, offset)) continue;
      pages.push_back(std::move(page));
      cursor = offset + page_size_;
    }
  }
  return pages;
}

}  // namespace dbfa

#endif  // DBFA_CORE_PAGE_SCANNER_H_
