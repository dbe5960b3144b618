// Property/fuzz test for chunk-boundary behavior of the parallel carver:
// real pages are spliced into garbage images at adversarial offsets —
// exactly on a chunk edge, ending exactly on a chunk edge, straddling an
// edge, and 1 byte before an edge (unaligned, so neither carver may
// detect it) — plus random positions. The property under test is strict
// serial/parallel equivalence, never recall: whatever the serial cursor
// finds (or misses), the parallel pipeline must reproduce exactly.
//
// Every trial is seeded via common/rng.h and the seed is printed on
// failure for reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "carve_equivalence.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/carver.h"
#include "core/parallel_carver.h"
#include "engine/database.h"
#include "storage/dialects.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

/// Extracts the byte images of real pages from a live database snapshot.
/// Detection is position-independent, so these can be spliced anywhere.
std::vector<Bytes> PageLibrary(const std::string& dialect,
                               size_t* page_size) {
  DatabaseOptions options;
  options.dialect = dialect;
  auto db = Database::Open(options).value();
  EXPECT_TRUE(db->ExecuteSql("CREATE TABLE Edge (Id INT NOT NULL, "
                             "Tag VARCHAR(20), PRIMARY KEY (Id))")
                  .ok());
  for (int i = 1; i <= 300; ++i) {
    EXPECT_TRUE(
        db->ExecuteSql(StrFormat("INSERT INTO Edge VALUES (%d, 'tag%04d')",
                                 i, i))
            .ok());
  }
  EXPECT_TRUE(db->ExecuteSql("DELETE FROM Edge WHERE Id <= 30").ok());
  Bytes image = db->SnapshotDisk().value();
  *page_size = db->params().page_size;

  auto carve = Carver(ConfigFor(dialect)).Carve(image);
  EXPECT_TRUE(carve.ok());
  std::vector<Bytes> pages;
  for (const CarvedPage& p : carve->pages) {
    ByteView view(image);
    pages.push_back(view.Slice(p.image_offset, *page_size).ToBytes());
  }
  EXPECT_GE(pages.size(), 3u) << "need data, index, and catalog pages";
  return pages;
}

/// Overwrites image bytes at `offset` with one library page (clipped at
/// the image end, producing a truncated page the carver must reject).
void Splice(Bytes* image, size_t offset, const Bytes& page) {
  if (offset >= image->size()) return;
  size_t n = std::min(page.size(), image->size() - offset);
  std::memcpy(image->data() + offset, page.data(), n);
}

struct BoundaryCase {
  Bytes image;
  size_t chunk_pages = 1;
  size_t scan_step = 512;
};

/// Builds a garbage image with pages planted around chunk edges.
BoundaryCase BuildCase(uint64_t seed, const std::vector<Bytes>& library,
                       size_t page_size) {
  Rng rng(seed);
  BoundaryCase c;
  c.chunk_pages = static_cast<size_t>(rng.Uniform(1, 5));
  // Mix of sector steps, exhaustive byte scans, full-page steps, and a
  // step that does NOT divide the page size (the serial cursor's phase
  // then shifts after every accepted page — the merge must replay that).
  const size_t steps[] = {512, 512, 1, page_size, 768};
  c.scan_step = steps[rng.NextU64() % 5];
  if (c.scan_step == 1 && page_size > 8192) c.scan_step = 512;  // keep fast

  size_t chunk_bytes = c.chunk_pages * page_size;
  size_t n_chunks = static_cast<size_t>(rng.Uniform(3, 6));
  c.image.resize(n_chunks * chunk_bytes + page_size / 2);
  // Text-ish garbage background (letters + newlines), worst case for
  // false-positive rejection.
  for (uint8_t& b : c.image) {
    b = static_cast<uint8_t>(rng.Bernoulli(0.1) ? '\n'
                                                : 'a' + rng.NextU64() % 26);
  }

  for (size_t edge = 1; edge < n_chunks; ++edge) {
    size_t e = edge * chunk_bytes;
    switch (rng.NextU64() % 4) {
      case 0:  // page starts exactly at the chunk edge
        Splice(&c.image, e, rng.Pick(library));
        break;
      case 1:  // page ends exactly at the chunk edge
        Splice(&c.image, e - page_size, rng.Pick(library));
        break;
      case 2: {  // page straddles the edge (sector-aligned start)
        size_t half = (page_size / 2) / 512 * 512;
        if (half == 0 || half >= page_size) half = page_size / 2;
        Splice(&c.image, e - half, rng.Pick(library));
        break;
      }
      case 3:  // page starts 1 byte before the edge (unaligned)
        Splice(&c.image, e - 1, rng.Pick(library));
        break;
    }
  }
  // A few fully random placements on top (may overlap the planted ones).
  size_t extras = static_cast<size_t>(rng.Uniform(0, 3));
  for (size_t i = 0; i < extras; ++i) {
    size_t offset = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(c.image.size() - 1)));
    Splice(&c.image, offset, rng.Pick(library));
  }
  return c;
}

class CarverBoundaryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CarverBoundaryFuzz, ParallelEqualsSerialAtChunkEdges) {
  const uint64_t seed = 77000 + GetParam();
  SCOPED_TRACE(StrFormat("reproduce with seed=%llu",
                         static_cast<unsigned long long>(seed)));
  static size_t page_size = 0;
  static const std::vector<Bytes>& library =
      *new std::vector<Bytes>(PageLibrary("postgres_like", &page_size));
  ASSERT_GT(page_size, 0u);

  BoundaryCase c = BuildCase(seed, library, page_size);
  CarveOptions options;
  options.scan_step = c.scan_step;

  auto serial = Carver(ConfigFor("postgres_like"), options).Carve(c.image);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectSaneCarveStats(*serial);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(StrFormat("threads=%zu chunk_pages=%zu step=%zu",
                           static_cast<size_t>(threads), c.chunk_pages,
                           c.scan_step));
    CarveOptions parallel_options = options;
    parallel_options.num_threads = threads;
    parallel_options.chunk_pages = c.chunk_pages;
    auto parallel =
        ParallelCarver(ConfigFor("postgres_like"), parallel_options)
            .Carve(c.image);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameCarveResult(*serial, *parallel);
    ExpectSameInternedIds(*serial, *parallel);
    ExpectSaneCarveStats(*parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBoundaries, CarverBoundaryFuzz,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace dbfa
