// Differential fuzz for the snapshot repository's cached carve path:
// across randomized snapshot sequences (page flips, page insertions, page
// deletions, raw byte corruption between captures), the repository's
// assembled carve of every snapshot must be element-wise identical to a
// fresh serial Carver::Carve of the same image — for every worker-pool
// size. This is the tentpole guarantee: dedup and artifact caching are
// pure acceleration, never a semantic change.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "carve_equivalence.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/carver.h"
#include "engine/database.h"
#include "snapshot/snapshot_repo.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

constexpr size_t kThreadCounts[] = {1, 2, 4};
constexpr int kRoundsPerSequence = 5;

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

Bytes BaseImage(const std::string& dialect, int rows, uint64_t seed) {
  DatabaseOptions options;
  options.dialect = dialect;
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)
                  ->ExecuteSql("CREATE TABLE Customer (Id INT NOT NULL, "
                               "Name VARCHAR(32), City VARCHAR(24), "
                               "PRIMARY KEY (Id))")
                  .ok());
  for (int i = 1; i <= rows; ++i) {
    EXPECT_TRUE((*db)
                    ->ExecuteSql(StrFormat("INSERT INTO Customer VALUES "
                                           "(%d, 'Name%04d', 'City%d')",
                                           i, i, i % 7))
                    .ok());
  }
  EXPECT_TRUE((*db)->ExecuteSql("DELETE FROM Customer WHERE Id <= 15").ok());
  auto file = (*db)->SnapshotDisk();
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  Rng rng(seed);
  DiskImageBuilder builder;
  builder.AppendGarbage(512 * 4, &rng);
  builder.AppendFile("db", *file);
  builder.AppendTextGarbage(512 * 3, &rng);
  builder.AppendGarbage(512 * 2, &rng);
  return builder.TakeBytes();
}

/// One random mutation step: flip bytes inside a random page-sized window,
/// duplicate a page-aligned span elsewhere ("insert"), drop a page-aligned
/// span ("delete"), or splice in fresh garbage. Alignment is page-sized so
/// the mutated image keeps carving deterministically; content is arbitrary.
void MutateImage(Bytes* image, size_t page_size, Rng* rng) {
  size_t pages = image->size() / page_size;
  switch (rng->Uniform(0, 3)) {
    case 0: {  // flip a few bytes within one page-sized window
      size_t page = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(pages) - 1));
      size_t len = static_cast<size_t>(rng->Uniform(1, 24));
      size_t off = page * page_size +
                   static_cast<size_t>(rng->Uniform(
                       0, static_cast<int64_t>(page_size - len)));
      CorruptRegion(image, off, len, rng);
      break;
    }
    case 1: {  // insert: duplicate one page elsewhere (page-aligned)
      size_t src = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(pages) - 1));
      size_t dst = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(pages)));
      Bytes copy(image->begin() +
                     static_cast<ptrdiff_t>(src * page_size),
                 image->begin() +
                     static_cast<ptrdiff_t>((src + 1) * page_size));
      image->insert(image->begin() + static_cast<ptrdiff_t>(dst * page_size),
                    copy.begin(), copy.end());
      break;
    }
    case 2: {  // delete one page-aligned span (keep the image non-empty)
      if (pages <= 2) break;
      size_t victim = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(pages) - 1));
      image->erase(
          image->begin() + static_cast<ptrdiff_t>(victim * page_size),
          image->begin() + static_cast<ptrdiff_t>((victim + 1) * page_size));
      break;
    }
    default: {  // splice fresh garbage mid-image (page-aligned)
      size_t dst = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(pages)));
      Bytes garbage(page_size);
      for (uint8_t& b : garbage) {
        b = static_cast<uint8_t>(rng->NextU64());
      }
      image->insert(image->begin() + static_cast<ptrdiff_t>(dst * page_size),
                    garbage.begin(), garbage.end());
      break;
    }
  }
}

/// The IngestStats counters of one ingest (its timers excluded).
using IngestCounts = std::array<size_t, 5>;

/// Runs one full mutate-and-reingest sequence and asserts cached-assembly
/// equality with a fresh serial carve after every ingest. Appends each
/// ingest's counters to *counts when given.
void RunSequence(const std::string& dialect, uint64_t seed, size_t threads,
                 bool parse_bad_checksum_pages,
                 std::vector<IngestCounts>* counts = nullptr) {
  SCOPED_TRACE(StrFormat("dialect=%s seed=%llu threads=%zu bad_pages=%d",
                         dialect.c_str(),
                         static_cast<unsigned long long>(seed), threads,
                         parse_bad_checksum_pages ? 1 : 0));
  CarverConfig config = ConfigFor(dialect);
  size_t page_size = config.params.page_size;

  fs::path dir = fs::path(::testing::TempDir()) /
                 StrFormat("snap_fuzz_%s_%llu_%zu", dialect.c_str(),
                           static_cast<unsigned long long>(seed), threads);
  fs::remove_all(dir);
  CarveOptions options;
  options.num_threads = threads;
  options.parse_bad_checksum_pages = parse_bad_checksum_pages;
  auto repo = SnapshotRepo::Create(dir.string(), config, options);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  Carver serial(config, (*repo)->options());

  Rng rng(seed);
  Bytes image = BaseImage(dialect, 2000, seed * 7 + 1);
  for (int round = 0; round < kRoundsPerSequence; ++round) {
    SCOPED_TRACE(StrFormat("round=%d image=%zu bytes", round, image.size()));
    auto stats = (*repo)->Ingest(image);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (counts != nullptr) {
      counts->push_back({stats->pages_total, stats->pages_reused,
                         stats->pages_new, stats->artifacts_reused,
                         stats->artifacts_carved});
    }
    auto expected = serial.Carve(image);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto assembled = (*repo)->AssembleCarve(stats->snapshot_id);
    ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
    ExpectSameCarveResult(*expected, *assembled);
    if (round > 0) {
      // Dedup must actually engage across rounds: a handful of mutations
      // cannot produce a mostly-new image.
      EXPECT_GT(stats->pages_reused, 0u) << stats->ToString();
    }
    int mutations = static_cast<int>(rng.Uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      MutateImage(&image, page_size, &rng);
    }
  }

  // The whole history must still assemble faithfully after reopening.
  repo->reset();
  auto reopened = SnapshotRepo::Open(dir.string(), threads);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->List().size(),
            static_cast<size_t>(kRoundsPerSequence));
  fs::remove_all(dir);
}

/// RunSequence at every thread count in kThreadCounts; the ingest counters
/// must not depend on the thread count either.
void RunThreadMatrix(const std::string& dialect, uint64_t seed,
                     bool parse_bad_checksum_pages) {
  std::vector<IngestCounts> serial_counts;
  for (size_t threads : kThreadCounts) {
    std::vector<IngestCounts> counts;
    RunSequence(dialect, seed, threads, parse_bad_checksum_pages, &counts);
    if (threads == kThreadCounts[0]) {
      serial_counts = counts;
    } else {
      EXPECT_EQ(counts, serial_counts) << "threads=" << threads;
    }
  }
}

TEST(SnapshotFuzzTest, MutateAndReingestMatchesSerialAcrossThreadCounts) {
  RunThreadMatrix("postgres_like", 101, /*parse_bad_checksum_pages=*/false);
}

TEST(SnapshotFuzzTest, MutateAndReingestWithBadChecksumParsing) {
  RunThreadMatrix("sqlite_like", 202, /*parse_bad_checksum_pages=*/true);
}

TEST(SnapshotFuzzTest, ManySeedsSingleThread) {
  for (uint64_t seed : {303u, 404u, 505u}) {
    RunSequence("postgres_like", seed, /*threads=*/1,
                /*parse_bad_checksum_pages=*/seed % 2 == 1);
  }
}

}  // namespace
}  // namespace dbfa
