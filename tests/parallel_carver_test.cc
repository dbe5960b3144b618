// Differential tests: ParallelCarver must produce element-wise identical
// output to the serial Carver — same pages, records, index entries,
// catalog entries, schemas and ordering — for every thread count and
// chunk size, across an image matrix covering the forensic scenarios the
// serial carver is tested on (single file, multi-DBMS, text-garbage-heavy,
// corrupted).
#include "core/parallel_carver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "carve_equivalence.h"
#include "common/strings.h"
#include "core/carver.h"
#include "engine/database.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

std::unique_ptr<Database> OpenDb(const std::string& dialect) {
  DatabaseOptions options;
  options.dialect = dialect;
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

std::unique_ptr<Database> PopulatedDb(const std::string& dialect, int rows) {
  auto db = OpenDb(dialect);
  EXPECT_TRUE(db->ExecuteSql("CREATE TABLE Customer (Id INT NOT NULL, "
                             "Name VARCHAR(32), City VARCHAR(24), "
                             "PRIMARY KEY (Id))")
                  .ok());
  for (int i = 1; i <= rows; ++i) {
    EXPECT_TRUE(db->ExecuteSql(StrFormat("INSERT INTO Customer VALUES "
                                         "(%d, 'Name%04d', 'City%d')",
                                         i, i, i % 7))
                    .ok());
  }
  EXPECT_TRUE(db->ExecuteSql("DELETE FROM Customer WHERE Id <= 20").ok());
  return db;
}

/// Carves `image` serially and in parallel with every thread count in
/// kThreadCounts (and, when forced_chunk_pages != 0, tiny chunks to stress
/// chunk boundaries), asserting identical output each time.
void ExpectParallelMatchesSerial(ByteView image, const CarverConfig& config,
                                 CarveOptions options = {},
                                 size_t forced_chunk_pages = 0) {
  auto serial = Carver(config, options).Carve(image);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectSaneCarveStats(*serial);
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(StrFormat("threads=%zu chunk_pages=%zu", threads,
                           forced_chunk_pages));
    CarveOptions parallel_options = options;
    parallel_options.num_threads = threads;
    parallel_options.chunk_pages = forced_chunk_pages;
    ParallelCarver carver(config, parallel_options);
    auto parallel = carver.Carve(image);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameCarveResult(*serial, *parallel);
    ExpectSaneCarveStats(*parallel);
  }
}

TEST(ParallelCarverTest, SingleFileImageMatchesSerial) {
  auto db = PopulatedDb("postgres_like", 200);
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  ExpectParallelMatchesSerial(*image, ConfigFor("postgres_like"));
  // Tiny chunks: every page sits at or near a chunk edge.
  ExpectParallelMatchesSerial(*image, ConfigFor("postgres_like"), {},
                              /*forced_chunk_pages=*/1);
  ExpectParallelMatchesSerial(*image, ConfigFor("postgres_like"), {},
                              /*forced_chunk_pages=*/3);
}

TEST(ParallelCarverTest, MultiDbmsImageMatchesSerialForEachConfig) {
  auto pg = PopulatedDb("postgres_like", 120);
  auto lite = PopulatedDb("sqlite_like", 80);
  auto img1 = pg->SnapshotDisk();
  auto img2 = lite->SnapshotDisk();
  ASSERT_TRUE(img1.ok());
  ASSERT_TRUE(img2.ok());
  Rng rng(11);
  DiskImageBuilder builder;
  builder.AppendFile("pg", *img1);
  builder.AppendGarbage(512 * 9, &rng);
  builder.AppendFile("lite", *img2);
  builder.AppendGarbage(512 * 5, &rng);
  Bytes image = builder.TakeBytes();

  for (const std::string dialect : {"postgres_like", "sqlite_like"}) {
    SCOPED_TRACE(dialect);
    ExpectParallelMatchesSerial(image, ConfigFor(dialect));
    ExpectParallelMatchesSerial(image, ConfigFor(dialect), {},
                                /*forced_chunk_pages=*/2);
  }
}

TEST(ParallelCarverTest, TextGarbageHeavyImageMatchesSerial) {
  auto db = PopulatedDb("mysql_like", 150);
  auto files = db->ExportFiles();
  ASSERT_TRUE(files.ok());
  Rng rng(23);
  DiskImageBuilder builder;
  builder.AppendTextGarbage(512 * 40, &rng);
  for (const auto& [name, bytes] : *files) {
    builder.AppendFile(name, bytes);
    builder.AppendTextGarbage(512 * 64, &rng);
  }
  Bytes image = builder.TakeBytes();
  ExpectParallelMatchesSerial(image, ConfigFor("mysql_like"));
  ExpectParallelMatchesSerial(image, ConfigFor("mysql_like"), {},
                              /*forced_chunk_pages=*/2);
}

TEST(ParallelCarverTest, CorruptedImageMatchesSerial) {
  auto db = PopulatedDb("oracle_like", 250);
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  // Smash several regions: page headers, page interiors, slot directories.
  Rng rng(31);
  size_t page_size = db->params().page_size;
  for (int hit = 0; hit < 8; ++hit) {
    size_t offset = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(image->size() - 256)));
    CorruptRegion(&*image, offset, 128 + hit * 16, &rng);
  }
  (void)page_size;
  ExpectParallelMatchesSerial(*image, ConfigFor("oracle_like"));
  ExpectParallelMatchesSerial(*image, ConfigFor("oracle_like"), {},
                              /*forced_chunk_pages=*/1);
}

TEST(ParallelCarverTest, RamSnapshotWithPageSizeStepMatchesSerial) {
  auto db = PopulatedDb("db2_like", 100);
  ASSERT_TRUE(db->ExecuteSql("SELECT * FROM Customer WHERE Id > 0").ok());
  Bytes ram = db->SnapshotRam();
  CarveOptions options;
  options.scan_step = db->params().page_size;  // frames are page-aligned
  ExpectParallelMatchesSerial(ram, ConfigFor("db2_like"), options);
}

TEST(ParallelCarverTest, StepsPastThePageMatchSerial) {
  // A step larger than the rest of the image ends the scan; one that does
  // not divide the page size puts the probe grid on every byte. Leading
  // zeros keep the first page off offset 0; without them the leading run
  // of pages is accepted.
  auto db = PopulatedDb("postgres_like", 40);
  auto file = db->SnapshotDisk();
  ASSERT_TRUE(file.ok());
  Bytes shifted(512, 0);
  shifted.insert(shifted.end(), file->begin(), file->end());
  size_t page_size = db->params().page_size;
  for (const Bytes* image : {&shifted, &*file}) {
    for (size_t step : {SIZE_MAX, page_size + 1}) {
      SCOPED_TRACE(StrFormat("step=%zu image=%zu bytes", step, image->size()));
      CarveOptions options;
      options.scan_step = step;
      ExpectParallelMatchesSerial(*image, ConfigFor("postgres_like"), options);
      ExpectParallelMatchesSerial(*image, ConfigFor("postgres_like"), options,
                                  /*forced_chunk_pages=*/1);
    }
  }
}

TEST(ParallelCarverTest, CarveMultiMatchesSerialCarveMulti) {
  auto pg = PopulatedDb("postgres_like", 90);
  auto lite = PopulatedDb("sqlite_like", 70);
  auto img1 = pg->SnapshotDisk();
  auto img2 = lite->SnapshotDisk();
  ASSERT_TRUE(img1.ok());
  ASSERT_TRUE(img2.ok());
  Rng rng(47);
  DiskImageBuilder builder;
  builder.AppendGarbage(512 * 6, &rng);
  builder.AppendFile("pg", *img1);
  builder.AppendTextGarbage(512 * 10, &rng);
  builder.AppendFile("lite", *img2);
  Bytes image = builder.TakeBytes();

  std::vector<CarverConfig> configs;
  for (const std::string& name : BuiltinDialectNames()) {
    configs.push_back(ConfigFor(name));
  }
  auto serial = Carver::CarveMulti(image, configs);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    CarveOptions options;
    options.num_threads = threads;
    auto parallel = ParallelCarver::CarveMulti(image, configs, options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      SCOPED_TRACE(configs[i].params.dialect);
      ExpectSameCarveResult((*serial)[i], (*parallel)[i]);
    }
  }
}

TEST(ParallelCarverTest, EmptyAndTinyImages) {
  CarveOptions options;
  options.num_threads = 4;
  ParallelCarver carver(ConfigFor("postgres_like"), options);
  Bytes empty;
  auto r1 = carver.Carve(empty);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->pages.empty());
  Bytes tiny(100, 0xAA);
  auto r2 = carver.Carve(tiny);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->pages.empty());
  EXPECT_EQ(r2->stats.pages_probed, 0u);
}

TEST(ParallelCarverTest, BorrowedPoolIsReusedAcrossCarves) {
  ThreadPool pool(3);
  auto db = PopulatedDb("postgres_like", 60);
  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  auto serial = Carver(ConfigFor("postgres_like")).Carve(*image);
  ASSERT_TRUE(serial.ok());
  ParallelCarver carver(ConfigFor("postgres_like"), {}, &pool);
  EXPECT_EQ(carver.thread_count(), 3u);
  for (int round = 0; round < 3; ++round) {
    auto parallel = carver.Carve(*image);
    ASSERT_TRUE(parallel.ok());
    ExpectSameCarveResult(*serial, *parallel);
  }
}

}  // namespace
}  // namespace dbfa
