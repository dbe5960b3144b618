// SnapshotRepo: repository lifecycle (Create/Open round-trip, persisted
// config + carve options), store-accelerated ingest vs the serial carver,
// dedup accounting on warm re-ingest, page-level diffs, record history,
// incremental detection against the audit log, cross-snapshot
// meta-queries, graceful failure on corrupted repository files, the
// repository lock, the one-file layout, and the commit log's crash rule.
#include "snapshot/snapshot_repo.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "carve_equivalence.h"
#include "common/file_io.h"
#include "common/strings.h"
#include "core/carver.h"
#include "engine/database.h"
#include "oracles/detective_reference.h"
#include "snapshot/snapshot_codec.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

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

/// Fresh per-test repository directory under the gtest temp root.
std::string RepoDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Image with the database file framed by garbage, like a real capture.
Bytes CaptureImage(Database* db, uint64_t seed) {
  auto file = db->SnapshotDisk();
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  Rng rng(seed);
  DiskImageBuilder builder;
  builder.AppendGarbage(512 * 3, &rng);
  builder.AppendFile("db", *file);
  builder.AppendGarbage(512 * 5, &rng);
  return builder.TakeBytes();
}

/// Flips one byte of `path` at `offset` in place.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

/// The one file of a repository, and nothing else.
const std::set<std::string> kRepoFiles = {"repo.bin"};

std::set<std::string> FilesIn(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

std::string RepoPath(const std::string& dir) {
  return (fs::path(dir) / "repo.bin").string();
}

/// The repository file's blocks: (offset, payload) in file order.
std::vector<std::pair<uint64_t, std::string>> ReadBlocks(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> blocks;
  Status scanned = ScanBlocks(RepoPath(dir),
                              [&](uint64_t offset, const std::string& payload) {
                                blocks.emplace_back(offset, payload);
                                return Status::Ok();
                              });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  return blocks;
}

/// Start offsets of the blocks of one kind (never the header).
std::vector<uint64_t> BlockStarts(const std::string& dir, BlockKind kind) {
  std::vector<uint64_t> starts;
  for (const auto& [offset, payload] : ReadBlocks(dir)) {
    if (offset != 0 && payload[0] == static_cast<char>(kind)) {
      starts.push_back(offset);
    }
  }
  return starts;
}

/// Rewrites the repository file block by block: `edit` gets each payload
/// (the header at index 0) and may change it, or return false to drop the
/// block. Every block is framed whole with a valid CRC, so only a check
/// above the framing can catch an edit.
template <typename Edit>
void RewriteBlocks(const std::string& dir, Edit edit) {
  std::vector<std::pair<uint64_t, std::string>> blocks = ReadBlocks(dir);
  fs::remove(RepoPath(dir));
  auto file = BlockFile::Open(RepoPath(dir));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (edit(i, &blocks[i].second)) {
      ASSERT_TRUE(file->Append(blocks[i].second).ok());
    }
  }
}

/// The manifests' texts (kind byte stripped), in commit order.
std::vector<std::string> ReadManifests(const std::string& dir) {
  std::vector<std::string> manifests;
  for (const auto& [offset, payload] : ReadBlocks(dir)) {
    if (offset != 0 && payload[0] == static_cast<char>(BlockKind::kManifest)) {
      manifests.push_back(payload.substr(1));
    }
  }
  return manifests;
}

/// Replaces the manifests' texts, in order, keeping every other block.
void WriteManifests(const std::string& dir,
                    const std::vector<std::string>& manifests) {
  size_t next = 0;
  RewriteBlocks(dir, [&](size_t i, std::string* payload) {
    if (i != 0 && (*payload)[0] == static_cast<char>(BlockKind::kManifest)) {
      *payload = static_cast<char>(BlockKind::kManifest) + manifests[next++];
    }
    return true;
  });
  EXPECT_EQ(next, manifests.size());
}

TEST(SnapshotRepoTest, CreateOpenRoundTripPersistsConfigAndOptions) {
  std::string dir = RepoDir("snap_roundtrip");
  CarveOptions options;
  options.scan_step = 256;
  options.parse_bad_checksum_pages = true;
  auto created = SnapshotRepo::Create(dir, ConfigFor("postgres_like"),
                                      options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // A second Create on the same directory must refuse, not clobber.
  auto again = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(again.status().code() == StatusCode::kAlreadyExists)
      << again.status().ToString();

  auto db = PopulatedDb("postgres_like", 60);
  Bytes image = CaptureImage(db.get(), 7);
  auto stats = (*created)->Ingest(image);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->snapshot_id, 1u);
  created->reset();  // close before reopening

  auto opened = SnapshotRepo::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->config().params.dialect, "postgres_like");
  EXPECT_EQ((*opened)->options().scan_step, 256u);
  EXPECT_TRUE((*opened)->options().parse_bad_checksum_pages);
  auto list = (*opened)->List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].id, 1u);
  EXPECT_EQ(list[0].image_size, image.size());
  EXPECT_GT(list[0].page_count, 0u);
}

TEST(SnapshotRepoTest, ColdIngestMatchesSerialCarve) {
  std::string dir = RepoDir("snap_cold");
  CarverConfig config = ConfigFor("postgres_like");
  auto repo = SnapshotRepo::Create(dir, config);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 150);
  Bytes image = CaptureImage(db.get(), 13);
  auto stats = (*repo)->Ingest(image);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->pages_reused, 0u);
  EXPECT_EQ(stats->pages_new, stats->pages_total);
  EXPECT_GT(stats->pages_total, 0u);

  auto serial = Carver(config, (*repo)->options()).Carve(image);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto assembled = (*repo)->AssembleCarve(1);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  ExpectSameCarveResult(*serial, *assembled);
}

TEST(SnapshotRepoTest, WarmReingestReusesPagesAndArtifacts) {
  std::string dir = RepoDir("snap_warm");
  CarverConfig config = ConfigFor("postgres_like");
  auto repo = SnapshotRepo::Create(dir, config);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 120);
  Bytes image = CaptureImage(db.get(), 29);
  ASSERT_TRUE((*repo)->Ingest(image).ok());
  auto warm = (*repo)->Ingest(image);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Identical bytes: every page dedupes, every artifact is served cached.
  EXPECT_EQ(warm->snapshot_id, 2u);
  EXPECT_EQ(warm->pages_reused, warm->pages_total);
  EXPECT_EQ(warm->pages_new, 0u);
  EXPECT_EQ(warm->artifacts_carved, 0u);
  EXPECT_GT(warm->artifacts_reused, 0u);

  auto serial = Carver(config, (*repo)->options()).Carve(image);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto assembled = (*repo)->AssembleCarve(2);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  ExpectSameCarveResult(*serial, *assembled);

  auto diff = (*repo)->Diff(1, 2);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->Empty()) << diff->ToString();
}

TEST(SnapshotRepoTest, AssembleAfterReopenMatchesSerialCarve) {
  std::string dir = RepoDir("snap_reopen");
  CarverConfig config = ConfigFor("sqlite_like");
  auto db = PopulatedDb("sqlite_like", 90);
  Bytes image = CaptureImage(db.get(), 41);

  auto repo = SnapshotRepo::Create(dir, config);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  ASSERT_TRUE((*repo)->Ingest(image).ok());
  CarveOptions serial_options = (*repo)->options();
  repo->reset();

  auto reopened = SnapshotRepo::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto serial = Carver(config, serial_options).Carve(image);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto assembled = (*reopened)->AssembleCarve(1);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  ExpectSameCarveResult(*serial, *assembled);
}

TEST(SnapshotRepoTest, DiffReportsAddedChangedVanished) {
  std::string dir = RepoDir("snap_diff");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 80);
  Bytes before = CaptureImage(db.get(), 53);
  ASSERT_TRUE((*repo)->Ingest(before).ok());

  // Grow the table: existing pages change (delete markers, fill) and new
  // pages appear.
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Customer WHERE Id <= 40").ok());
  for (int i = 500; i < 900; ++i) {
    ASSERT_TRUE(db->ExecuteSql(StrFormat("INSERT INTO Customer VALUES "
                                         "(%d, 'Name%04d', 'City%d')",
                                         i, i, i % 7))
                    .ok());
  }
  Bytes after = CaptureImage(db.get(), 53);
  ASSERT_TRUE((*repo)->Ingest(after).ok());

  auto forward = (*repo)->Diff(1, 2);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_FALSE(forward->Empty());
  EXPECT_GT(forward->changed.size(), 0u);
  EXPECT_GT(forward->added.size(), 0u);

  // The reverse diff mirrors the forward one: added <-> vanished, changed
  // hash pairs swap.
  auto reverse = (*repo)->Diff(2, 1);
  ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
  EXPECT_EQ(reverse->vanished.size(), forward->added.size());
  EXPECT_EQ(reverse->added.size(), forward->vanished.size());
  EXPECT_EQ(reverse->changed.size(), forward->changed.size());

  auto self = (*repo)->Diff(2, 2);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->Empty());

  EXPECT_FALSE((*repo)->Diff(1, 99).ok());
}

TEST(SnapshotRepoTest, HistoryTracksFirstAndLastSeen) {
  std::string dir = RepoDir("snap_history");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 50);
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 61)).ok());
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Customer VALUES (900, 'Newcomer', 'Late')")
          .ok());
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 61)).ok());

  Record newcomer = {Value::Int(900), Value::Str("Newcomer"),
                     Value::Str("Late")};
  auto late = (*repo)->History("Customer", newcomer);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->first_seen, 2u);
  EXPECT_EQ(late->last_seen, 2u);
  EXPECT_EQ(late->seen_in, (std::vector<uint64_t>{2}));

  Record veteran = {Value::Int(30), Value::Str("Name0030"),
                    Value::Str("City2")};
  auto always = (*repo)->History("Customer", veteran);
  ASSERT_TRUE(always.ok()) << always.status().ToString();
  EXPECT_EQ(always->first_seen, 1u);
  EXPECT_EQ(always->last_seen, 2u);
  EXPECT_EQ(always->seen_in, (std::vector<uint64_t>{1, 2}));

  Record never = {Value::Int(-1), Value::Str("Nobody"), Value::Str("X")};
  auto missing = (*repo)->History("Customer", never);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->first_seen, 0u);
  EXPECT_TRUE(missing->seen_in.empty());
}

TEST(SnapshotRepoTest, DetectIncrementalFlagsOnlyDeltaRecords) {
  std::string dir = RepoDir("snap_detect");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 100);
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 71)).ok());

  // A tampering actor deletes a row with the audit log suppressed.
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Customer WHERE Id = 77").ok());
  db->audit_log().SetEnabled(true);
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 71)).ok());

  auto incremental = (*repo)->DetectIncremental(1, 2, db->audit_log());
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

  // Only the delta was re-matched, and it still catches the tampering.
  auto list = (*repo)->List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_GT(incremental->pages_rematched, 0u);
  EXPECT_LT(incremental->pages_rematched, list[1].page_count);
  EXPECT_GT(incremental->records_rematched, 0u);
  bool found = false;
  for (const UnattributedModification& m : incremental->modifications) {
    if (m.table == "Customer" && !m.values.empty() &&
        m.values[0] == Value::Int(77)) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << incremental->ToString();

  // The full (non-incremental) detection over the assembled carve agrees.
  auto carve = (*repo)->AssembleCarve(2);
  ASSERT_TRUE(carve.ok());
  DbDetective detective(&*carve, &db->audit_log());
  auto full = detective.FindUnattributedModifications();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  bool full_found = false;
  for (const UnattributedModification& m : *full) {
    if (m.table == "Customer" && !m.values.empty() &&
        m.values[0] == Value::Int(77)) {
      full_found = true;
    }
  }
  EXPECT_TRUE(full_found);
  EXPECT_LE(incremental->records_rematched,
            full->size() + incremental->records_rematched);
  EXPECT_LE(incremental->deleted_checked + incremental->active_checked,
            incremental->records_rematched);
}

/// DetectIncremental(base_id, target_id, log) must equal the test oracle
/// run on the same delta: the target's records on pages whose content hash
/// is not among the base capture's pages (base_id 0: every record). Same
/// findings in the same order, same checked counts. Returns the findings.
///
/// The oracle derives the delta from a full AssembleCarve of both
/// snapshots, independently of DetectIncremental's delta-only assembly.
/// DetectIncremental runs first, so it sees the artifact cache as the
/// caller left it (the oracle's assemblies fill it). `captures[id - 1]` is
/// the image ingested as snapshot `id`.
std::vector<std::string> ExpectDeltaMatchesOracle(
    SnapshotRepo* repo, uint64_t base_id, uint64_t target_id,
    const std::vector<Bytes>& captures, const AuditLog& log) {
  SCOPED_TRACE(StrFormat("delta %llu -> %llu",
                         static_cast<unsigned long long>(base_id),
                         static_cast<unsigned long long>(target_id)));
  auto inc = repo->DetectIncremental(base_id, target_id, log);
  const size_t page_size = repo->config().params.page_size;
  auto page_hash = [&](uint64_t id, const CarvedPage& p) {
    return HashBytes(
        ByteView(captures[id - 1].data() + p.image_offset, page_size));
  };
  std::unordered_set<PageHash, PageHashHasher> base_hashes;
  if (base_id != 0) {
    auto base = repo->AssembleCarve(base_id);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    for (const CarvedPage& p : base->pages) {
      base_hashes.insert(page_hash(base_id, p));
    }
  }
  auto delta = repo->AssembleCarve(target_id);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  std::vector<CarvedRecord> records;
  for (CarvedRecord& r : delta->records) {
    if (base_hashes.count(page_hash(target_id, delta->pages[r.page_index])) ==
        0) {
      records.push_back(std::move(r));
    }
  }
  delta->records = std::move(records);

  size_t ref_deleted = 0, ref_active = 0;
  auto ref = detective_internal::FindUnattributedModificationsReference(
      *delta, log, &ref_deleted, &ref_active);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(inc.ok()) << inc.status().ToString();
  if (!ref.ok() || !inc.ok()) return {};
  EXPECT_EQ(inc->records_rematched, delta->records.size());
  EXPECT_EQ(inc->deleted_checked, ref_deleted);
  EXPECT_EQ(inc->active_checked, ref_active);
  std::vector<std::string> got, want;
  for (const auto& m : inc->modifications) got.push_back(m.ToString());
  for (const auto& m : *ref) want.push_back(m.ToString());
  EXPECT_EQ(got, want);
  return got;
}

/// A repository fed by a Customer database: Capture() ingests the
/// database's current image, IngestAgain(id) re-ingests the image of an
/// earlier snapshot, and Exec runs SQL with the audit log on or off.
struct CaptureSeries {
  explicit CaptureSeries(const std::string& name, int rows = 80)
      : dir(RepoDir(name)), db(PopulatedDb("postgres_like", rows)) {
    auto created = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) repo = std::move(created).value();
  }

  uint64_t Ingest(Bytes image) {
    captures.push_back(std::move(image));
    auto ingest = repo->Ingest(captures.back());
    EXPECT_TRUE(ingest.ok()) << ingest.status().ToString();
    return ingest.ok() ? ingest->snapshot_id : 0;
  }
  uint64_t Capture() {
    return Ingest(CaptureImage(db.get(), 90 + captures.size()));
  }
  uint64_t IngestAgain(uint64_t id) { return Ingest(captures[id - 1]); }

  void Exec(const std::string& sql, bool logged = true) {
    db->audit_log().SetEnabled(logged);
    EXPECT_TRUE(db->ExecuteSql(sql).ok()) << sql;
    db->audit_log().SetEnabled(true);
  }

  /// Closes the repository and opens it again from disk.
  void Reopen() {
    repo.reset();
    auto opened = SnapshotRepo::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    repo = std::move(opened).value();
  }

  std::vector<std::string> ExpectOracle(uint64_t base_id, uint64_t target_id) {
    return ExpectDeltaMatchesOracle(repo.get(), base_id, target_id, captures,
                                    db->audit_log());
  }

  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<SnapshotRepo> repo;
  std::vector<Bytes> captures;
};

TEST(SnapshotRepoTest, IncrementalLogIndexMatchesOracleAsTheLogGrows) {
  CaptureSeries s("snap_log_index");
  ASSERT_NE(s.repo, nullptr);
  SnapshotRepo* repo = s.repo.get();
  const std::vector<Bytes>& captures = s.captures;

  // The first capture is a full match (base 0); every later one extends
  // the indexed log: the database's own log only grows between captures.
  const AuditLog& log = s.db->audit_log();
  ExpectDeltaMatchesOracle(repo, 0, s.Capture(), captures, log);
  AuditLog before_last_step;
  const int kSteps = 6;
  for (int step = 1; step <= kSteps; ++step) {
    if (step == kSteps) before_last_step = log;  // shares every handle
    s.Exec(StrFormat("INSERT INTO Customer VALUES (%d, 'New%d', 'Town')",
                     200 + step, step),
           true);
    s.Exec(StrFormat("UPDATE Customer SET City = 'Moved%d' WHERE Id = %d",
                     step, 30 + step),
           true);
    s.Exec(StrFormat("DELETE FROM Customer WHERE Id = %d", 50 + step), true);
    if (step % 2 == 0) {  // unlogged tampering
      s.Exec(StrFormat("DELETE FROM Customer WHERE Id = %d", 60 + step),
             false);
      s.Exec(StrFormat("INSERT INTO Customer VALUES (%d, 'Ghost', 'X')",
                       900 + step),
             false);
    }
    uint64_t id = s.Capture();
    ExpectDeltaMatchesOracle(repo, id - 1, id, captures, log);
  }
  const uint64_t last = captures.size();
  std::vector<std::string> grown =
      ExpectDeltaMatchesOracle(repo, last - 1, last, captures, log);
  EXPECT_FALSE(grown.empty());

  // Logs that do not extend the indexed one rebuild the index.
  // A reload of the same text: fresh handles, same findings.
  auto reloaded = AuditLog::FromText(log.ToText());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(
      ExpectDeltaMatchesOracle(repo, last - 1, last, captures, *reloaded),
      grown);
  // One entry replaced: the last logged DELETE now names another row, so
  // the row it removed is unattributed.
  std::string text = log.ToText();
  const std::string last_delete =
      StrFormat("DELETE FROM Customer WHERE Id = %d", 50 + kSteps);
  ASSERT_NE(text.find(last_delete), std::string::npos);
  text.replace(text.find(last_delete), last_delete.size(),
               "DELETE FROM Customer WHERE Id = 7777");
  auto replaced = AuditLog::FromText(text);
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(
      ExpectDeltaMatchesOracle(repo, last - 1, last, captures, *replaced)
          .size(),
      grown.size() + 1);
  // Back to the full log, then a shorter copy that shares its handles: the
  // last step's logged statements are missing, so more is unattributed.
  EXPECT_EQ(ExpectDeltaMatchesOracle(repo, last - 1, last, captures, log),
            grown);
  EXPECT_GT(ExpectDeltaMatchesOracle(repo, last - 1, last, captures,
                                     before_last_step)
                .size(),
            grown.size());
  EXPECT_EQ(ExpectDeltaMatchesOracle(repo, last - 1, last, captures, log),
            grown);
}

TEST(SnapshotRepoTest, DetectIncrementalOnNonAdjacentRevertedAndSelfBases) {
  CaptureSeries s("snap_delta_bases");
  ASSERT_NE(s.repo, nullptr);
  uint64_t a = s.Capture();
  s.Exec("UPDATE Customer SET City = 'Moved' WHERE Id = 33");
  s.Exec("DELETE FROM Customer WHERE Id = 44", /*logged=*/false);
  uint64_t b = s.Capture();
  s.Exec("INSERT INTO Customer VALUES (901, 'Ghost', 'X')", /*logged=*/false);
  s.Exec("DELETE FROM Customer WHERE Id = 55");
  uint64_t c = s.Capture();

  // Non-adjacent base: the delta spans two captures' worth of changes.
  std::vector<std::string> a_to_c = s.ExpectOracle(a, c);
  EXPECT_EQ(a_to_c.size(), 2u);  // the unlogged DELETE and INSERT
  EXPECT_GE(a_to_c.size(), s.ExpectOracle(b, c).size());

  // The bytes revert: snapshot `reverted` holds capture a's image again.
  uint64_t reverted = s.IngestAgain(a);
  s.ExpectOracle(c, reverted);
  s.ExpectOracle(b, reverted);
  auto same_bytes = s.repo->DetectIncremental(a, reverted, s.db->audit_log());
  ASSERT_TRUE(same_bytes.ok()) << same_bytes.status().ToString();
  EXPECT_EQ(same_bytes->pages_rematched, 0u);
  EXPECT_EQ(same_bytes->records_rematched, 0u);
  EXPECT_TRUE(s.ExpectOracle(a, reverted).empty());

  // base == target: nothing changed, nothing is re-matched.
  for (uint64_t id : {a, b, c, reverted}) {
    auto self = s.repo->DetectIncremental(id, id, s.db->audit_log());
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    EXPECT_EQ(self->pages_rematched, 0u);
    EXPECT_EQ(self->records_rematched, 0u);
    EXPECT_EQ(self->deleted_checked + self->active_checked, 0u);
    EXPECT_TRUE(self->modifications.empty());
    EXPECT_TRUE(s.ExpectOracle(id, id).empty());
  }
}

TEST(SnapshotRepoTest, DetectIncrementalAcrossDropAndCreateTable) {
  CaptureSeries s("snap_delta_ddl");
  ASSERT_NE(s.repo, nullptr);
  uint64_t before = s.Capture();
  // Same table name, new schema: the catalog, the schemas and every typed
  // page's decode context change between the two captures.
  s.Exec("DROP TABLE Customer");
  s.Exec("CREATE TABLE Customer (Id INT NOT NULL, Note VARCHAR(40), "
         "PRIMARY KEY (Id))");
  s.Exec("CREATE TABLE Orders (OrderId INT NOT NULL, Amount INT, "
         "PRIMARY KEY (OrderId))");
  for (int i = 1; i <= 30; ++i) {
    s.Exec(StrFormat("INSERT INTO Customer VALUES (%d, 'Note%d')", i, i));
    s.Exec(StrFormat("INSERT INTO Orders VALUES (%d, %d)", i, i * 10));
  }
  s.Exec("INSERT INTO Customer VALUES (999, 'Unlogged')", /*logged=*/false);
  s.Exec("DELETE FROM Orders WHERE OrderId = 7", /*logged=*/false);
  uint64_t after = s.Capture();

  auto old_carve = s.repo->AssembleCarve(before);
  auto new_carve = s.repo->AssembleCarve(after);
  ASSERT_TRUE(old_carve.ok() && new_carve.ok());
  EXPECT_NE(old_carve->catalog_entries.size(),
            new_carve->catalog_entries.size());
  EXPECT_NE(old_carve->schemas.size(), new_carve->schemas.size());

  std::vector<std::string> found = s.ExpectOracle(before, after);
  auto mentions = [&](const std::string& needle) {
    for (const std::string& f : found) {
      if (f.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(mentions("Unlogged")) << Join(found, "\n");
  s.ExpectOracle(0, after);
  s.ExpectOracle(after, before);
}

TEST(SnapshotRepoTest, DetectIncrementalFallsBackToPageStoreWithoutArtifacts) {
  CaptureSeries s("snap_delta_no_artifacts");
  ASSERT_NE(s.repo, nullptr);
  s.Capture();
  s.Exec("UPDATE Customer SET City = 'Moved' WHERE Id = 61");
  s.Exec("DELETE FROM Customer WHERE Id = 62", /*logged=*/false);
  uint64_t last = s.Capture();

  s.repo.reset();
  RewriteBlocks(s.dir, [](size_t i, std::string* payload) {
    return i == 0 || (*payload)[0] != static_cast<char>(BlockKind::kArtifact);
  });
  s.Reopen();
  ASSERT_EQ(s.repo->artifact_cache().size(), 0u);

  // DetectIncremental runs before the oracle's assemblies: every delta page
  // is a cache miss, decoded from the page store and put back in the cache.
  EXPECT_EQ(s.ExpectOracle(last - 1, last).size(), 1u);
  EXPECT_EQ(s.repo->artifact_cache().decodes(), 0u);
  EXPECT_GT(s.repo->artifact_cache().size(), 0u);
}

TEST(SnapshotRepoTest, DetectIncrementalDecodesOnlyTheChangedPages) {
  CaptureSeries s("snap_delta_decodes", /*rows=*/600);
  ASSERT_NE(s.repo, nullptr);
  s.Capture();
  s.Exec("UPDATE Customer SET City = 'Moved' WHERE Id = 170");
  s.Capture();
  s.Exec("UPDATE Customer SET City = 'Moved' WHERE Id = 375");
  s.Exec("INSERT INTO Customer VALUES (950, 'Late', 'Town')");
  uint64_t last = s.Capture();

  // A reopened repository decodes artifacts lazily, one key at a time.
  s.Reopen();
  ASSERT_EQ(s.repo->artifact_cache().decodes(), 0u);
  auto inc = s.repo->DetectIncremental(last - 1, last, s.db->audit_log());
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  const size_t delta_decodes = s.repo->artifact_cache().decodes();

  // The distinct (page hash, context) keys of the changed pages, derived by
  // full assembly: the keys of the target that the base does not already
  // have (no schema changes here, so an unchanged page keeps its key).
  s.Reopen();
  ASSERT_TRUE(s.repo->AssembleCarve(last - 1).ok());
  const size_t base_keys = s.repo->artifact_cache().decodes();
  ASSERT_TRUE(s.repo->AssembleCarve(last).ok());
  const size_t changed_keys = s.repo->artifact_cache().decodes() - base_keys;
  s.Reopen();
  ASSERT_TRUE(s.repo->AssembleCarve(last).ok());
  const size_t target_keys = s.repo->artifact_cache().decodes();

  EXPECT_EQ(delta_decodes, changed_keys);
  EXPECT_GT(delta_decodes, 0u);
  EXPECT_LT(delta_decodes, target_keys);
  EXPECT_GT(inc->records_rematched, 0u);
  s.ExpectOracle(last - 1, last);
}

TEST(SnapshotRepoTest, RegisterSnapshotsEnablesCrossSnapshotQueries) {
  std::string dir = RepoDir("snap_query");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();

  auto db = PopulatedDb("postgres_like", 40);
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 83)).ok());
  ASSERT_TRUE(
      db->ExecuteSql("UPDATE Customer SET City = 'Moved' WHERE Id = 25")
          .ok());
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 83)).ok());

  MetaQuerySession session;
  std::vector<std::string> skipped;
  ASSERT_TRUE((*repo)->RegisterSnapshots(&session, {}, &skipped).ok());
  EXPECT_TRUE(skipped.empty()) << Join(skipped, "; ");

  // Section II-C's cross-snapshot join: whose city changed between the two
  // captures?
  auto moved = session.Query(
      "SELECT A.Id FROM Snap1Customer AS A JOIN Snap2Customer AS B "
      "ON A.Id = B.Id WHERE A.City <> B.City");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  bool saw_25 = false;
  for (const auto& row : moved->rows) {
    ASSERT_EQ(row.size(), 1u);
    if (row[0] == Value::Int(25)) saw_25 = true;
  }
  EXPECT_TRUE(saw_25) << moved->ToText(20);
}

TEST(SnapshotRepoTest, CorruptedRepositoryFilesFailGracefully) {
  std::string dir = RepoDir("snap_corrupt");
  auto db = PopulatedDb("postgres_like", 60);
  Bytes image = CaptureImage(db.get(), 97);
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    ASSERT_TRUE((*repo)->Ingest(image).ok());
  }

  // A bit flip in a page block, or in an artifact block, is caught by the
  // block CRC at open.
  for (BlockKind kind : {BlockKind::kPage, BlockKind::kArtifact}) {
    std::vector<uint64_t> starts = BlockStarts(dir, kind);
    ASSERT_FALSE(starts.empty());
    long offset = static_cast<long>(starts[0] + 8 + 40);
    FlipByteAt(RepoPath(dir), offset);
    auto repo = SnapshotRepo::Open(dir);
    EXPECT_FALSE(repo.ok());
    EXPECT_TRUE(repo.status().code() == StatusCode::kCorruption) << repo.status().ToString();
    FlipByteAt(RepoPath(dir), offset);  // restore
  }

  // A truncated manifest (no end marker) inside a whole block must be
  // rejected, not half-loaded. (A block cut short by end of file is an
  // uncommitted ingest instead; ManifestCommitSurvivesACrashAtEveryByte.)
  {
    std::vector<std::string> manifests = ReadManifests(dir);
    ASSERT_EQ(manifests.size(), 1u);
    manifests[0].resize(manifests[0].size() - 5);
    WriteManifests(dir, manifests);
    auto repo = SnapshotRepo::Open(dir);
    EXPECT_FALSE(repo.ok());
    EXPECT_TRUE(repo.status().code() == StatusCode::kCorruption) << repo.status().ToString();
  }
}

TEST(SnapshotRepoTest, IngestRejectsEmptyImageAndUnknownSnapshotIds) {
  std::string dir = RepoDir("snap_args");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_FALSE((*repo)->Ingest(ByteView()).ok());
  EXPECT_TRUE((*repo)->AssembleCarve(1).status().code() == StatusCode::kNotFound);
  EXPECT_TRUE((*repo)->Diff(1, 2).status().code() == StatusCode::kNotFound);
  // Base 0 is the empty repository, but the target must still exist.
  AuditLog log;
  EXPECT_TRUE((*repo)->DetectIncremental(0, 1, log).status().code() ==
              StatusCode::kNotFound);
  auto db = PopulatedDb("postgres_like", 5);
  ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 3)).ok());
  EXPECT_TRUE((*repo)->DetectIncremental(2, 1, log).status().code() ==
              StatusCode::kNotFound);
  EXPECT_TRUE((*repo)->DetectIncremental(0, 1, log).ok());
}

TEST(SnapshotRepoTest, StepsPastThePageMatchSerialCarve) {
  // A step larger than the rest of the image ends the scan instead of
  // wrapping the cursor, on every thread count. Leading zeros put a miss
  // first; without them the leading run of pages is accepted.
  CarverConfig config = ConfigFor("postgres_like");
  auto db = PopulatedDb("postgres_like", 60);
  auto file = db->SnapshotDisk();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Bytes shifted(512, 0);
  shifted.insert(shifted.end(), file->begin(), file->end());
  for (const Bytes* image : {&shifted, &*file}) {
    for (size_t step : {SIZE_MAX, size_t{config.params.page_size} + 1}) {
      for (size_t threads : {1, 4}) {
        SCOPED_TRACE(StrFormat("image=%zu bytes step=%zu threads=%zu",
                               image->size(), step, threads));
        std::string dir = RepoDir("snap_big_step");
        CarveOptions options;
        options.scan_step = step;
        options.num_threads = threads;
        auto repo = SnapshotRepo::Create(dir, config, options);
        ASSERT_TRUE(repo.ok()) << repo.status().ToString();
        ASSERT_TRUE((*repo)->Ingest(*image).ok());
        auto serial = Carver(config, (*repo)->options()).Carve(*image);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        auto assembled = (*repo)->AssembleCarve(1);
        ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
        ExpectSameCarveResult(*serial, *assembled);
      }
    }
  }
}

TEST(SnapshotRepoTest, RepeatedNewPageIsStoredOnce) {
  // Detection only reads the page store; a page new to the store that
  // occurs twice in one capture is stored once and counted once as new,
  // once as reused, on every thread count.
  CarverConfig config = ConfigFor("postgres_like");
  size_t page_size = config.params.page_size;
  auto db = PopulatedDb("postgres_like", 40);
  auto file = db->SnapshotDisk();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto carved = Carver(config).Carve(*file);
  ASSERT_TRUE(carved.ok()) << carved.status().ToString();
  ASSERT_FALSE(carved->pages.empty());
  ByteView page = ByteView(*file).Slice(carved->pages[0].image_offset,
                                        page_size);
  Bytes image = page.ToBytes();
  image.insert(image.end(), page.data(), page.data() + page.size());
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    std::string dir = RepoDir("snap_repeated_page");
    CarveOptions options;
    options.num_threads = threads;
    auto repo = SnapshotRepo::Create(dir, config, options);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    auto stats = (*repo)->Ingest(image);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->pages_total, 2u);
    EXPECT_EQ(stats->pages_new, 1u);
    EXPECT_EQ(stats->pages_reused, 1u);
    EXPECT_EQ((*repo)->page_store().size(), 1u);
    auto serial = Carver(config, (*repo)->options()).Carve(image);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto assembled = (*repo)->AssembleCarve(1);
    ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
    ExpectSameCarveResult(*serial, *assembled);
  }
}

TEST(SnapshotRepoTest, ManifestCrcMismatchFailsOpen) {
  // The store is keyed by the content hash alone, but a manifest's CRC
  // column is still checked against the stored entry.
  std::string dir = RepoDir("snap_manifest_crc");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    auto db = PopulatedDb("postgres_like", 40);
    ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 11)).ok());
  }
  std::vector<std::string> manifests = ReadManifests(dir);
  ASSERT_EQ(manifests.size(), 1u);
  std::string* text = &manifests[0];
  // "page <offset> <crc> <hash>": change the first page line's CRC.
  size_t line = text->find("\npage ");
  ASSERT_NE(line, std::string::npos);
  size_t crc_begin = text->find(' ', line + 6) + 1;
  size_t crc_end = text->find(' ', crc_begin);
  uint64_t crc = 0;
  ASSERT_TRUE(ParseU64(text->substr(crc_begin, crc_end - crc_begin), &crc));
  text->replace(crc_begin, crc_end - crc_begin, std::to_string(crc ^ 1));
  WriteManifests(dir, manifests);

  auto repo = SnapshotRepo::Open(dir);
  ASSERT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), StatusCode::kCorruption)
      << repo.status().ToString();
}

TEST(SnapshotRepoTest, RepoLockExcludesConcurrentOpen) {
  std::string dir = RepoDir("snap_lock");
  auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  // The lock is repo.bin itself: no lock file appears.
  EXPECT_EQ(FilesIn(dir), kRepoFiles);

  // A second handle (a concurrent CLI against a daemon-held repository)
  // must be refused with a retryable code, not interleave writes.
  auto contender = SnapshotRepo::Open(dir);
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable)
      << contender.status().ToString();

  // Fsck takes the same lock.
  EXPECT_EQ(SnapshotRepo::Fsck(dir).status().code(), StatusCode::kUnavailable);

  // Releasing the first handle releases the lock and unblocks Open.
  repo->reset();
  EXPECT_EQ(FilesIn(dir), kRepoFiles);
  auto reopened = SnapshotRepo::Open(dir);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST(SnapshotRepoTest, StaleLockFromDeadProcessIsReclaimed) {
  std::string dir = RepoDir("snap_lock_stale");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  }
  // A child opens the repository and dies without cleanup: no destructor
  // runs, so only the kernel can release its lock.
  int ready[2];
  int release[2];
  ASSERT_EQ(pipe(ready), 0);
  ASSERT_EQ(pipe(release), 0);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ready[0]);
    close(release[1]);
    auto repo = SnapshotRepo::Open(dir);
    char opened = repo.ok() ? 'y' : 'n';
    if (write(ready[1], &opened, 1) != 1) _exit(2);
    char ignored;
    // Returns once the parent closes its end.
    if (read(release[0], &ignored, 1) < 0) _exit(2);
    _exit(0);
  }
  close(ready[1]);
  close(release[0]);
  char opened = 0;
  ASSERT_EQ(read(ready[0], &opened, 1), 1);
  close(ready[0]);
  EXPECT_EQ(opened, 'y') << "the child could not open the repository";
  // While the child lives, its lock holds.
  EXPECT_EQ(SnapshotRepo::Open(dir).status().code(), StatusCode::kUnavailable);
  close(release[1]);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);

  auto repo = SnapshotRepo::Open(dir);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_EQ(FilesIn(dir), kRepoFiles);
}

TEST(SnapshotRepoTest, FsckPassesOnHealthyRepoAndReportsBitFlips) {
  std::string dir = RepoDir("snap_fsck");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    auto db = PopulatedDb("postgres_like", 60);
    ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 1)).ok());
    ASSERT_TRUE(db->ExecuteSql("DELETE FROM Customer WHERE Id > 50").ok());
    ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 2)).ok());
  }  // destructor releases the repository lock Fsck needs

  auto clean = SnapshotRepo::Fsck(dir);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->Clean()) << clean->ToString();
  EXPECT_GT(clean->pages_checked, 0u);
  EXPECT_GT(clean->artifacts_checked, 0u);
  EXPECT_EQ(clean->manifests_checked, 2u);

  // Fsck must not hold the repository lock after returning.
  {
    auto reopened = SnapshotRepo::Open(dir);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  }

  // One flipped bit inside a page block must surface as a per-file defect
  // report, not as a Status error and not as a crash.
  std::vector<uint64_t> pages = BlockStarts(dir, BlockKind::kPage);
  ASSERT_GT(pages.size(), 2u);
  FlipByteAt(RepoPath(dir), static_cast<long>(pages[pages.size() / 2] + 100));
  auto damaged = SnapshotRepo::Fsck(dir);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  EXPECT_FALSE(damaged->Clean());
  bool names_repo_bin = false;
  for (const FsckIssue& issue : damaged->issues) {
    if (issue.file == "repo.bin") names_repo_bin = true;
  }
  EXPECT_TRUE(names_repo_bin) << damaged->ToString();
}

TEST(SnapshotRepoTest, FsckFlagsUnreachableManifestPages) {
  std::string dir = RepoDir("snap_fsck_manifest");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("oracle_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    auto db = PopulatedDb("oracle_like", 40);
    ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 3)).ok());
  }
  // Corrupt one hex digit of a manifest's page hash: the referenced page
  // no longer exists in the store.
  std::vector<std::string> manifests = ReadManifests(dir);
  ASSERT_EQ(manifests.size(), 1u);
  std::string& text = manifests[0];
  size_t pos = text.find("page ");
  ASSERT_NE(pos, std::string::npos);
  size_t hash_pos = text.find_last_of(' ', text.find('\n', pos)) + 1;
  text[hash_pos] = text[hash_pos] == '0' ? '1' : '0';
  WriteManifests(dir, manifests);
  auto report = SnapshotRepo::Fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->Clean());
  bool names_manifest = false;
  for (const FsckIssue& issue : report->issues) {
    if (issue.file == "repo.bin" &&
        issue.detail.find("snapshot 1:") != std::string::npos &&
        issue.detail.find("not reachable") != std::string::npos) {
      names_manifest = true;
    }
  }
  EXPECT_TRUE(names_manifest) << report->ToString();
}

TEST(SnapshotRepoTest, OpenOfNonRepositoryDirectoryCreatesNoFile) {
  std::string dir = RepoDir("snap_not_a_repo");
  // A missing directory is not created, an empty one stays empty, and a
  // directory of other files gains none.
  EXPECT_FALSE(SnapshotRepo::Open(dir).ok());
  EXPECT_FALSE(SnapshotRepo::Fsck(dir).ok());
  EXPECT_FALSE(fs::exists(dir));
  fs::create_directories(dir);
  EXPECT_FALSE(SnapshotRepo::Open(dir).ok());
  EXPECT_FALSE(SnapshotRepo::Fsck(dir).ok());
  EXPECT_TRUE(FilesIn(dir).empty());
  ASSERT_TRUE(WriteFile((fs::path(dir) / "notes.txt").string(), "x").ok());
  EXPECT_FALSE(SnapshotRepo::Open(dir).ok());
  EXPECT_FALSE(SnapshotRepo::Fsck(dir).ok());
  EXPECT_EQ(FilesIn(dir), std::set<std::string>{"notes.txt"});
}

TEST(SnapshotRepoTest, CreateOverExistingRepositoryIsAlreadyExists) {
  std::string dir = RepoDir("snap_create_twice");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    auto db = PopulatedDb("postgres_like", 30);
    ASSERT_TRUE((*repo)->Ingest(CaptureImage(db.get(), 5)).ok());
  }
  std::vector<std::string> before;
  for (const std::string& name : kRepoFiles) {
    before.push_back(ReadFile((fs::path(dir) / name).string()).value());
  }
  auto again = SnapshotRepo::Create(dir, ConfigFor("oracle_like"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists)
      << again.status().ToString();
  // The existing repository is untouched, byte for byte.
  EXPECT_EQ(FilesIn(dir), kRepoFiles);
  size_t i = 0;
  for (const std::string& name : kRepoFiles) {
    EXPECT_EQ(ReadFile((fs::path(dir) / name).string()).value(), before[i++])
        << name;
  }
  auto opened = SnapshotRepo::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->config().params.dialect, "postgres_like");
  EXPECT_EQ((*opened)->List().size(), 1u);
}

TEST(SnapshotRepoTest, CreateCutShortBeforeItsHeaderIsReported) {
  // A Create that died between making repo.bin and appending its header
  // leaves an empty file (or a short header): not a repository, and not
  // silently reused either.
  std::string dir = RepoDir("snap_create_cut");
  fs::create_directories(dir);
  for (std::string contents : {std::string(), std::string("\x40\0\0", 3)}) {
    ASSERT_TRUE(WriteFile(RepoPath(dir), contents).ok());
    auto repo = SnapshotRepo::Open(dir);
    ASSERT_FALSE(repo.ok());
    EXPECT_EQ(repo.status().code(), StatusCode::kCorruption)
        << repo.status().ToString();
    auto report = SnapshotRepo::Fsck(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->issues.size(), 1u) << report->ToString();
    EXPECT_EQ(report->issues[0].detail.rfind("header: ", 0), 0u)
        << report->ToString();
    EXPECT_EQ(SnapshotRepo::Create(dir, ConfigFor("postgres_like"))
                  .status()
                  .code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(ReadFile(RepoPath(dir)).value(), contents);
  }
}

TEST(SnapshotRepoTest, OtherFormatVersionIsRefusedByName) {
  std::string dir = RepoDir("snap_v1");
  {
    auto repo = SnapshotRepo::Create(dir, ConfigFor("postgres_like"));
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  }
  // A header of another version, framed whole: refused by its version.
  const std::string v2 = "dbfa-snapshot-repo v2\n";
  RewriteBlocks(dir, [&](size_t i, std::string* payload) {
    if (i == 0) {
      EXPECT_EQ(payload->substr(0, v2.size()), v2);
      *payload = "dbfa-snapshot-repo v1\n" + payload->substr(v2.size());
    }
    return true;
  });
  auto repo = SnapshotRepo::Open(dir);
  ASSERT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(repo.status().message().find("v1"), std::string::npos)
      << repo.status().ToString();
  auto report = SnapshotRepo::Fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->Clean());
  EXPECT_EQ(report->issues[0].file, "repo.bin");
  EXPECT_NE(report->issues[0].detail.find("v1"), std::string::npos)
      << report->ToString();

  // A repository of the older layout (a text repo.meta beside its store
  // files, no repo.bin) is refused by the version its repo.meta names, by
  // Open, Fsck and Create alike, and gains no file.
  std::string old = RepoDir("snap_v1_layout");
  fs::create_directories(fs::path(old) / "snapshots");
  ASSERT_TRUE(WriteFile((fs::path(old) / "repo.meta").string(),
                        "dbfa-snapshot-repo v1\nscan_step 512\n")
                  .ok());
  const std::set<std::string> old_files = FilesIn(old);
  for (Status status :
       {SnapshotRepo::Open(old).status(), SnapshotRepo::Fsck(old).status(),
        SnapshotRepo::Create(old, ConfigFor("postgres_like")).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.message().find("v1"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(FilesIn(old), old_files);
}

TEST(SnapshotRepoTest, ManifestCommitSurvivesACrashAtEveryByte) {
  // The complete manifest block is an ingest's commit point. A crash
  // inside any append of an ingest leaves a short final block: for every
  // cut inside the last manifest block, and for cuts at and inside each
  // page and artifact block the last ingest appended before it, Open must
  // yield exactly the earlier snapshots, assemble the last of them like a
  // fresh serial carve, and take further ingests and a clean Fsck.
  CarverConfig config = ConfigFor("postgres_like");
  auto db = PopulatedDb("postgres_like", 30);
  std::vector<Bytes> images;
  images.push_back(CaptureImage(db.get(), 21));
  ASSERT_TRUE(
      db->ExecuteSql("UPDATE Customer SET City = 'Moved' WHERE Id = 25").ok());
  images.push_back(CaptureImage(db.get(), 22));
  ASSERT_TRUE(db->ExecuteSql("DELETE FROM Customer WHERE Id > 27").ok());
  images.push_back(CaptureImage(db.get(), 23));

  std::string golden = RepoDir("snap_crash_golden");
  {
    auto repo = SnapshotRepo::Create(golden, config);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    for (const Bytes& image : images) {
      ASSERT_TRUE((*repo)->Ingest(image).ok());
    }
  }
  std::vector<uint64_t> starts = BlockStarts(golden, BlockKind::kManifest);
  ASSERT_EQ(starts.size(), 3u);
  const uint64_t last = starts.back();
  const uint64_t end = fs::file_size(RepoPath(golden));
  ASSERT_GT(end, last + 8) << "the last block must have a payload to cut";
  std::vector<std::pair<uint64_t, uint64_t>> cuts;  // (cut, committed end)
  for (uint64_t cut = last; cut < end; ++cut) cuts.emplace_back(cut, last);
  // The third ingest's page and artifact blocks: cut at each one's start,
  // inside its header and inside its payload.
  const std::vector<std::pair<uint64_t, std::string>> blocks =
      ReadBlocks(golden);
  size_t third_ingest_blocks = 0;
  for (const auto& [offset, payload] : blocks) {
    if (offset <= starts[1] || offset >= last) continue;
    ++third_ingest_blocks;
    for (uint64_t cut : {offset, offset + 3, offset + 8 + payload.size() / 2}) {
      cuts.emplace_back(cut, offset);
    }
  }
  ASSERT_GT(third_ingest_blocks, 0u) << "the third ingest stored new pages";
  auto serial = Carver(config, CarveOptions{}).Carve(images[1]);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  std::string dir = RepoDir("snap_crash");
  for (const auto& [cut, committed] : cuts) {
    if (HasFailure()) break;
    SCOPED_TRACE(StrFormat("repo.bin cut at %llu of %llu",
                           static_cast<unsigned long long>(cut),
                           static_cast<unsigned long long>(end)));
    fs::remove_all(dir);
    fs::copy(golden, dir);
    fs::resize_file(RepoPath(dir), cut);
    {
      auto repo = SnapshotRepo::Open(dir);
      ASSERT_TRUE(repo.ok()) << repo.status().ToString();
      std::vector<SnapshotInfo> list = (*repo)->List();
      ASSERT_EQ(list.size(), 2u);
      EXPECT_EQ(list[0].id, 1u);
      EXPECT_EQ(list[1].id, 2u);
      EXPECT_EQ(fs::file_size(RepoPath(dir)), committed);
      auto assembled = (*repo)->AssembleCarve(2);
      ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
      ExpectSameCarveResult(*serial, *assembled);
      auto ingested = (*repo)->Ingest(images[2]);
      ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
      EXPECT_EQ(ingested->snapshot_id, 3u);
    }
    {
      auto reopened = SnapshotRepo::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ((*reopened)->List().size(), 3u);
    }
    auto report = SnapshotRepo::Fsck(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->Clean()) << report->ToString();
    EXPECT_EQ(report->manifests_checked, 3u);
    EXPECT_EQ(FilesIn(dir), kRepoFiles);
  }

  // A flipped byte inside an earlier, complete block is damage, not an
  // uncommitted tail: Open refuses it and Fsck names the file and the
  // snapshot.
  fs::remove_all(dir);
  fs::copy(golden, dir);
  FlipByteAt(RepoPath(dir), static_cast<long>(starts[1] + 8 + 10));
  auto repo = SnapshotRepo::Open(dir);
  ASSERT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), StatusCode::kCorruption)
      << repo.status().ToString();
  auto report = SnapshotRepo::Fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  bool names_snapshot = false;
  for (const FsckIssue& issue : report->issues) {
    if (issue.file == "repo.bin" &&
        issue.detail.find("snapshot 2") != std::string::npos) {
      names_snapshot = true;
    }
  }
  EXPECT_TRUE(names_snapshot) << report->ToString();

  // A damaged size field that sends an earlier block past the end of file
  // must not pass for a torn append: Open refuses and truncates nothing.
  fs::remove_all(dir);
  fs::copy(golden, dir);
  FlipByteAt(RepoPath(dir), static_cast<long>(starts[1] + 2));
  auto overrun = SnapshotRepo::Open(dir);
  ASSERT_FALSE(overrun.ok());
  EXPECT_EQ(overrun.status().code(), StatusCode::kCorruption)
      << overrun.status().ToString();
  EXPECT_EQ(fs::file_size(RepoPath(dir)), end);
}

}  // namespace
}  // namespace dbfa
