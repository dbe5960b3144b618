#include "fuzz/corpus.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>

#include "common/file_io.h"
#include "common/strings.h"
#include "core/carver.h"
#include "core/parallel_carver.h"
#include "engine/catalog.h"
#include "fuzz/campaign.h"
#include "fuzz/oracle.h"
#include "snapshot/snapshot_repo.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

std::atomic<uint64_t> g_replay_seq{0};

std::string SidecarText(const CorpusEntry& e) {
  std::string out;
  out += "# dbfa_fuzz regression corpus entry (docs/fuzzing.md)\n";
  out += StrFormat("name = %s\n", e.name.c_str());
  out += StrFormat("dialect = %s\n", e.dialect.c_str());
  out += StrFormat("mutations = %s\n",
                   MutationListToString(e.mutations).c_str());
  out += StrFormat("note = %s\n", e.note.c_str());
  out += StrFormat("confusion_dialect = %s\n", e.confusion_dialect.c_str());
  out += StrFormat("expect_pages = %zu\n", e.expect_pages);
  out += StrFormat("expect_checksum_failures = %zu\n",
                   e.expect_checksum_failures);
  out += StrFormat("expect_records = %zu\n", e.expect_records);
  out += StrFormat("expect_deleted = %zu\n", e.expect_deleted);
  out += StrFormat("expect_index_entries = %zu\n", e.expect_index_entries);
  out += StrFormat("expect_catalog_entries = %zu\n",
                   e.expect_catalog_entries);
  out += StrFormat("expect_schemas = %zu\n", e.expect_schemas);
  out += StrFormat("confusion_pages = %zu\n", e.confusion_pages);
  out += StrFormat("confusion_records = %zu\n", e.confusion_records);
  return out;
}

Result<size_t> ParseCount(const std::string& v, const std::string& key) {
  if (v.empty()) {
    return Status::InvalidArgument("bad count for " + key);
  }
  size_t n = 0;
  for (char c : v) {
    if (c < '0' || c > '9' || n > (SIZE_MAX - 9) / 10) {
      return Status::InvalidArgument("bad count for " + key + ": " + v);
    }
    n = n * 10 + static_cast<size_t>(c - '0');
  }
  return n;
}

Result<CarverConfig> ConfigForDialect(const std::string& dialect) {
  CarverConfig config;
  DBFA_ASSIGN_OR_RETURN(config.params, GetDialect(dialect));
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

Status Mismatch(const std::string& name, const char* what, size_t got,
                size_t want) {
  return Status::Internal(StrFormat("corpus %s: %s = %zu, expected %zu",
                                    name.c_str(), what, got, want));
}

}  // namespace

Status SaveCorpusEntry(const std::string& dir, const CorpusEntry& entry,
                       ByteView image) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create corpus dir: " + dir);
  }
  fs::path base = fs::path(dir) / entry.name;
  DBFA_RETURN_IF_ERROR(SaveImage(base.string() + ".img", image));
  return WriteFile(base.string() + ".expect", SidecarText(entry));
}

Result<CorpusEntry> LoadCorpusEntry(const std::string& sidecar_path) {
  DBFA_ASSIGN_OR_RETURN(std::string text, ReadFile(sidecar_path));

  std::map<std::string, std::string> kv;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("bad sidecar line: " +
                                     std::string(line));
    }
    kv[std::string(Trim(line.substr(0, eq)))] =
        std::string(Trim(line.substr(eq + 1)));
  }
  auto get = [&](const char* key) -> Result<std::string> {
    auto it = kv.find(key);
    if (it == kv.end()) {
      return Status::InvalidArgument(
          StrFormat("sidecar %s: missing key %s", sidecar_path.c_str(),
                    key));
    }
    return it->second;
  };
  auto get_count = [&](const char* key) -> Result<size_t> {
    DBFA_ASSIGN_OR_RETURN(std::string v, get(key));
    return ParseCount(v, key);
  };

  CorpusEntry e;
  DBFA_ASSIGN_OR_RETURN(e.name, get("name"));
  DBFA_ASSIGN_OR_RETURN(e.dialect, get("dialect"));
  DBFA_ASSIGN_OR_RETURN(std::string mutations, get("mutations"));
  DBFA_ASSIGN_OR_RETURN(e.mutations, MutationListFromString(mutations));
  DBFA_ASSIGN_OR_RETURN(e.note, get("note"));
  DBFA_ASSIGN_OR_RETURN(e.confusion_dialect, get("confusion_dialect"));
  DBFA_ASSIGN_OR_RETURN(e.expect_pages, get_count("expect_pages"));
  DBFA_ASSIGN_OR_RETURN(e.expect_checksum_failures,
                        get_count("expect_checksum_failures"));
  DBFA_ASSIGN_OR_RETURN(e.expect_records, get_count("expect_records"));
  DBFA_ASSIGN_OR_RETURN(e.expect_deleted, get_count("expect_deleted"));
  DBFA_ASSIGN_OR_RETURN(e.expect_index_entries,
                        get_count("expect_index_entries"));
  DBFA_ASSIGN_OR_RETURN(e.expect_catalog_entries,
                        get_count("expect_catalog_entries"));
  DBFA_ASSIGN_OR_RETURN(e.expect_schemas, get_count("expect_schemas"));
  DBFA_ASSIGN_OR_RETURN(e.confusion_pages, get_count("confusion_pages"));
  DBFA_ASSIGN_OR_RETURN(e.confusion_records,
                        get_count("confusion_records"));
  return e;
}

Result<std::vector<std::string>> ListCorpusSidecars(
    const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list corpus dir: " + dir);
  }
  for (const fs::directory_entry& entry : it) {
    if (entry.path().extension() == ".expect") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status ReplayCorpusEntry(const std::string& sidecar_path,
                         const std::string& scratch_dir) {
  DBFA_ASSIGN_OR_RETURN(CorpusEntry entry, LoadCorpusEntry(sidecar_path));
  fs::path image_path = fs::path(sidecar_path).parent_path() /
                        (entry.name + ".img");
  DBFA_ASSIGN_OR_RETURN(Bytes image, LoadImage(image_path.string()));
  DBFA_ASSIGN_OR_RETURN(CarverConfig config,
                        ConfigForDialect(entry.dialect));

  // 1. The serial carve must reproduce the recorded findings exactly.
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, Carver(config).Carve(image));
  if (carve.pages.size() != entry.expect_pages) {
    return Mismatch(entry.name, "pages", carve.pages.size(),
                    entry.expect_pages);
  }
  if (carve.stats.checksum_failures != entry.expect_checksum_failures) {
    return Mismatch(entry.name, "checksum failures",
                    carve.stats.checksum_failures,
                    entry.expect_checksum_failures);
  }
  if (carve.records.size() != entry.expect_records) {
    return Mismatch(entry.name, "records", carve.records.size(),
                    entry.expect_records);
  }
  size_t deleted = carve.CountRecords(RowStatus::kDeleted);
  if (deleted != entry.expect_deleted) {
    return Mismatch(entry.name, "deleted records", deleted,
                    entry.expect_deleted);
  }
  if (carve.index_entries.size() != entry.expect_index_entries) {
    return Mismatch(entry.name, "index entries", carve.index_entries.size(),
                    entry.expect_index_entries);
  }
  if (carve.catalog_entries.size() != entry.expect_catalog_entries) {
    return Mismatch(entry.name, "catalog entries",
                    carve.catalog_entries.size(),
                    entry.expect_catalog_entries);
  }
  if (carve.schemas.size() != entry.expect_schemas) {
    return Mismatch(entry.name, "schemas", carve.schemas.size(),
                    entry.expect_schemas);
  }

  // 2. Parallel carves must be byte-identical to serial.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    CarveOptions popts;
    popts.num_threads = threads;
    DBFA_ASSIGN_OR_RETURN(CarveResult par,
                          ParallelCarver(config, popts).Carve(image));
    std::string diff = DescribeCarveDifference(carve, par);
    if (!diff.empty()) {
      return Status::Internal(
          StrFormat("corpus %s: parallel(%zu) diverged: %s",
                    entry.name.c_str(), threads, diff.c_str()));
    }
  }

  // 3. Snapshot round-trip (a Status from Ingest is a legal outcome for a
  // hostile image; silent divergence is not).
  if (!scratch_dir.empty()) {
    uint64_t seq = g_replay_seq.fetch_add(1);
    fs::path repo_dir =
        fs::path(scratch_dir) /
        StrFormat("%s_replay_%llu", entry.name.c_str(),
                  static_cast<unsigned long long>(seq));
    Status violation = Status::Ok();
    {
      Result<std::unique_ptr<SnapshotRepo>> repo =
          SnapshotRepo::Create(repo_dir.string(), config, CarveOptions{});
      if (!repo.ok()) {
        violation = repo.status();
      } else if (Result<IngestStats> ingest = (*repo)->Ingest(image);
                 ingest.ok()) {
        Result<CarveResult> assembled = (*repo)->AssembleCarve(1);
        if (!assembled.ok()) {
          violation = assembled.status();
        } else if (std::string diff =
                       DescribeCarveDifference(carve, *assembled);
                   !diff.empty()) {
          violation = Status::Internal(
              StrFormat("corpus %s: snapshot round-trip diverged: %s",
                        entry.name.c_str(), diff.c_str()));
        }
      }
    }
    std::error_code ec;
    fs::remove_all(repo_dir, ec);
    DBFA_RETURN_IF_ERROR(violation);
  }

  // 4. The declared wrong-dialect carve must reproduce its recorded
  // (mis)findings — for committed entries, zero accepted pages.
  if (!entry.confusion_dialect.empty()) {
    DBFA_ASSIGN_OR_RETURN(CarverConfig wrong,
                          ConfigForDialect(entry.confusion_dialect));
    DBFA_ASSIGN_OR_RETURN(CarveResult cross, Carver(wrong).Carve(image));
    if (cross.pages.size() != entry.confusion_pages) {
      return Mismatch(entry.name, "confusion pages", cross.pages.size(),
                      entry.confusion_pages);
    }
    if (cross.records.size() != entry.confusion_records) {
      return Mismatch(entry.name, "confusion records",
                      cross.records.size(), entry.confusion_records);
    }
  }
  return Status::Ok();
}

Result<Bytes> RealizeCorpusEntry(CorpusEntry* entry, uint64_t baseline_seed,
                                 int workload_rows, int workload_ops) {
  DBFA_ASSIGN_OR_RETURN(
      BaselineImage baseline,
      BuildBaseline(entry->dialect, baseline_seed, workload_rows,
                    workload_ops));
  Bytes image = baseline.image;
  ApplyMutations(baseline.config, entry->mutations, &image);
  DBFA_ASSIGN_OR_RETURN(CarveResult carve,
                        Carver(baseline.config).Carve(image));
  entry->expect_pages = carve.pages.size();
  entry->expect_checksum_failures = carve.stats.checksum_failures;
  entry->expect_records = carve.records.size();
  entry->expect_deleted = carve.CountRecords(RowStatus::kDeleted);
  entry->expect_index_entries = carve.index_entries.size();
  entry->expect_catalog_entries = carve.catalog_entries.size();
  entry->expect_schemas = carve.schemas.size();
  if (!entry->confusion_dialect.empty()) {
    DBFA_ASSIGN_OR_RETURN(CarverConfig wrong,
                          ConfigForDialect(entry->confusion_dialect));
    DBFA_ASSIGN_OR_RETURN(CarveResult cross, Carver(wrong).Carve(image));
    entry->confusion_pages = cross.pages.size();
    entry->confusion_records = cross.records.size();
  }
  return image;
}

Result<size_t> WriteCuratedCorpus(const std::string& dir, uint64_t seed) {
  struct Spec {
    const char* name;
    const char* dialect;
    const char* mutations;  // MutationListFromString form
    const char* note;
    const char* confusion;  // "" = none
  };
  // One entry per mutator class across the dialect spread, the
  // wiped+checksum-repaired and dialect-confusion cases the acceptance
  // bar names, plus stacked combinations that once exposed real bugs
  // (slot_corrupt drove GetSlot out of bounds before SlotInBounds).
  const Spec specs[] = {
      {"oracle_torn_tail", "oracle_like", "truncate:101",
       "final page truncated mid-record", ""},
      {"mysql_torn_page", "mysql_like", "torn_page:202",
       "interior page torn halfway through a sector write", ""},
      {"postgres_bit_flips", "postgres_like", "bit_flip_random:303",
       "random bit flips across the image", ""},
      {"sqlite_header_flip", "sqlite_like", "header_flip:404",
       "header field scribbled, checksum sometimes repaired", ""},
      {"db2_slot_corrupt", "db2_like", "slot_corrupt:505",
       "forged record count: the GetSlot out-of-bounds regression", ""},
      {"sqlserver_length_overflow", "sqlserver_like", "length_overflow:606",
       "overflowing record-length and slot-offset fields", ""},
      {"firebird_garbage_splice", "firebird_like", "garbage_splice:707",
       "unaligned printable garbage over live pages", ""},
      {"derby_page_swap", "derby_like", "page_swap:808",
       "two pages swapped: out-of-order sector writes", ""},
      {"postgres_wipe_repair", "postgres_like", "wipe_repair:909",
       "antiforensic wipe with checksum repair (Section II-D)", ""},
      {"oracle_wipe_then_flip", "oracle_like",
       "wipe_repair:111,bit_flip_random:222",
       "wiped image further damaged by bit flips", ""},
      {"mysql_steg_inject", "mysql_like", "steg_inject:333",
       "forged hidden row injected through the real formatter", ""},
      {"sqlite_truncate_flip", "sqlite_like",
       "truncate:444,header_flip:555",
       "stacked truncation and header damage", ""},
      {"db2_slot_wipe_stack", "db2_like",
       "slot_corrupt:666,wipe_repair:777",
       "wiper over a slot-corrupted page (hostile input to our own tool)",
       ""},
      {"derby_steg_torn", "derby_like", "steg_inject:888,torn_page:999",
       "hidden row then torn page", ""},
      {"postgres_vs_mysql_confusion", "postgres_like", "bit_flip_random:12",
       "dialect confusion: postgres image under the mysql config",
       "mysql_like"},
      {"oracle_vs_sqlite_confusion", "oracle_like", "wipe_repair:34",
       "dialect confusion: wiped oracle image under the sqlite config",
       "sqlite_like"},
  };

  size_t written = 0;
  for (size_t i = 0; i < sizeof(specs) / sizeof(specs[0]); ++i) {
    const Spec& spec = specs[i];
    CorpusEntry entry;
    entry.name = spec.name;
    entry.dialect = spec.dialect;
    DBFA_ASSIGN_OR_RETURN(entry.mutations,
                          MutationListFromString(spec.mutations));
    entry.note = spec.note;
    entry.confusion_dialect = spec.confusion;
    // Small workloads keep committed images in the tens of kilobytes.
    DBFA_ASSIGN_OR_RETURN(
        Bytes image,
        RealizeCorpusEntry(&entry, seed + i, /*workload_rows=*/12,
                           /*workload_ops=*/24));
    DBFA_RETURN_IF_ERROR(SaveCorpusEntry(dir, entry, image));
    ++written;
  }
  return written;
}

}  // namespace dbfa
