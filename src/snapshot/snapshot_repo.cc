#include "snapshot/snapshot_repo.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/checksum.h"
#include "common/file_io.h"
#include "common/strings.h"
#include "core/config_io.h"
#include "core/page_scanner.h"

namespace dbfa {
namespace {

constexpr const char* kRepoMetaHeader = "dbfa-snapshot-repo v1";
constexpr const char* kManifestHeader = "dbfa-snapshot-manifest v1";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// ---- Report types --------------------------------------------------------

std::string SnapshotInfo::ToString() const {
  return StrFormat("snapshot %llu: %zu bytes, %zu pages",
                   static_cast<unsigned long long>(id), image_size,
                   page_count);
}

double IngestStats::ThroughputMBps() const {
  double secs = TotalSeconds();
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(image_bytes) / (1024.0 * 1024.0) / secs;
}

std::string IngestStats::ToString() const {
  return StrFormat(
      "snapshot %llu: %zu pages (%zu reused, %zu new), artifacts %zu cached "
      "/ %zu carved, %.3fs detect + %.3fs catalog + %.3fs content = %.3fs "
      "(%.1f MB/s)",
      static_cast<unsigned long long>(snapshot_id), pages_total, pages_reused,
      pages_new, artifacts_reused, artifacts_carved, detect_seconds,
      catalog_seconds, content_seconds, TotalSeconds(), ThroughputMBps());
}

std::string SnapshotDiff::ToString() const {
  std::string out = StrFormat(
      "diff %llu -> %llu: %zu added, %zu changed, %zu vanished\n",
      static_cast<unsigned long long>(base_id),
      static_cast<unsigned long long>(target_id), added.size(),
      changed.size(), vanished.size());
  for (const PageRef& r : added) {
    out += StrFormat("  + object %u page %u  %s\n", r.object_id, r.page_id,
                     r.hash.ToHex().c_str());
  }
  for (const PageChange& c : changed) {
    out += StrFormat("  ~ object %u page %u  %s -> %s\n", c.object_id,
                     c.page_id, c.base_hash.ToHex().c_str(),
                     c.target_hash.ToHex().c_str());
  }
  for (const PageRef& r : vanished) {
    out += StrFormat("  - object %u page %u  %s\n", r.object_id, r.page_id,
                     r.hash.ToHex().c_str());
  }
  return out;
}

std::string RecordHistory::ToString() const {
  if (first_seen == 0) {
    return StrFormat("record of %s: never seen", table.c_str());
  }
  std::string out = StrFormat(
      "record of %s: first seen in snapshot %llu, last seen in %llu, "
      "present in %zu snapshot(s)",
      table.c_str(), static_cast<unsigned long long>(first_seen),
      static_cast<unsigned long long>(last_seen), seen_in.size());
  return out;
}

std::string IncrementalDetection::ToString() const {
  std::string out = StrFormat(
      "incremental detection %llu -> %llu: %zu page(s) re-matched, %zu "
      "record(s) (%zu deleted, %zu active checked), %zu unattributed\n",
      static_cast<unsigned long long>(base_id),
      static_cast<unsigned long long>(target_id), pages_rematched,
      records_rematched, deleted_checked, active_checked,
      modifications.size());
  for (const UnattributedModification& m : modifications) {
    out += "  " + m.ToString() + "\n";
  }
  return out;
}

// ---- Repository lifecycle ------------------------------------------------

SnapshotRepo::SnapshotRepo(std::string dir, CarverConfig config,
                           CarveOptions options)
    : dir_(std::move(dir)),
      config_(std::move(config)),
      options_(options),
      carver_(config_, options_) {}

Result<std::unique_ptr<SnapshotRepo>> SnapshotRepo::Create(
    const std::string& dir, const CarverConfig& config,
    CarveOptions options) {
  DBFA_RETURN_IF_ERROR(config.params.Validate());
  std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root / "snapshots", ec);
  if (ec) {
    return Status::IoError(
        StrFormat("snapshot repo: cannot create %s", dir.c_str()));
  }
  std::string meta_path = (root / "repo.meta").string();
  if (std::filesystem::exists(meta_path)) {
    return Status::AlreadyExists(
        StrFormat("snapshot repo: %s already holds a repository",
                  dir.c_str()));
  }
  DBFA_ASSIGN_OR_RETURN(RepoLock lock, RepoLock::Acquire(dir));
  std::string meta = StrFormat(
      "%s\nscan_step %zu\nparse_bad_checksum_pages %d\nraw_scan_fallback "
      "%d\n",
      kRepoMetaHeader, options.scan_step,
      options.parse_bad_checksum_pages ? 1 : 0,
      options.raw_scan_fallback ? 1 : 0);
  DBFA_RETURN_IF_ERROR(WriteFile(meta_path, meta));
  DBFA_RETURN_IF_ERROR(SaveConfig((root / "carver.conf").string(), config));

  std::unique_ptr<SnapshotRepo> repo(new SnapshotRepo(dir, config, options));
  repo->lock_ = std::move(lock);
  DBFA_ASSIGN_OR_RETURN(
      repo->page_store_,
      PageStore::Open((root / "pages.bin").string(), config.params.page_size));
  DBFA_ASSIGN_OR_RETURN(repo->artifact_cache_,
                        ArtifactCache::Open((root / "artifacts.bin").string()));
  return repo;
}

Result<std::unique_ptr<SnapshotRepo>> SnapshotRepo::Open(
    const std::string& dir, size_t num_threads) {
  std::filesystem::path root(dir);
  DBFA_ASSIGN_OR_RETURN(std::string meta,
                        ReadFile((root / "repo.meta").string()));
  std::vector<std::string> lines = Split(meta, '\n');
  if (lines.empty() || Trim(lines[0]) != kRepoMetaHeader) {
    return Status::Corruption("snapshot repo: unrecognized repo.meta header");
  }
  CarveOptions options;
  options.num_threads = num_threads;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(std::string(line), ' ');
    uint64_t v = 0;
    if (parts.size() != 2 || !ParseU64(parts[1], &v)) {
      return Status::Corruption(
          StrFormat("snapshot repo: bad repo.meta line %zu", i + 1));
    }
    if (parts[0] == "scan_step") {
      options.scan_step = static_cast<size_t>(v);
    } else if (parts[0] == "parse_bad_checksum_pages") {
      options.parse_bad_checksum_pages = v != 0;
    } else if (parts[0] == "raw_scan_fallback") {
      options.raw_scan_fallback = v != 0;
    } else {
      return Status::Corruption(
          StrFormat("snapshot repo: unknown repo.meta key '%s'",
                    parts[0].c_str()));
    }
  }

  DBFA_ASSIGN_OR_RETURN(std::string conf,
                        ReadFile((root / "carver.conf").string()));
  DBFA_ASSIGN_OR_RETURN(CarverConfig config, ConfigFromText(conf));

  // Lock after the meta probe (so opening a non-repository directory stays
  // a NotFound-style failure, not a stray lock file) but before touching
  // the mutable files below.
  DBFA_ASSIGN_OR_RETURN(RepoLock lock, RepoLock::Acquire(dir));
  std::unique_ptr<SnapshotRepo> repo(new SnapshotRepo(dir, config, options));
  repo->lock_ = std::move(lock);
  DBFA_ASSIGN_OR_RETURN(
      repo->page_store_,
      PageStore::Open((root / "pages.bin").string(), config.params.page_size));
  DBFA_ASSIGN_OR_RETURN(repo->artifact_cache_,
                        ArtifactCache::Open((root / "artifacts.bin").string()));
  DBFA_RETURN_IF_ERROR(repo->LoadManifests());
  return repo;
}

Status SnapshotRepo::LoadManifests() {
  std::filesystem::path snap_dir = std::filesystem::path(dir_) / "snapshots";
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(snap_dir, ec)) {
    if (entry.path().extension() == ".manifest") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("snapshot repo: cannot list snapshots directory");
  }

  for (const std::string& path : paths) {
    DBFA_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    std::vector<std::string> lines = Split(text, '\n');
    if (lines.empty() || Trim(lines[0]) != kManifestHeader) {
      return Status::Corruption(
          StrFormat("snapshot manifest %s: bad header", path.c_str()));
    }
    Snapshot snap;
    uint64_t page_count = 0;
    bool saw_end = false;
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string_view line = Trim(lines[i]);
      if (line.empty()) continue;
      if (saw_end) {
        return Status::Corruption(
            StrFormat("snapshot manifest %s: content after end marker",
                      path.c_str()));
      }
      if (line == "end") {
        saw_end = true;
        continue;
      }
      std::vector<std::string> parts = Split(std::string(line), ' ');
      auto bad_line = [&]() {
        return Status::Corruption(StrFormat("snapshot manifest %s: bad line %zu",
                                            path.c_str(), i + 1));
      };
      if (parts[0] == "id") {
        if (parts.size() != 2 || !ParseU64(parts[1], &snap.id)) {
          return bad_line();
        }
      } else if (parts[0] == "image_size") {
        uint64_t v = 0;
        if (parts.size() != 2 || !ParseU64(parts[1], &v)) return bad_line();
        snap.image_size = static_cast<size_t>(v);
      } else if (parts[0] == "page_count") {
        if (parts.size() != 2 || !ParseU64(parts[1], &page_count)) {
          return bad_line();
        }
      } else if (parts[0] == "page") {
        uint64_t offset = 0;
        uint64_t crc = 0;
        if (parts.size() != 4 || !ParseU64(parts[1], &offset) ||
            !ParseU64(parts[2], &crc) || crc > 0xFFFFFFFFull) {
          return bad_line();
        }
        DBFA_ASSIGN_OR_RETURN(PageHash hash, PageHash::FromHex(parts[3]));
        const PageStore::Stored* stored = page_store_->Find(hash);
        if (stored == nullptr) {
          return Status::Corruption(
              StrFormat("snapshot manifest %s: page %s missing from store",
                        path.c_str(), hash.ToHex().c_str()));
        }
        if (stored->entry.crc != crc) {
          return Status::Corruption(
              StrFormat("snapshot manifest %s: page %s CRC disagrees with "
                        "the page store",
                        path.c_str(), hash.ToHex().c_str()));
        }
        snap.offsets.push_back(static_cast<size_t>(offset));
        snap.pages.push_back(stored);
      } else {
        return bad_line();
      }
    }
    if (!saw_end) {
      return Status::Corruption(
          StrFormat("snapshot manifest %s: truncated (no end marker)",
                    path.c_str()));
    }
    if (snap.id == 0 || snap.pages.size() != page_count) {
      return Status::Corruption(
          StrFormat("snapshot manifest %s: page count mismatch",
                    path.c_str()));
    }
    snapshots_.push_back(std::move(snap));
  }
  std::sort(snapshots_.begin(), snapshots_.end(),
            [](const Snapshot& a, const Snapshot& b) { return a.id < b.id; });
  for (size_t i = 1; i < snapshots_.size(); ++i) {
    if (snapshots_[i].id == snapshots_[i - 1].id) {
      return Status::Corruption(
          StrFormat("snapshot repo: duplicate snapshot id %llu",
                    static_cast<unsigned long long>(snapshots_[i].id)));
    }
  }
  return Status::Ok();
}

Status SnapshotRepo::WriteManifest(const Snapshot& snap) const {
  std::string text = StrFormat("%s\nid %llu\nimage_size %zu\npage_count %zu\n",
                               kManifestHeader,
                               static_cast<unsigned long long>(snap.id),
                               snap.image_size, snap.pages.size());
  // One line per page; vsnprintf per line is measurable on a big image.
  text.reserve(text.size() + snap.pages.size() * 64 + 8);
  char digits[24];
  auto append_u64 = [&](uint64_t v) {
    auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), v);
    (void)ec;
    text.append(digits, ptr);
  };
  for (size_t i = 0; i < snap.pages.size(); ++i) {
    text += "page ";
    append_u64(snap.offsets[i]);
    text += ' ';
    append_u64(snap.pages[i]->entry.crc);
    text += ' ';
    text += snap.pages[i]->entry.hash.ToHex();
    text += '\n';
  }
  text += "end\n";
  std::filesystem::path dir = std::filesystem::path(dir_) / "snapshots";
  std::string name = StrFormat("%llu.manifest",
                               static_cast<unsigned long long>(snap.id));
  // The rename is the snapshot's commit point: store blocks appended by a
  // crashed ingest are unreferenced, never dangling.
  return CommitFile((dir / name).string(), text);
}

std::string FsckIssue::ToString() const {
  return StrFormat("%s: %s", file.c_str(), detail.c_str());
}

std::string FsckReport::ToString() const {
  std::string out = StrFormat(
      "fsck: %s (%zu pages, %zu artifacts, %zu manifests checked)\n",
      Clean() ? "clean" : StrFormat("%zu corruption(s)", issues.size()).c_str(),
      pages_checked, artifacts_checked, manifests_checked);
  for (const FsckIssue& issue : issues) {
    out += "  " + issue.ToString() + "\n";
  }
  return out;
}

Result<FsckReport> SnapshotRepo::Fsck(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::path root(dir);
  // Hold the repository lock so a concurrent ingest cannot append while the
  // scan walks the stores (a torn tail would read as corruption).
  DBFA_ASSIGN_OR_RETURN(RepoLock lock, RepoLock::Acquire(dir));
  FsckReport report;
  auto issue = [&report](const char* file, std::string detail) {
    report.issues.push_back({file, std::move(detail)});
  };

  // repo.meta: header plus "key value" option lines.
  auto meta = ReadFile((root / "repo.meta").string());
  if (!meta.ok()) {
    issue("repo.meta", meta.status().ToString());
  } else {
    std::vector<std::string> lines = Split(*meta, '\n');
    if (lines.empty() || Trim(lines[0]) != kRepoMetaHeader) {
      issue("repo.meta", "bad header (not a dbfa snapshot repository?)");
    } else {
      for (size_t i = 1; i < lines.size(); ++i) {
        std::string_view line = Trim(lines[i]);
        if (line.empty()) continue;
        std::vector<std::string> parts = Split(std::string(line), ' ');
        uint64_t v = 0;
        if (parts.size() != 2 || !ParseU64(parts[1], &v)) {
          issue("repo.meta", StrFormat("bad line %zu", i + 1));
        }
      }
    }
  }

  // carver.conf: must parse; its page size drives the page-store checks.
  size_t page_size = 0;
  auto conf = ReadFile((root / "carver.conf").string());
  if (!conf.ok()) {
    issue("carver.conf", conf.status().ToString());
  } else {
    auto config = ConfigFromText(*conf);
    if (!config.ok()) {
      issue("carver.conf", config.status().ToString());
    } else {
      page_size = config.value().params.page_size;
    }
  }

  // Walks one store's block framing, handing each payload to `check`,
  // which reports its own issues and returns whether the entry counts as
  // checked. A framing failure ends the walk — byte boundaries downstream
  // of it are meaningless.
  auto walk_blocks = [&](const char* file, size_t* checked, auto&& check) {
    Status walked = ScanBlocks(
        (root / file).string(), [&](uint64_t, const std::string& payload) {
          if (check(payload)) ++*checked;
          return Status::Ok();
        });
    if (!walked.ok()) {
      issue(file,
            StrFormat("block %zu: %s", *checked, walked.ToString().c_str()));
    }
  };

  // pages.bin: verify each entry's stored CRC-32 and content hash against
  // the page bytes it carries (the in-memory index PageStore::Open builds
  // is derived from exactly these entries, so a clean scan certifies
  // index<->file consistency).
  std::unordered_map<std::string, uint32_t> stored_pages;  // hash hex -> crc
  walk_blocks("pages.bin", &report.pages_checked,
              [&](const std::string& payload) {
    if (page_size == 0) return false;  // cannot decode without the config
    PageStoreEntry entry;
    size_t page_bytes = 0;
    Status decoded = DecodePageEntry(payload, page_size, &entry, &page_bytes);
    if (!decoded.ok()) {
      issue("pages.bin", StrFormat("entry %zu: %s", report.pages_checked,
                                   decoded.ToString().c_str()));
      return false;
    }
    Bytes page_copy(payload.begin() + static_cast<ptrdiff_t>(page_bytes),
                    payload.end());
    ByteView page(page_copy);
    if (Crc32(page) != entry.crc) {
      issue("pages.bin",
            StrFormat("entry %zu (%s): stored CRC-32 does not match the "
                      "page bytes",
                      report.pages_checked, entry.hash.ToHex().c_str()));
    } else if (!(HashBytes(page) == entry.hash)) {
      issue("pages.bin",
            StrFormat("entry %zu: content hash does not match the page "
                      "bytes (claims %s)",
                      report.pages_checked, entry.hash.ToHex().c_str()));
    } else if (!stored_pages.emplace(entry.hash.ToHex(), entry.crc).second) {
      issue("pages.bin",
            StrFormat("entry %zu (%s): duplicate page entry (the store "
                      "index would collapse them)",
                      report.pages_checked, entry.hash.ToHex().c_str()));
    }
    return true;
  });

  // artifacts.bin: every block must frame and decode as an artifact entry.
  walk_blocks("artifacts.bin", &report.artifacts_checked,
              [&](const std::string& payload) {
    ArtifactKey key;
    PageArtifacts page_artifacts;
    Status decoded = DecodeArtifactEntry(payload, &key, &page_artifacts);
    if (!decoded.ok()) {
      issue("artifacts.bin",
            StrFormat("entry %zu: %s", report.artifacts_checked,
                      decoded.ToString().c_str()));
      return false;
    }
    return true;
  });

  // Manifests: structural re-parse plus reachability — every referenced
  // page must exist in the page store with the same CRC.
  std::error_code ec;
  std::vector<std::string> manifest_paths;
  for (const auto& entry :
       fs::directory_iterator(root / "snapshots", ec)) {
    if (entry.path().extension() == ".manifest") {
      manifest_paths.push_back(entry.path().string());
    }
  }
  if (ec) issue("snapshots", "cannot list the snapshots directory");
  std::sort(manifest_paths.begin(), manifest_paths.end());
  for (const std::string& path : manifest_paths) {
    std::string name = fs::path(path).filename().string();
    auto manifest_issue = [&report, &name](std::string detail) {
      report.issues.push_back({name, std::move(detail)});
    };
    auto text = ReadFile(path);
    if (!text.ok()) {
      manifest_issue(text.status().ToString());
      continue;
    }
    std::vector<std::string> lines = Split(*text, '\n');
    if (lines.empty() || Trim(lines[0]) != kManifestHeader) {
      manifest_issue("bad header");
      continue;
    }
    uint64_t id = 0;
    uint64_t page_count = 0;
    size_t pages_listed = 0;
    bool saw_end = false;
    bool structure_ok = true;
    for (size_t i = 1; i < lines.size() && structure_ok; ++i) {
      std::string_view line = Trim(lines[i]);
      if (line.empty()) continue;
      if (saw_end) {
        manifest_issue("content after end marker");
        structure_ok = false;
        break;
      }
      if (line == "end") {
        saw_end = true;
        continue;
      }
      std::vector<std::string> parts = Split(std::string(line), ' ');
      auto bad_line = [&]() {
        manifest_issue(StrFormat("bad line %zu", i + 1));
        structure_ok = false;
      };
      if (parts[0] == "id") {
        if (parts.size() != 2 || !ParseU64(parts[1], &id)) bad_line();
      } else if (parts[0] == "image_size") {
        uint64_t v = 0;
        if (parts.size() != 2 || !ParseU64(parts[1], &v)) bad_line();
      } else if (parts[0] == "page_count") {
        if (parts.size() != 2 || !ParseU64(parts[1], &page_count)) {
          bad_line();
        }
      } else if (parts[0] == "page") {
        uint64_t offset = 0;
        uint64_t crc = 0;
        if (parts.size() != 4 || !ParseU64(parts[1], &offset) ||
            !ParseU64(parts[2], &crc) || crc > 0xFFFFFFFFull) {
          bad_line();
          continue;
        }
        auto hash = PageHash::FromHex(parts[3]);
        if (!hash.ok()) {
          bad_line();
          continue;
        }
        ++pages_listed;
        auto stored = stored_pages.find(hash.value().ToHex());
        if (stored == stored_pages.end()) {
          manifest_issue(StrFormat(
              "page %s is not reachable in the page store", parts[3].c_str()));
        } else if (stored->second != static_cast<uint32_t>(crc)) {
          manifest_issue(StrFormat(
              "page %s: manifest CRC %llu disagrees with the page store",
              parts[3].c_str(), static_cast<unsigned long long>(crc)));
        }
      } else {
        bad_line();
      }
    }
    if (structure_ok && !saw_end) manifest_issue("truncated (no end marker)");
    if (structure_ok && saw_end && pages_listed != page_count) {
      manifest_issue(StrFormat("page_count %llu but %zu page lines",
                               static_cast<unsigned long long>(page_count),
                               pages_listed));
    }
    if (structure_ok && saw_end && id == 0) manifest_issue("missing id");
    ++report.manifests_checked;
  }
  return report;
}

const SnapshotRepo::Snapshot* SnapshotRepo::FindSnapshot(uint64_t id) const {
  for (const Snapshot& s : snapshots_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

ThreadPool* SnapshotRepo::Pool() {
  size_t n = options_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                       : options_.num_threads;
  if (n <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(n);
  return pool_.get();
}

SnapshotRepo::ContextSet SnapshotRepo::BuildContexts(
    const CarveResult& base) const {
  ContextSet contexts;
  contexts.schema.reserve(base.schemas.size());
  for (const auto& [object_id, schema] : base.schemas) {
    contexts.schema.emplace(object_id,
                            HashString("schema:" + schema.Serialize()));
  }
  contexts.untyped = HashString("untyped");
  contexts.index = HashString("index");
  return contexts;
}

bool SnapshotRepo::ContextFor(const CarveResult& base,
                              const ContextSet& contexts, size_t i,
                              PageHash* context) const {
  const CarvedPage& meta = base.pages[i];
  if (!meta.checksum_ok && !options_.parse_bad_checksum_pages) return false;
  switch (meta.type) {
    case PageType::kData: {
      if (meta.object_id == config_.catalog_object_id) return false;
      auto it = contexts.schema.find(meta.object_id);
      *context = it != contexts.schema.end() ? it->second : contexts.untyped;
      return true;
    }
    case PageType::kIndexLeaf:
    case PageType::kIndexInternal:
      *context = contexts.index;
      return true;
    case PageType::kFree:
      return false;
  }
  return false;
}

// ---- Ingest --------------------------------------------------------------

Result<IngestStats> SnapshotRepo::Ingest(ByteView image) {
  const PageLayoutParams& p = config_.params;
  if (image.empty()) {
    return Status::InvalidArgument("snapshot repo: empty image");
  }

  IngestStats stats;
  stats.snapshot_id = snapshots_.empty() ? 1 : snapshots_.back().id + 1;
  stats.image_bytes = image.size();

  CarveResult result;
  result.dialect = p.dialect;
  result.image_size = image.size();
  result.stats.bytes_scanned = image.size();

  Snapshot snap;
  snap.id = stats.snapshot_id;
  snap.image_size = image.size();

  // Pass 1: page detection on the repository pool, store first. Whether a
  // window is a page, and its page metadata, depend only on its bytes, so
  // a stored page (same bytes, accepted before) reuses its stored metadata
  // without being probed or having its checksum verified again. The scan
  // only reads the store; new pages are stored below, in page order.
  struct Found {
    CarvedPage meta;
    PageHash hash;
    const PageStore::Stored* stored;
  };
  auto probe = [&](size_t offset) -> std::optional<Found> {
    const uint8_t* window = image.data() + offset;
    if (std::memcmp(window + p.magic_offset, p.magic.data(),
                    p.magic.size()) != 0) {
      return std::nullopt;
    }
    PageHash hash = HashBytes(ByteView(window, p.page_size));
    if (const PageStore::Stored* stored = page_store_->Find(hash)) {
      CarvedPage meta = stored->entry.meta;
      meta.image_offset = offset;
      return Found{meta, hash, stored};
    }
    std::optional<CarvedPage> carved = carver_.ProbePage(image, offset);
    if (!carved.has_value()) return std::nullopt;
    return Found{*carved, hash, nullptr};
  };
  auto detect_start = std::chrono::steady_clock::now();
  std::vector<Found> found =
      PageScanner(image.size(), p.page_size, options_)
          .Scan<Found>(Pool(), probe, &result.stats.pages_probed);

  result.pages.reserve(found.size());
  snap.offsets.reserve(found.size());
  snap.pages.reserve(found.size());
  for (const Found& f : found) {
    // A page new to the store may have been stored by an earlier copy of
    // itself in this same capture.
    const PageStore::Stored* stored =
        f.stored != nullptr ? f.stored : page_store_->Find(f.hash);
    if (stored != nullptr) {
      ++stats.pages_reused;
    } else {
      ByteView page_bytes = image.Slice(f.meta.image_offset, p.page_size);
      DBFA_ASSIGN_OR_RETURN(
          stored,
          page_store_->Put({f.hash, Crc32(page_bytes), f.meta}, page_bytes));
      ++stats.pages_new;
    }
    if (!f.meta.checksum_ok) ++result.stats.checksum_failures;
    result.pages.push_back(f.meta);
    snap.offsets.push_back(f.meta.image_offset);
    snap.pages.push_back(stored);
  }
  result.stats.pages_accepted = result.pages.size();
  stats.pages_total = result.pages.size();
  result.stats.detect_seconds = SecondsSince(detect_start);
  stats.detect_seconds = result.stats.detect_seconds;

  // Pass 2: catalog — always from the image (it is a tiny fraction of any
  // realistic capture, and the schemas it yields feed the cache contexts).
  auto catalog_start = std::chrono::steady_clock::now();
  carver_.CarveCatalog(image, &result);
  result.stats.catalog_seconds = SecondsSince(catalog_start);
  stats.catalog_seconds = result.stats.catalog_seconds;

  // Passes 3-4: content. Ingest only needs to make sure every page's
  // artifacts exist in the cache — AssembleCarve is what materializes a
  // carve from them — so cached pages cost one index lookup and only
  // misses decode (page-parallel), publishing in canonical form
  // (page_index 0, re-stamped at assembly).
  auto content_start = std::chrono::steady_clock::now();
  size_t n = result.pages.size();
  ContextSet context_set = BuildContexts(result);
  std::vector<PageArtifacts> slots(n);
  std::vector<PageHash> contexts(n);
  std::vector<size_t> misses;
  for (size_t i = 0; i < n; ++i) {
    if (!ContextFor(result, context_set, i, &contexts[i])) continue;
    ArtifactKey key{snap.pages[i]->entry.hash, contexts[i]};
    if (artifact_cache_->Contains(key)) {
      ++stats.artifacts_reused;
    } else {
      misses.push_back(i);
      ++stats.artifacts_carved;
    }
  }

  auto decode_one = [&](size_t i) {
    carver_.CarveContentRange(image, result, i, i + 1, &slots[i].records,
                              &slots[i].index_entries);
  };
  if (ThreadPool* pool = misses.size() > 1 ? Pool() : nullptr) {
    pool->ParallelFor(misses.size(),
                      [&](size_t k) { decode_one(misses[k]); });
  } else {
    for (size_t i : misses) decode_one(i);
  }

  for (size_t i : misses) {
    PageArtifacts canonical = std::move(slots[i]);
    for (CarvedRecord& r : canonical.records) r.page_index = 0;
    for (CarvedIndexEntry& e : canonical.index_entries) e.page_index = 0;
    ArtifactKey key{snap.pages[i]->entry.hash, contexts[i]};
    DBFA_RETURN_IF_ERROR(artifact_cache_->Put(key, canonical));
  }
  result.stats.content_seconds = SecondsSince(content_start);
  stats.content_seconds = result.stats.content_seconds;

  DBFA_RETURN_IF_ERROR(WriteManifest(snap));
  snapshots_.push_back(std::move(snap));
  return stats;
}

// ---- Queries -------------------------------------------------------------

std::vector<SnapshotInfo> SnapshotRepo::List() const {
  std::vector<SnapshotInfo> out;
  out.reserve(snapshots_.size());
  for (const Snapshot& s : snapshots_) {
    out.push_back({s.id, s.image_size, s.pages.size()});
  }
  return out;
}

Result<CarveResult> SnapshotRepo::AssembleCarve(uint64_t id) {
  const Snapshot* snap = FindSnapshot(id);
  if (snap == nullptr) {
    return Status::NotFound(StrFormat(
        "snapshot %llu not in repository", static_cast<unsigned long long>(id)));
  }
  std::vector<size_t> every_page(snap->pages.size());
  std::iota(every_page.begin(), every_page.end(), size_t{0});
  return Assemble(*snap, every_page);
}

Result<CarveResult> SnapshotRepo::Assemble(
    const Snapshot& snap, const std::vector<size_t>& content_pages) {
  const PageLayoutParams& p = config_.params;

  auto page_list_start = std::chrono::steady_clock::now();
  CarveResult result;
  result.dialect = p.dialect;
  result.image_size = snap.image_size;
  result.stats.bytes_scanned = snap.image_size;
  result.pages.reserve(snap.pages.size());
  for (size_t i = 0; i < snap.pages.size(); ++i) {
    CarvedPage meta = snap.pages[i]->entry.meta;
    meta.image_offset = snap.offsets[i];
    if (!meta.checksum_ok) ++result.stats.checksum_failures;
    result.pages.push_back(meta);
  }
  result.stats.pages_probed = result.pages.size();
  result.stats.pages_accepted = result.pages.size();
  result.stats.detect_seconds = SecondsSince(page_list_start);

  // Catalog pass over a compact image holding only the catalog pages,
  // back-to-back in page order — CarveCatalog visits pages in list order,
  // so the entries come out exactly as they would from the full image.
  auto catalog_start = std::chrono::steady_clock::now();
  CarveResult tmp;
  tmp.pages = result.pages;
  std::string compact;
  for (size_t i = 0; i < tmp.pages.size(); ++i) {
    if (tmp.pages[i].object_id != config_.catalog_object_id ||
        tmp.pages[i].type != PageType::kData) {
      continue;
    }
    Bytes page;
    DBFA_RETURN_IF_ERROR(page_store_->ReadPage(*snap.pages[i], &page));
    tmp.pages[i].image_offset = compact.size();
    compact.append(AsStringView(ByteView(page)));
  }
  carver_.CarveCatalog(AsByteView(compact), &tmp);
  result.catalog_entries = std::move(tmp.catalog_entries);
  result.schemas = std::move(tmp.schemas);
  result.indexes = std::move(tmp.indexes);
  result.dropped_objects = std::move(tmp.dropped_objects);
  result.stats.catalog_seconds = SecondsSince(catalog_start);

  // Content of the requested pages from the artifact cache; a miss (a
  // repository whose cache file was rebuilt or pruned) falls back to a
  // single-page decode from the page store.
  auto content_start = std::chrono::steady_clock::now();
  ContextSet context_set = BuildContexts(result);
  CarveResult one;  // reusable single-page decode base
  one.dialect = result.dialect;
  one.schemas = result.schemas;
  one.pages.resize(1);
  for (size_t i : content_pages) {
    PageHash context;
    if (!ContextFor(result, context_set, i, &context)) continue;
    ArtifactKey key{snap.pages[i]->entry.hash, context};
    DBFA_ASSIGN_OR_RETURN(std::shared_ptr<const PageArtifacts> cached,
                          artifact_cache_->Get(key));
    const PageArtifacts* arts = cached.get();
    PageArtifacts decoded;
    if (arts == nullptr) {
      Bytes page;
      DBFA_RETURN_IF_ERROR(page_store_->ReadPage(*snap.pages[i], &page));
      one.pages[0] = result.pages[i];
      one.pages[0].image_offset = 0;
      carver_.CarveContentRange(ByteView(page), one, 0, 1, &decoded.records,
                                &decoded.index_entries);
      DBFA_RETURN_IF_ERROR(artifact_cache_->Put(key, decoded));
      arts = &decoded;
    }
    for (const CarvedRecord& r : arts->records) {
      result.records.push_back(r);
      result.records.back().page_index = i;
    }
    for (const CarvedIndexEntry& e : arts->index_entries) {
      result.index_entries.push_back(e);
      result.index_entries.back().page_index = i;
    }
  }
  result.stats.content_seconds = SecondsSince(content_start);
  return result;
}

Result<SnapshotDiff> SnapshotRepo::Diff(uint64_t base_id,
                                        uint64_t target_id) const {
  const Snapshot* base = FindSnapshot(base_id);
  const Snapshot* target = FindSnapshot(target_id);
  if (base == nullptr || target == nullptr) {
    return Status::NotFound("diff: unknown snapshot id");
  }
  SnapshotDiff diff;
  diff.base_id = base_id;
  diff.target_id = target_id;

  // Pages keyed by identity (object_id, page_id); several pages may share
  // an identity (e.g. stale copies in unallocated space), so identities map
  // to hash lists in image order and compare positionally.
  using Identity = std::pair<uint32_t, uint32_t>;
  using Group = std::map<Identity, std::vector<const PageStore::Stored*>>;
  auto group = [](const Snapshot& s) {
    Group g;
    for (const PageStore::Stored* page : s.pages) {
      g[{page->entry.meta.object_id, page->entry.meta.page_id}].push_back(
          page);
    }
    return g;
  };
  Group base_groups = group(*base);
  Group target_groups = group(*target);

  for (const auto& [key, target_pages] : target_groups) {
    auto it = base_groups.find(key);
    size_t base_count = it == base_groups.end() ? 0 : it->second.size();
    for (size_t k = 0; k < target_pages.size(); ++k) {
      const PageStoreEntry& e = target_pages[k]->entry;
      if (k >= base_count) {
        diff.added.push_back({e.meta.object_id, e.meta.page_id, e.hash});
      } else if (!(it->second[k]->entry.hash == e.hash)) {
        diff.changed.push_back({e.meta.object_id, e.meta.page_id,
                                it->second[k]->entry.hash, e.hash});
      }
    }
  }
  for (const auto& [key, base_pages] : base_groups) {
    auto it = target_groups.find(key);
    size_t target_count = it == target_groups.end() ? 0 : it->second.size();
    for (size_t k = target_count; k < base_pages.size(); ++k) {
      const PageStoreEntry& e = base_pages[k]->entry;
      diff.vanished.push_back({e.meta.object_id, e.meta.page_id, e.hash});
    }
  }
  return diff;
}

Result<RecordHistory> SnapshotRepo::History(const std::string& table,
                                            const Record& values) {
  RecordHistory history;
  history.table = table;
  history.values = values;
  for (const Snapshot& snap : snapshots_) {
    DBFA_ASSIGN_OR_RETURN(CarveResult carve, AssembleCarve(snap.id));
    uint32_t object_id = carve.ObjectIdByName(table);
    bool seen = false;
    for (const CarvedRecord& r : carve.records) {
      if (object_id != 0 && r.object_id != object_id) continue;
      if (r.values == values) {
        seen = true;
        break;
      }
    }
    if (seen) {
      if (history.first_seen == 0) history.first_seen = snap.id;
      history.last_seen = snap.id;
      history.seen_in.push_back(snap.id);
    }
  }
  return history;
}

Result<IncrementalDetection> SnapshotRepo::DetectIncremental(
    uint64_t base_id, uint64_t target_id, const AuditLog& log) {
  const Snapshot* base = base_id == 0 ? nullptr : FindSnapshot(base_id);
  const Snapshot* target = FindSnapshot(target_id);
  if ((base_id != 0 && base == nullptr) || target == nullptr) {
    return Status::NotFound("incremental detection: unknown snapshot id");
  }

  // The delta: target pages whose content is not among the base's pages.
  // Base 0 has no pages, so every target page counts as changed.
  std::unordered_set<PageHash, PageHashHasher> base_hashes;
  if (base != nullptr) {
    base_hashes.reserve(base->pages.size() * 2);
    for (const PageStore::Stored* page : base->pages) {
      base_hashes.insert(page->entry.hash);
    }
  }
  std::vector<size_t> changed;
  for (size_t i = 0; i < target->pages.size(); ++i) {
    if (base_hashes.count(target->pages[i]->entry.hash) == 0) {
      changed.push_back(i);
    }
  }

  // Pages, catalog and schemas cover the whole target (page_index stays
  // valid); records are materialized for the delta only.
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, Assemble(*target, changed));
  IncrementalDetection out;
  out.base_id = base_id;
  out.target_id = target_id;
  out.pages_rematched = changed.size();
  out.records_rematched = carve.records.size();

  log_index_.Update(log);
  out.modifications = DbDetective::MatchModifications(
      carve, log_index_, &out.deleted_checked, &out.active_checked);
  return out;
}

Status SnapshotRepo::RegisterSnapshots(MetaQuerySession* session,
                                       const std::vector<uint64_t>& ids,
                                       std::vector<std::string>* skipped) {
  std::vector<uint64_t> all;
  if (ids.empty()) {
    for (const Snapshot& s : snapshots_) all.push_back(s.id);
  } else {
    all = ids;
  }
  for (uint64_t id : all) {
    DBFA_ASSIGN_OR_RETURN(CarveResult carve, AssembleCarve(id));
    std::string prefix =
        StrFormat("Snap%llu", static_cast<unsigned long long>(id));
    DBFA_RETURN_IF_ERROR(session->RegisterCarve(carve, prefix, skipped));
  }
  return Status::Ok();
}

}  // namespace dbfa
