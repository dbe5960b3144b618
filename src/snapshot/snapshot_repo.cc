#include "snapshot/snapshot_repo.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
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

// A repository is one block file (docs/snapshot_store.md).
constexpr const char* kRepoFile = "repo.bin";
// What builds before the one-file layout made: its first line names the
// format version.
constexpr const char* kOlderLayoutFile = "repo.meta";

constexpr std::string_view kRepoMetaPrefix = "dbfa-snapshot-repo v";
constexpr uint64_t kRepoFormatVersion = 2;
// Ends the header's option lines; the carver config (ConfigToText) follows.
constexpr std::string_view kConfigMarker = "\ncarver_config\n";
constexpr const char* kManifestHeader = "dbfa-snapshot-manifest v1";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string RepoFilePath(const std::string& dir) {
  return (std::filesystem::path(dir) / kRepoFile).string();
}

/// The header: the repository file's first block.
std::string HeaderText(const CarverConfig& config,
                       const CarveOptions& options) {
  return StrFormat(
      "%.*s%llu\nscan_step %zu\nparse_bad_checksum_pages %d\n"
      "raw_scan_fallback %d%.*s%s",
      static_cast<int>(kRepoMetaPrefix.size()), kRepoMetaPrefix.data(),
      static_cast<unsigned long long>(kRepoFormatVersion), options.scan_step,
      options.parse_bad_checksum_pages ? 1 : 0,
      options.raw_scan_fallback ? 1 : 0,
      static_cast<int>(kConfigMarker.size()), kConfigMarker.data(),
      ConfigToText(config).c_str());
}

/// Parses the header: the version line, "key value" option lines, then
/// the carver config. Unknown keys, malformed lines, an invalid config and
/// another format version are errors.
Status ParseHeader(const std::string& text, CarverConfig* config,
                   CarveOptions* options) {
  size_t marker = text.find(kConfigMarker);
  std::vector<std::string> lines =
      Split(std::string_view(text).substr(0, marker), '\n');
  std::string_view header = Trim(lines[0]);
  uint64_t version = 0;
  if (header.substr(0, kRepoMetaPrefix.size()) != kRepoMetaPrefix ||
      !ParseU64(header.substr(kRepoMetaPrefix.size()), &version)) {
    return Status::Corruption("snapshot repo: unrecognized header");
  }
  if (version != kRepoFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot repo: repository format v%llu is not supported (this "
        "build reads v%llu)",
        static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(kRepoFormatVersion)));
  }
  if (marker == std::string::npos) {
    return Status::Corruption("snapshot repo: header has no carver_config");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, ' ');
    uint64_t v = 0;
    if (parts.size() != 2 || !ParseU64(parts[1], &v)) {
      return Status::Corruption(
          StrFormat("snapshot repo: bad header line %zu", i + 1));
    }
    if (parts[0] == "scan_step") {
      options->scan_step = static_cast<size_t>(v);
    } else if (parts[0] == "parse_bad_checksum_pages") {
      options->parse_bad_checksum_pages = v != 0;
    } else if (parts[0] == "raw_scan_fallback") {
      options->raw_scan_fallback = v != 0;
    } else {
      return Status::Corruption(
          StrFormat("snapshot repo: unknown header key '%s'",
                    parts[0].c_str()));
    }
  }
  auto parsed = ConfigFromText(text.substr(marker + kConfigMarker.size()));
  Status valid = parsed.ok() ? parsed->params.Validate() : parsed.status();
  if (!valid.ok()) {
    return Status::Corruption(StrFormat(
        "snapshot repo: header carver_config: %s", valid.message().c_str()));
  }
  *config = std::move(parsed).value();
  return Status::Ok();
}

/// Reads and parses the header block of the open repository file.
Status ReadHeader(const BlockFile& file, CarverConfig* config,
                  CarveOptions* options) {
  std::string text;
  Status read = file.ReadAt(0, &text);
  if (!read.ok()) {
    // An empty file is a Create that died before its first append.
    return Status::Corruption(StrFormat(
        "snapshot repo: %s has no header block: %s", kRepoFile,
        read.message().c_str()));
  }
  return ParseHeader(text, config, options);
}

/// A directory that a build before the one-file layout made into a
/// repository is refused by the version its repo.meta names; Ok when the
/// directory holds no such file.
Status RefuseOlderLayout(const std::string& dir) {
  std::string path = (std::filesystem::path(dir) / kOlderLayoutFile).string();
  if (!std::filesystem::exists(path)) return Status::Ok();
  DBFA_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::string_view line =
      Trim(std::string_view(text).substr(0, text.find('\n')));
  uint64_t version = 0;
  if (line.substr(0, kRepoMetaPrefix.size()) != kRepoMetaPrefix ||
      !ParseU64(line.substr(kRepoMetaPrefix.size()), &version)) {
    return Status::Corruption(StrFormat(
        "snapshot repo: %s holds an unrecognized %s", dir.c_str(),
        kOlderLayoutFile));
  }
  return Status::FailedPrecondition(StrFormat(
      "snapshot repo: %s holds a repository of format v%llu (%s), which is "
      "not supported (this build reads v%llu, one %s file); re-create it",
      dir.c_str(), static_cast<unsigned long long>(version), kOlderLayoutFile,
      static_cast<unsigned long long>(kRepoFormatVersion), kRepoFile));
}

struct ManifestPage {
  size_t offset = 0;
  uint32_t crc = 0;
  PageHash hash;
};

/// One snapshot manifest, as parsed from its text.
struct Manifest {
  uint64_t id = 0;
  size_t image_size = 0;
  std::vector<ManifestPage> pages;
};

/// Parses a manifest's text; the error names the defect, not the file.
Status ParseManifest(std::string_view text, Manifest* out) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kManifestHeader) {
    return Status::Corruption("bad header");
  }
  uint64_t page_count = 0;
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    if (saw_end) return Status::Corruption("content after end marker");
    if (line == "end") {
      saw_end = true;
      continue;
    }
    std::vector<std::string> parts = Split(line, ' ');
    auto bad_line = [i]() {
      return Status::Corruption(StrFormat("bad line %zu", i + 1));
    };
    if (parts[0] == "id") {
      if (parts.size() != 2 || !ParseU64(parts[1], &out->id)) {
        return bad_line();
      }
    } else if (parts[0] == "image_size") {
      uint64_t v = 0;
      if (parts.size() != 2 || !ParseU64(parts[1], &v)) return bad_line();
      out->image_size = static_cast<size_t>(v);
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
      auto hash = PageHash::FromHex(parts[3]);
      if (!hash.ok()) return bad_line();
      out->pages.push_back({static_cast<size_t>(offset),
                            static_cast<uint32_t>(crc), *hash});
    } else {
      return bad_line();
    }
  }
  if (!saw_end) return Status::Corruption("truncated (no end marker)");
  if (out->id == 0) return Status::Corruption("missing id");
  if (out->pages.size() != page_count) {
    return Status::Corruption(
        StrFormat("page_count %llu but %zu page lines",
                  static_cast<unsigned long long>(page_count),
                  out->pages.size()));
  }
  return Status::Ok();
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
                           CarveOptions options, BlockFile file)
    : dir_(std::move(dir)),
      config_(std::move(config)),
      options_(options),
      carver_(config_, options_),
      file_(std::move(file)),
      string_pool_(std::make_shared<StringPool>()),
      page_store_(&file_, config_.params.page_size),
      artifact_cache_(&file_, string_pool_.get()) {}

Result<std::unique_ptr<SnapshotRepo>> SnapshotRepo::Create(
    const std::string& dir, const CarverConfig& config,
    CarveOptions options) {
  DBFA_RETURN_IF_ERROR(config.params.Validate());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(
        StrFormat("snapshot repo: cannot create %s", dir.c_str()));
  }
  DBFA_RETURN_IF_ERROR(RefuseOlderLayout(dir));
  // The header is the file's first block, written under the new file's
  // lock: a file that exists is a repository, or a Create that died.
  Result<BlockFile> file =
      BlockFile::CreateLocked(RepoFilePath(dir), HeaderText(config, options));
  if (file.status().code() == StatusCode::kAlreadyExists) {
    return Status::AlreadyExists(
        StrFormat("snapshot repo: %s already holds a repository",
                  dir.c_str()));
  }
  DBFA_RETURN_IF_ERROR(file.status());
  return std::unique_ptr<SnapshotRepo>(
      new SnapshotRepo(dir, config, options, std::move(file).value()));
}

Result<std::unique_ptr<SnapshotRepo>> SnapshotRepo::Open(
    const std::string& dir, size_t num_threads) {
  // The lock is the repository file's own, taken before anything is read,
  // so a directory without a repository fails here and gains no file.
  Result<BlockFile> file = BlockFile::OpenLocked(RepoFilePath(dir));
  if (!file.ok()) {
    DBFA_RETURN_IF_ERROR(RefuseOlderLayout(dir));
    return file.status();
  }
  CarverConfig config;
  CarveOptions options;
  DBFA_RETURN_IF_ERROR(ReadHeader(*file, &config, &options));
  options.num_threads = num_threads;

  std::unique_ptr<SnapshotRepo> repo(new SnapshotRepo(
      dir, std::move(config), options, std::move(file).value()));
  SnapshotRepo* self = repo.get();
  DBFA_RETURN_IF_ERROR(repo->file_.RecoverCommitted(
      [self](uint64_t offset, const std::string& payload) {
        return self->LoadBlock(offset, payload);
      }));
  return repo;
}

Status SnapshotRepo::LoadBlock(uint64_t offset, const std::string& payload) {
  if (offset == 0) return Status::Ok();  // the header, parsed by Open
  // An empty payload reads as kind 0x00, which no block has.
  Status loaded;
  switch (static_cast<BlockKind>(payload[0])) {
    case BlockKind::kPage:
      loaded = page_store_.Load(offset, payload);
      break;
    case BlockKind::kArtifact:
      loaded = artifact_cache_.Load(offset, payload);
      break;
    case BlockKind::kManifest:
      loaded = LoadManifest(std::string_view(payload).substr(1));
      break;
    default:
      loaded = Status::Corruption(StrFormat(
          "unknown block kind 0x%02x", static_cast<uint8_t>(payload[0])));
  }
  if (loaded.ok()) return loaded;
  return Status::Corruption(
      StrFormat("snapshot repo: %s block at offset %llu: %s", kRepoFile,
                static_cast<unsigned long long>(offset),
                loaded.message().c_str()));
}

Status SnapshotRepo::LoadManifest(std::string_view text) {
  Manifest manifest;
  DBFA_RETURN_IF_ERROR(ParseManifest(text, &manifest));
  // Ingest numbers snapshots 1, 2, ... in commit order, so the k-th
  // manifest holds snapshot k; this also rejects a duplicate snapshot id.
  uint64_t expected = snapshots_.size() + 1;
  if (manifest.id != expected) {
    return Status::Corruption(
        StrFormat("snapshot id %llu out of sequence (expected %llu)",
                  static_cast<unsigned long long>(manifest.id),
                  static_cast<unsigned long long>(expected)));
  }
  Snapshot snap;
  snap.id = manifest.id;
  snap.image_size = manifest.image_size;
  snap.offsets.reserve(manifest.pages.size());
  snap.pages.reserve(manifest.pages.size());
  for (const ManifestPage& page : manifest.pages) {
    const PageStore::Stored* stored = page_store_.Find(page.hash);
    if (stored == nullptr) {
      return Status::Corruption(
          StrFormat("snapshot %llu: page %s missing from store",
                    static_cast<unsigned long long>(snap.id),
                    page.hash.ToHex().c_str()));
    }
    if (stored->entry.crc != page.crc) {
      return Status::Corruption(StrFormat(
          "snapshot %llu: page %s CRC disagrees with the page store",
          static_cast<unsigned long long>(snap.id),
          page.hash.ToHex().c_str()));
    }
    snap.offsets.push_back(page.offset);
    snap.pages.push_back(stored);
  }
  snapshots_.push_back(std::move(snap));
  return Status::Ok();
}

Status SnapshotRepo::WriteManifest(const Snapshot& snap) {
  std::string text(1, static_cast<char>(BlockKind::kManifest));
  text += StrFormat("%s\nid %llu\nimage_size %zu\npage_count %zu\n",
                    kManifestHeader, static_cast<unsigned long long>(snap.id),
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
  // The complete block is the snapshot's commit point: page and artifact
  // blocks appended by a crashed ingest are unreferenced, never dangling,
  // and a block the crash cut short is dropped by the next Open.
  return file_.Append(text).status();
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
  // Hold the repository lock so no ingest appends while the scan walks
  // the file.
  Result<BlockFile> locked = BlockFile::OpenLocked(RepoFilePath(dir));
  if (!locked.ok()) {
    DBFA_RETURN_IF_ERROR(RefuseOlderLayout(dir));
    return locked.status();
  }
  FsckReport report;
  auto issue = [&report](std::string detail) {
    report.issues.push_back({kRepoFile, std::move(detail)});
  };
  auto at = [](uint64_t offset) {
    return StrFormat("block at offset %llu",
                     static_cast<unsigned long long>(offset));
  };

  // The header: the strict parse Open uses; its page size drives the page
  // checks (without it page blocks cannot be decoded).
  size_t page_size = 0;
  bool header_read = false;
  auto check_header = [&](const std::string& text) {
    header_read = true;
    CarverConfig config;
    CarveOptions options;
    Status parsed = ParseHeader(text, &config, &options);
    if (!parsed.ok()) {
      issue("header: " + parsed.ToString());
    } else {
      page_size = config.params.page_size;
    }
  };

  // Page blocks: each entry's stored CRC-32 and content hash against the
  // page bytes it carries (the index PageStore::Load builds derives from
  // exactly these entries, so a clean walk certifies index<->file
  // consistency).
  std::unordered_map<PageHash, uint32_t, PageHashHasher> stored_pages;
  auto check_page = [&](uint64_t offset, std::string_view payload) {
    if (page_size == 0) return;
    ++report.pages_checked;
    PageStoreEntry entry;
    size_t page_bytes = 0;
    Status decoded = DecodePageEntry(payload, page_size, &entry, &page_bytes);
    if (!decoded.ok()) {
      issue(StrFormat("%s: %s", at(offset).c_str(),
                      decoded.ToString().c_str()));
      return;
    }
    ByteView page = AsByteView(payload).Slice(page_bytes);
    if (Crc32(page) != entry.crc) {
      issue(StrFormat("%s: page %s: stored CRC-32 does not match the page "
                      "bytes",
                      at(offset).c_str(), entry.hash.ToHex().c_str()));
    } else if (!(HashBytes(page) == entry.hash)) {
      issue(StrFormat("%s: content hash does not match the page bytes "
                      "(claims %s)",
                      at(offset).c_str(), entry.hash.ToHex().c_str()));
    } else if (!stored_pages.emplace(entry.hash, entry.crc).second) {
      issue(StrFormat("%s: page %s: duplicate page entry (the store index "
                      "would collapse them)",
                      at(offset).c_str(), entry.hash.ToHex().c_str()));
    }
  };

  // Manifests: structural re-parse, the id sequence, and reachability:
  // every referenced page must be stored, with the same CRC, before the
  // manifest that commits it. The k-th manifest holds snapshot k.
  auto check_manifest = [&](std::string_view text) {
    uint64_t expected = ++report.manifests_checked;
    auto snapshot_issue = [&](const std::string& detail) {
      issue(StrFormat("snapshot %llu: %s",
                      static_cast<unsigned long long>(expected),
                      detail.c_str()));
    };
    Manifest manifest;
    Status parsed = ParseManifest(text, &manifest);
    if (!parsed.ok()) {
      snapshot_issue(parsed.message());
      return;
    }
    if (manifest.id != expected) {
      snapshot_issue(StrFormat("manifest carries id %llu",
                               static_cast<unsigned long long>(manifest.id)));
    }
    for (const ManifestPage& page : manifest.pages) {
      auto stored = stored_pages.find(page.hash);
      if (stored == stored_pages.end()) {
        snapshot_issue(StrFormat("page %s is not reachable in the page store",
                                 page.hash.ToHex().c_str()));
      } else if (stored->second != page.crc) {
        snapshot_issue(StrFormat(
            "page %s: manifest CRC %u disagrees with the page store",
            page.hash.ToHex().c_str(), page.crc));
      }
    }
  };

  // Artifact decodes intern like the repository's; only their status is
  // kept.
  StringPool scratch_pool;

  // One walk over the committed blocks, each checked by its kind. A short
  // final block never committed and is not a defect (Open drops it); a
  // framing failure ends the walk, since byte boundaries past it are
  // meaningless.
  Status walked = ScanCommitLog(
      RepoFilePath(dir), [&](uint64_t offset, const std::string& payload) {
        if (offset == 0) {
          check_header(payload);
          return Status::Ok();
        }
        // An empty payload reads as kind 0x00, which no block has.
        switch (static_cast<BlockKind>(payload[0])) {
          case BlockKind::kPage:
            check_page(offset, payload);
            break;
          case BlockKind::kArtifact: {
            ++report.artifacts_checked;
            ArtifactKey key;
            PageArtifacts artifacts;
            Status decoded =
                DecodeArtifactEntry(payload, &scratch_pool, &key, &artifacts);
            if (!decoded.ok()) {
              issue(StrFormat("%s: %s", at(offset).c_str(),
                              decoded.ToString().c_str()));
            }
            break;
          }
          case BlockKind::kManifest:
            check_manifest(std::string_view(payload).substr(1));
            break;
          default:
            issue(StrFormat("%s: unknown block kind 0x%02x",
                            at(offset).c_str(),
                            static_cast<uint8_t>(payload[0])));
        }
        return Status::Ok();
      }).status();
  if (!header_read) {
    // An empty file is a Create that died before its first append.
    issue("header: no whole header block" +
          (walked.ok() ? std::string() : ": " + walked.ToString()));
  } else if (!walked.ok()) {
    // The blocks after manifest k belong to snapshot k + 1's ingest.
    issue(StrFormat("snapshot %zu's ingest: %s",
                    report.manifests_checked + 1, walked.ToString().c_str()));
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
  result.string_pool = string_pool_;  // the content pass interns here

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
    if (const PageStore::Stored* stored = page_store_.Find(hash)) {
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
        f.stored != nullptr ? f.stored : page_store_.Find(f.hash);
    if (stored != nullptr) {
      ++stats.pages_reused;
    } else {
      ByteView page_bytes = image.Slice(f.meta.image_offset, p.page_size);
      DBFA_ASSIGN_OR_RETURN(
          stored,
          page_store_.Put({f.hash, Crc32(page_bytes), f.meta}, page_bytes));
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
    if (artifact_cache_.Contains(key)) {
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
    PageArtifacts& canonical = slots[i];
    for (CarvedRecord& r : canonical.records) r.page_index = 0;
    for (CarvedIndexEntry& e : canonical.index_entries) e.page_index = 0;
    ArtifactKey key{snap.pages[i]->entry.hash, contexts[i]};
    DBFA_RETURN_IF_ERROR(
        artifact_cache_.Put(key, std::move(canonical)).status());
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
  result.string_pool = string_pool_;  // cached artifacts' refs point here
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
    DBFA_RETURN_IF_ERROR(page_store_.ReadPage(*snap.pages[i], &page));
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
  one.string_pool = string_pool_;
  one.pages.resize(1);
  for (size_t i : content_pages) {
    PageHash context;
    if (!ContextFor(result, context_set, i, &context)) continue;
    ArtifactKey key{snap.pages[i]->entry.hash, context};
    DBFA_ASSIGN_OR_RETURN(std::shared_ptr<const PageArtifacts> arts,
                          artifact_cache_.Get(key));
    if (arts == nullptr) {
      Bytes page;
      DBFA_RETURN_IF_ERROR(page_store_.ReadPage(*snap.pages[i], &page));
      one.pages[0] = result.pages[i];
      one.pages[0].image_offset = 0;
      PageArtifacts decoded;
      carver_.CarveContentRange(ByteView(page), one, 0, 1, &decoded.records,
                                &decoded.index_entries);
      DBFA_ASSIGN_OR_RETURN(arts, artifact_cache_.Put(key, std::move(decoded)));
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
  history.string_pools = StringPoolSet(string_pool_);
  history.values.reserve(values.size());
  for (const Value& v : values) {
    history.values.push_back(
        v.type() == ValueType::kString
            ? Value::InternedStr(string_pool_->Intern(v.as_string()))
            : v);
  }
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
  IncrementalDetection out(carve);
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
