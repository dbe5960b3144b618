// dbfa_snapshot — manage a snapshot repository with content-addressed
// incremental carving (docs/snapshot_store.md).
//
//   dbfa_snapshot init   <repo-dir> <config.conf> [--scan-step=N]
//   dbfa_snapshot ingest <repo-dir> <image> [--threads=N]
//   dbfa_snapshot list   <repo-dir>
//   dbfa_snapshot diff   <repo-dir> <base-id> <target-id>
//   dbfa_snapshot detect <repo-dir> <base-id> <target-id> <audit.log>
//   dbfa_snapshot fsck   <repo-dir>
//
// ingest dedupes the capture against every earlier snapshot and re-carves
// only new/changed pages; detect re-matches only records from pages that
// changed since <base-id> against the audit log (base 0: every record of
// the target); fsck re-verifies the
// stores' block checksums and manifest reachability, exiting 3 with a
// per-corruption report when the repository is damaged.
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "core/carver.h"
#include "core/config_io.h"
#include "engine/audit_log.h"
#include "snapshot/snapshot_repo.h"
#include "storage/disk_image.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbfa_snapshot init   <repo-dir> <config.conf> [--scan-step=N]\n"
      "       dbfa_snapshot ingest <repo-dir> <image> [--threads=N]\n"
      "       dbfa_snapshot list   <repo-dir>\n"
      "       dbfa_snapshot diff   <repo-dir> <base-id> <target-id>\n"
      "       dbfa_snapshot detect <repo-dir> <base-id> <target-id> "
      "<audit.log>\n"
      "       dbfa_snapshot fsck   <repo-dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::string dir = argv[2];

  if (command == "init") {
    if (argc < 4) return Usage();
    auto config = LoadConfig(argv[3]);
    if (!config.ok()) {
      std::fprintf(stderr, "config: %s\n",
                   config.status().ToString().c_str());
      return 1;
    }
    CarveOptions options;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--scan-step=", 0) == 0) {
        uint64_t v = 0;
        if (!ParseU64(arg.c_str() + 12, &v)) return Usage();
        options.scan_step = static_cast<size_t>(v);
      } else {
        return Usage();
      }
    }
    auto repo = SnapshotRepo::Create(dir, *config, options);
    if (!repo.ok()) {
      std::fprintf(stderr, "init: %s\n", repo.status().ToString().c_str());
      return 1;
    }
    std::printf("initialized snapshot repository at %s (%s, %u-byte pages)\n",
                dir.c_str(), (*repo)->config().params.dialect.c_str(),
                (*repo)->config().params.page_size);
    return 0;
  }

  if (command == "ingest") {
    if (argc < 4) return Usage();
    size_t threads = 0;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--threads=", 0) == 0) {
        uint64_t v = 0;
        if (!ParseU64(arg.c_str() + 10, &v)) return Usage();
        threads = static_cast<size_t>(v);
      } else {
        return Usage();
      }
    }
    auto repo = SnapshotRepo::Open(dir, threads);
    if (!repo.ok()) {
      std::fprintf(stderr, "open: %s\n", repo.status().ToString().c_str());
      return 1;
    }
    auto image = LoadImage(argv[3]);
    if (!image.ok()) {
      std::fprintf(stderr, "image: %s\n", image.status().ToString().c_str());
      return 1;
    }
    auto stats = (*repo)->Ingest(*image);
    if (!stats.ok()) {
      std::fprintf(stderr, "ingest: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->ToString().c_str());
    return 0;
  }

  if (command == "list") {
    auto repo = SnapshotRepo::Open(dir);
    if (!repo.ok()) {
      std::fprintf(stderr, "open: %s\n", repo.status().ToString().c_str());
      return 1;
    }
    auto snapshots = (*repo)->List();
    if (snapshots.empty()) {
      std::printf("repository at %s holds no snapshots\n", dir.c_str());
      return 0;
    }
    for (const SnapshotInfo& info : snapshots) {
      std::printf("%s\n", info.ToString().c_str());
    }
    return 0;
  }

  if (command == "diff") {
    uint64_t base = 0;
    uint64_t target = 0;
    if (argc != 5 || !ParseU64(argv[3], &base) ||
        !ParseU64(argv[4], &target)) {
      return Usage();
    }
    auto repo = SnapshotRepo::Open(dir);
    if (!repo.ok()) {
      std::fprintf(stderr, "open: %s\n", repo.status().ToString().c_str());
      return 1;
    }
    auto diff = (*repo)->Diff(base, target);
    if (!diff.ok()) {
      std::fprintf(stderr, "diff: %s\n", diff.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", diff->ToString().c_str());
    return 0;
  }

  if (command == "detect") {
    uint64_t base = 0;
    uint64_t target = 0;
    if (argc != 6 || !ParseU64(argv[3], &base) ||
        !ParseU64(argv[4], &target)) {
      return Usage();
    }
    auto repo = SnapshotRepo::Open(dir);
    if (!repo.ok()) {
      std::fprintf(stderr, "open: %s\n", repo.status().ToString().c_str());
      return 1;
    }
    auto log = AuditLog::LoadFrom(argv[5]);
    if (!log.ok()) {
      std::fprintf(stderr, "log: %s\n", log.status().ToString().c_str());
      return 1;
    }
    auto detection = (*repo)->DetectIncremental(base, target, *log);
    if (!detection.ok()) {
      std::fprintf(stderr, "detect: %s\n",
                   detection.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", detection->ToString().c_str());
    return detection->modifications.empty() ? 0 : 3;
  }

  if (command == "fsck") {
    if (argc != 3) return Usage();
    auto report = SnapshotRepo::Fsck(dir);
    if (!report.ok()) {
      std::fprintf(stderr, "fsck: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
    return report->Clean() ? 0 : 3;
  }

  return Usage();
}
