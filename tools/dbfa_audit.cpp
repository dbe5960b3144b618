// dbfa_audit — run DBStorageAuditor over a storage image: B-Tree integrity
// verification plus index/table cross-matching for file-tampering evidence.
//
//   dbfa_audit <image> <config.conf>
//
// Any other argument prints usage and exits 2.
#include <cstdio>

#include "auditor/storage_auditor.h"
#include "storage/disk_image.h"

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc != 3) {
    std::fprintf(stderr, "usage: dbfa_audit <image> <config.conf>\n");
    return 2;
  }
  auto config = LoadConfig(argv[2]);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  auto image = LoadImage(argv[1]);
  if (!image.ok()) {
    std::fprintf(stderr, "image: %s\n", image.status().ToString().c_str());
    return 1;
  }
  StorageAuditor auditor(*config);
  auto report = auditor.Audit(*image);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  return report->Clean() ? 0 : 3;
}
