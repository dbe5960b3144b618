// dbfa_detect — run DBDetective over an image + audit log, optionally
// producing a court-ready evidence package for the findings.
//
//   dbfa_detect <image> <config.conf> <audit.log> [--evidence=DIR]
//               [--threads=N]
//
// --threads=N carves the image on N workers (0 = hardware concurrency;
// default 1, the serial carve) before analysis; findings are identical.
// A malformed thread count prints usage and exits 2.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/strings.h"
#include "core/parallel_carver.h"
#include "detective/confidence.h"
#include "detective/evidence.h"
#include "storage/disk_image.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dbfa_detect <image> <config.conf> <audit.log> "
               "[--evidence=DIR] [--threads=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 4) return Usage();
  std::string evidence_dir;
  CarveOptions options;
  options.num_threads = 1;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--evidence=", 0) == 0) evidence_dir = arg.substr(11);
    if (arg.rfind("--threads=", 0) == 0) {
      uint64_t v = 0;
      if (!ParseU64(arg.c_str() + 10, &v)) return Usage();
      options.num_threads = static_cast<size_t>(v);
    }
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
  auto log = AuditLog::LoadFrom(argv[3]);
  if (!log.ok()) {
    std::fprintf(stderr, "log: %s\n", log.status().ToString().c_str());
    return 1;
  }
  Result<CarveResult> carve = ParallelCarver(*config, options).Carve(*image);
  if (!carve.ok()) {
    std::fprintf(stderr, "carve: %s\n", carve.status().ToString().c_str());
    return 1;
  }
  DbDetective detective(&*carve, &*log);
  auto report = detective.Analyze();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  ConfidenceReport confidence = EstimateDetectionConfidence(*carve, *log);
  std::printf("%s", confidence.ToString().c_str());

  if (!evidence_dir.empty() && !report->modifications.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(evidence_dir, ec);
    EvidenceCollector collector(*config);
    auto package = collector.Collect(*image, *carve, report->modifications);
    if (!package.ok()) {
      std::fprintf(stderr, "evidence: %s\n",
                   package.status().ToString().c_str());
      return 1;
    }
    if (auto s = package->SaveTo(evidence_dir); !s.ok()) {
      std::fprintf(stderr, "evidence: %s\n", s.ToString().c_str());
      return 1;
    }
    auto verified = EvidenceCollector::Verify(*package, *log);
    std::printf("\nevidence package written to %s (%zu pages), independent "
                "verification: %s\n",
                evidence_dir.c_str(),
                package->image.size() / config->params.page_size,
                verified.ok() ? "PASSED" : verified.ToString().c_str());
  }
  return report->Clean() ? 0 : 3;  // 3: suspicious activity found
}
