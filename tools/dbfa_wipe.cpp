// dbfa_wipe — sanitize a storage image in place: erase deleted records,
// dangling index values, catalog remnants and unallocated pages, repairing
// page metadata (Section II-D's defensive anti-forensics).
//
//   dbfa_wipe <image> <config.conf> [-o <out.img>]
//
// Without -o the input image is overwritten. Any other argument, or -o
// without a value, prints usage and exits 2 before the image is read.
#include <cstdio>
#include <cstring>
#include <string>

#include "antiforensics/wiper.h"
#include "storage/disk_image.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dbfa_wipe <image> <config.conf> [-o <out.img>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 3) return Usage();
  std::string out_path = argv[1];
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") != 0 || i + 1 >= argc) return Usage();
    out_path = argv[++i];
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
  Wiper wiper(*config);
  auto report = wiper.WipeImage(&*image);
  if (!report.ok()) {
    std::fprintf(stderr, "wipe: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (auto s = SaveImage(out_path, *image); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s\nwrote %s\n", report->ToString().c_str(),
              out_path.c_str());
  return 0;
}
