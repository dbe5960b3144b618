// dbfa_carve — carve a storage image with a configuration file.
//
//   dbfa_carve <image> <config.conf> [--records[=N]] [--deleted]
//              [--catalog] [--indexes] [--step=BYTES] [--threads=N]
//
// Prints the artifact summary; flags add record listings (all or
// delete-marked only), catalog content, and index-entry counts.
// --threads=N carves on N workers (0 = hardware concurrency; default 1,
// the serial carve); output is byte-identical for every N. A malformed
// numeric value prints usage and exits 2.
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "core/parallel_carver.h"
#include "storage/disk_image.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbfa_carve <image> <config.conf> [--records[=N]] [--deleted]\n"
      "                  [--catalog] [--indexes] [--step=BYTES] "
      "[--threads=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 3) return Usage();
  std::string image_path = argv[1];
  std::string config_path = argv[2];
  bool show_records = false;
  bool deleted_only = false;
  bool show_catalog = false;
  bool show_indexes = false;
  uint64_t max_records = 50;
  CarveOptions options;
  options.num_threads = 1;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t v = 0;
    if (arg.rfind("--records=", 0) == 0) {
      show_records = true;
      if (!ParseU64(arg.c_str() + 10, &max_records)) return Usage();
    } else if (arg == "--records") {
      show_records = true;
    } else if (arg == "--deleted") {
      show_records = true;
      deleted_only = true;
    } else if (arg == "--catalog") {
      show_catalog = true;
    } else if (arg == "--indexes") {
      show_indexes = true;
    } else if (arg.rfind("--step=", 0) == 0) {
      if (!ParseU64(arg.c_str() + 7, &v)) return Usage();
      options.scan_step = static_cast<size_t>(v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseU64(arg.c_str() + 10, &v)) return Usage();
      options.num_threads = static_cast<size_t>(v);
    } else {
      return Usage();
    }
  }

  auto config = LoadConfig(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  auto image = LoadImage(image_path);
  if (!image.ok()) {
    std::fprintf(stderr, "image: %s\n", image.status().ToString().c_str());
    return 1;
  }
  Result<CarveResult> result = ParallelCarver(*config, options).Carve(*image);
  if (!result.ok()) {
    std::fprintf(stderr, "carve: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n%s\n", result->Summary().c_str(),
              result->stats.ToString().c_str());

  if (show_catalog) {
    std::printf("\n-- system catalog --\n");
    for (const CarvedCatalogEntry& e : result->catalog_entries) {
      std::printf("  [%s] %-6s %-24s object=%u table=%u root=%u\n",
                  RowStatusName(e.status), e.entry_type.c_str(),
                  e.name.c_str(), e.object_id, e.table_object_id,
                  e.root_page);
    }
  }
  if (show_records) {
    std::printf("\n-- records%s --\n", deleted_only ? " (deleted only)" : "");
    size_t shown = 0;
    for (const CarvedRecord& r : result->records) {
      if (deleted_only && r.status != RowStatus::kDeleted) continue;
      if (shown++ >= max_records) {
        std::printf("  ... (truncated; use --records=N)\n");
        break;
      }
      const TableSchema* schema = nullptr;
      auto it = result->schemas.find(r.object_id);
      if (it != result->schemas.end()) schema = &it->second;
      std::printf("  [%s] %s page %u slot %u %s\n", RowStatusName(r.status),
                  schema != nullptr ? schema->name.c_str() : "?",
                  r.page_id, r.slot, RecordToString(r.values).c_str());
    }
  }
  if (show_indexes) {
    std::printf("\n-- indexes --\n");
    for (const auto& [object_id, meta] : result->indexes) {
      std::printf("  %-24s object=%u root=%u entries=%zu%s\n",
                  meta.name.c_str(), object_id, meta.root_page,
                  result->EntriesForIndex(object_id).size(),
                  meta.dropped ? " (dropped)" : "");
    }
  }
  return 0;
}
