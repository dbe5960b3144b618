#include <algorithm>
#include <filesystem>
#include <system_error>

#include "workloads.h"

namespace perfbench {

std::vector<std::string> SortedKeys(
    const std::vector<dbfa::UnattributedModification>& mods) {
  std::vector<std::string> keys;
  keys.reserve(mods.size());
  for (const auto& mod : mods) keys.push_back(mod.Key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

bool SameArtifacts(const dbfa::CarveResult& a, const dbfa::CarveResult& b) {
  return a.dialect == b.dialect && a.image_size == b.image_size &&
         a.pages == b.pages && a.records == b.records &&
         a.index_entries == b.index_entries &&
         a.catalog_entries == b.catalog_entries && a.schemas == b.schemas &&
         a.indexes == b.indexes && a.dropped_objects == b.dropped_objects;
}

}  // namespace perfbench
