#include "detective/evidence.h"

#include <set>

#include "common/strings.h"
#include "storage/disk_image.h"

namespace dbfa {

Status EvidencePackage::SaveTo(const std::string& dir) const {
  DBFA_RETURN_IF_ERROR(SaveImage(dir + "/evidence.img", image));
  std::string manifest_text = Join(manifest, "\n") + "\n";
  DBFA_RETURN_IF_ERROR(SaveImage(
      dir + "/manifest.txt",
      AsByteView(manifest_text)));
  DBFA_RETURN_IF_ERROR(SaveImage(
      dir + "/carver.conf",
      AsByteView(config_text)));
  std::string findings_text = Join(claimed, "\n") + "\n";
  return SaveImage(
      dir + "/findings.txt",
      AsByteView(findings_text));
}

Result<EvidencePackage> EvidencePackage::LoadFrom(const std::string& dir) {
  EvidencePackage package;
  DBFA_ASSIGN_OR_RETURN(package.image, LoadImage(dir + "/evidence.img"));

  // The config is authoritative for the page size, so validate it first —
  // everything else is checked against it. A package is evidence handed
  // across trust boundaries; nothing here may crash or silently misparse.
  DBFA_ASSIGN_OR_RETURN(Bytes config_bytes, LoadImage(dir + "/carver.conf"));
  package.config_text.assign(config_bytes.begin(), config_bytes.end());
  DBFA_ASSIGN_OR_RETURN(CarverConfig config,
                        ConfigFromText(package.config_text));
  size_t page_size = config.params.page_size;
  if (package.image.empty()) {
    return Status::Corruption("evidence package: evidence.img is empty");
  }
  if (package.image.size() % page_size != 0) {
    return Status::Corruption(StrFormat(
        "evidence package: evidence.img is %zu bytes, not a multiple of the "
        "config page size %zu (truncated image or page-size mismatch)",
        package.image.size(), page_size));
  }

  DBFA_ASSIGN_OR_RETURN(Bytes manifest_bytes,
                        LoadImage(dir + "/manifest.txt"));
  for (const std::string& line :
       Split(std::string(manifest_bytes.begin(), manifest_bytes.end()),
             '\n')) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    // Each line must be exactly "object_id page_id original_offset".
    std::vector<std::string> fields;
    for (const std::string& f : Split(std::string(trimmed), ' ')) {
      if (!f.empty()) fields.push_back(f);
    }
    uint64_t object_id = 0;
    uint64_t page_id = 0;
    uint64_t original_offset = 0;
    if (fields.size() != 3 || !ParseU64(fields[0], &object_id) ||
        !ParseU64(fields[1], &page_id) ||
        !ParseU64(fields[2], &original_offset) || object_id == 0 ||
        object_id > 0xFFFFFFFFull || page_id == 0 ||
        page_id > 0xFFFFFFFFull) {
      return Status::Corruption(
          "evidence package: malformed manifest.txt line: " +
          std::string(trimmed));
    }
    package.manifest.push_back(line);
  }
  if (package.manifest.size() != package.image.size() / page_size) {
    return Status::Corruption(StrFormat(
        "evidence package: manifest.txt lists %zu pages but evidence.img "
        "holds %zu",
        package.manifest.size(), package.image.size() / page_size));
  }

  DBFA_ASSIGN_OR_RETURN(Bytes findings_bytes,
                        LoadImage(dir + "/findings.txt"));
  for (const std::string& line :
       Split(std::string(findings_bytes.begin(), findings_bytes.end()),
             '\n')) {
    if (!Trim(line).empty()) package.claimed.push_back(line);
  }
  return package;
}

Result<EvidencePackage> EvidenceCollector::Collect(
    ByteView full_image, const CarveResult& carve,
    const std::vector<UnattributedModification>& findings) const {
  // Pages to include: every catalog page (schema provenance) + the page of
  // each flagged record.
  std::set<std::pair<uint32_t, uint32_t>> wanted;  // (object, page)
  for (const CarvedPage& p : carve.pages) {
    if (p.object_id == config_.catalog_object_id &&
        p.type == PageType::kData) {
      wanted.insert({p.object_id, p.page_id});
    }
  }
  for (const UnattributedModification& f : findings) {
    uint32_t object_id = carve.ObjectIdByName(f.table);
    if (object_id == 0) {
      return Status::NotFound("finding references unknown table " + f.table);
    }
    wanted.insert({object_id, f.page_id});
  }

  EvidencePackage package;
  package.config_text = ConfigToText(config_);
  for (const CarvedPage& p : carve.pages) {
    if (wanted.count({p.object_id, p.page_id}) == 0) continue;
    ByteView page = full_image.Slice(p.image_offset,
                                     config_.params.page_size);
    package.image.insert(package.image.end(), page.data(),
                         page.data() + page.size());
    package.manifest.push_back(StrFormat("%u %u %zu", p.object_id,
                                         p.page_id, p.image_offset));
  }
  for (const UnattributedModification& f : findings) {
    package.claimed.push_back(f.ToString());
  }
  if (package.image.empty()) {
    return Status::FailedPrecondition("no pages selected for the package");
  }
  return package;
}

Status EvidenceCollector::Verify(const EvidencePackage& package,
                                 const AuditLog& log) {
  DBFA_ASSIGN_OR_RETURN(CarverConfig config,
                        ConfigFromText(package.config_text));
  CarveOptions options;
  options.scan_step = config.params.page_size;  // package pages are packed
  Carver carver(config, options);
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, carver.Carve(package.image));
  DbDetective detective(&carve, &log);
  DBFA_ASSIGN_OR_RETURN(auto reproduced,
                        detective.FindUnattributedModifications());
  std::set<std::string> reproduced_set;
  for (const UnattributedModification& m : reproduced) {
    reproduced_set.insert(m.ToString());
  }
  for (const std::string& claim : package.claimed) {
    if (reproduced_set.count(claim) == 0) {
      return Status::FailedPrecondition(
          "claimed finding did not reproduce from the package alone: " +
          claim);
    }
  }
  return Status::Ok();
}

}  // namespace dbfa
