#include "snapshot/artifact_cache.h"

#include <utility>

#include "common/bytes.h"
#include "common/strings.h"

namespace dbfa {

Status ArtifactCache::Load(uint64_t offset, std::string_view payload) {
  ArtifactKey key;
  DBFA_RETURN_IF_ERROR(DecodeArtifactKey(payload, &key));
  index_.emplace(key, Slot{offset, nullptr});
  return Status::Ok();
}

Result<std::shared_ptr<const PageArtifacts>> ArtifactCache::Get(
    const ArtifactKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return std::shared_ptr<const PageArtifacts>();
  }
  if (it->second.decoded != nullptr) return it->second.decoded;
  std::string payload;
  DBFA_RETURN_IF_ERROR(file_->ReadAt(it->second.file_offset, &payload));
  ArtifactKey stored_key;
  auto artifacts = std::make_shared<PageArtifacts>();
  DBFA_RETURN_IF_ERROR(
      DecodeArtifactEntry(payload, &stored_key, artifacts.get()));
  if (!(stored_key == key)) {
    return Status::Corruption("artifact cache: entry key changed on disk");
  }
  ++decodes_;
  it->second.decoded = std::move(artifacts);
  return it->second.decoded;
}

Status ArtifactCache::Put(const ArtifactKey& key,
                          const PageArtifacts& artifacts) {
  auto it = index_.find(key);
  if (it != index_.end()) return Status::Ok();
  std::string payload;
  EncodeArtifactEntry(key, artifacts, &payload);
  DBFA_ASSIGN_OR_RETURN(uint64_t offset, file_->Append(payload));
  index_.emplace(key, Slot{offset, std::make_shared<PageArtifacts>(artifacts)});
  return Status::Ok();
}

}  // namespace dbfa
