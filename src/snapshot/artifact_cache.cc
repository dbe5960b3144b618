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
      DecodeArtifactEntry(payload, pool_, &stored_key, artifacts.get()));
  if (!(stored_key == key)) {
    return Status::Corruption("artifact cache: entry key changed on disk");
  }
  ++decodes_;
  it->second.decoded = std::move(artifacts);
  return it->second.decoded;
}

Result<std::shared_ptr<const PageArtifacts>> ArtifactCache::Put(
    const ArtifactKey& key, PageArtifacts artifacts) {
  auto it = index_.find(key);
  if (it != index_.end()) return Get(key);
  std::string payload;
  EncodeArtifactEntry(key, artifacts, &payload);
  DBFA_ASSIGN_OR_RETURN(uint64_t offset, file_->Append(payload));
  // The memo keeps every entry for the repository's lifetime, so drop the
  // decode's growth slack; the records move, their values are not copied.
  artifacts.records.shrink_to_fit();
  artifacts.index_entries.shrink_to_fit();
  auto decoded = std::make_shared<const PageArtifacts>(std::move(artifacts));
  index_.emplace(key, Slot{offset, decoded});
  return decoded;
}

}  // namespace dbfa
