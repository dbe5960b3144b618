#include "snapshot/page_store.h"

#include <utility>

#include "common/strings.h"

namespace dbfa {

Status PageStore::Load(uint64_t offset, std::string_view payload) {
  PageStoreEntry decoded;
  size_t page_bytes = 0;
  DBFA_RETURN_IF_ERROR(
      DecodePageEntry(payload, page_size_, &decoded, &page_bytes));
  Index(decoded, offset);
  return Status::Ok();
}

const PageStore::Stored* PageStore::Index(const PageStoreEntry& entry,
                                          uint64_t offset) {
  auto [it, inserted] = index_.try_emplace(entry.hash);
  if (inserted) {
    it->second.entry = entry;
    it->second.entry.meta.image_offset = 0;
    it->second.file_offset = offset;
  }
  return &it->second;
}

Result<const PageStore::Stored*> PageStore::Put(const PageStoreEntry& entry,
                                                ByteView page) {
  if (page.size() != page_size_) {
    return Status::InvalidArgument(
        StrFormat("page store: page is %zu bytes, store page size is %zu",
                  page.size(), page_size_));
  }
  if (const Stored* existing = Find(entry.hash)) return existing;
  std::string payload;
  EncodePageEntry(entry, page, &payload);
  DBFA_ASSIGN_OR_RETURN(uint64_t offset, file_->Append(payload));
  return Index(entry, offset);
}

Status PageStore::ReadPage(const Stored& stored, Bytes* out) const {
  std::string payload;
  DBFA_RETURN_IF_ERROR(file_->ReadAt(stored.file_offset, &payload));
  PageStoreEntry entry;
  size_t page_bytes = 0;
  DBFA_RETURN_IF_ERROR(
      DecodePageEntry(payload, page_size_, &entry, &page_bytes));
  if (!(entry.hash == stored.entry.hash)) {
    return Status::Corruption("page store: entry hash changed on disk");
  }
  ByteView page = AsByteView(payload).Slice(page_bytes);
  *out = page.ToBytes();
  return Status::Ok();
}

}  // namespace dbfa
