#include "storage/disk_image.h"

#include "common/file_io.h"

namespace dbfa {

void DiskImageBuilder::AppendFile(const std::string& name,
                                  const Bytes& content) {
  extents_.push_back({name, bytes_.size(), content.size(), false});
  bytes_.insert(bytes_.end(), content.begin(), content.end());
}

void DiskImageBuilder::AppendGarbage(size_t size, Rng* rng) {
  extents_.push_back({"garbage", bytes_.size(), size, true});
  bytes_.reserve(bytes_.size() + size);
  for (size_t i = 0; i < size; ++i) {
    bytes_.push_back(static_cast<uint8_t>(rng->NextU64()));
  }
}

void DiskImageBuilder::AppendTextGarbage(size_t size, Rng* rng) {
  extents_.push_back({"garbage", bytes_.size(), size, true});
  static const char kWords[] =
      "INFO warn error request session commit rollback user admin select "
      "tmpfile cache flush retry timeout 127.0.0.1 GET POST /index.html ";
  size_t n = sizeof(kWords) - 1;
  bytes_.reserve(bytes_.size() + size);
  size_t pos = rng->NextU64() % n;
  for (size_t i = 0; i < size; ++i) {
    bytes_.push_back(static_cast<uint8_t>(kWords[pos]));
    pos = (pos + 1) % n;
    if (rng->Bernoulli(0.01)) pos = rng->NextU64() % n;
  }
}

Status SaveImage(const std::string& path, ByteView image) {
  return WriteFile(path, AsStringView(image));
}

Result<Bytes> LoadImage(const std::string& path) {
  return ReadFileBytes(path);
}

void CorruptRegion(Bytes* image, size_t offset, size_t len, Rng* rng) {
  for (size_t i = 0; i < len && offset + i < image->size(); ++i) {
    (*image)[offset + i] = static_cast<uint8_t>(rng->NextU64());
  }
}

}  // namespace dbfa
