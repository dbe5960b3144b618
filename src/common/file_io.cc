#include "common/file_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/strings.h"

namespace dbfa {

namespace {

constexpr size_t kHeaderSize = 8;
// No writer produces a bigger block, so a larger size field is a corrupt
// header, rejected before any allocation.
constexpr uint32_t kMaxBlockPayload = 64u << 20;
constexpr size_t kReadChunk = 1 << 16;

Status ErrnoError(const char* op, const std::string& path, int err = errno) {
  return Status::IoError(
      StrFormat("%s %s: %s", op, path.c_str(), std::strerror(err)));
}

Result<FilePtr> OpenFile(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode), &std::fclose);
  if (f == nullptr) return ErrnoError("open", path);
  return f;
}

/// Reads from the stream position to the end of file.
template <typename Buffer>
Result<Buffer> ReadToEnd(std::FILE* f, const std::string& path) {
  Buffer out;
  for (size_t n = kReadChunk; n == kReadChunk;) {
    size_t used = out.size();
    out.resize(used + kReadChunk);
    n = std::fread(out.data() + used, 1, kReadChunk, f);
    out.resize(used + n);
  }
  if (std::ferror(f) != 0) return ErrnoError("read", path);
  return out;
}

template <typename Buffer>
Result<Buffer> ReadWhole(const std::string& path) {
  DBFA_ASSIGN_OR_RETURN(FilePtr f, OpenFile(path, "rb"));
  return ReadToEnd<Buffer>(f.get(), path);
}

/// Whether a whole, CRC-valid block starts anywhere in `bytes`.
bool HoldsWholeBlock(ByteView bytes) {
  for (size_t at = 0; at + kHeaderSize <= bytes.size(); ++at) {
    uint32_t size = ReadU32(bytes.data() + at, /*big_endian=*/false);
    // Commit-log blocks are never empty; eight zero bytes (an empty block
    // with the empty payload's CRC) are common inside page images.
    if (size == 0 || size > bytes.size() - at - kHeaderSize) continue;
    uint32_t crc = ReadU32(bytes.data() + at + 4, /*big_endian=*/false);
    if (Crc32(bytes.Slice(at + kHeaderSize, size)) == crc) return true;
  }
  return false;
}

/// Reads the block at the stream position; false at a clean end of file.
/// *consumed receives the block's on-disk size. A block cut short by the
/// end of file is Corruption, or, when `short_is_end`, the end of file
/// unless whole blocks follow its header.
Result<bool> ReadBlock(std::FILE* f, const std::string& path,
                       std::string* payload, uint64_t* consumed,
                       bool short_is_end = false) {
  auto corrupt = [&path](const std::string& what) {
    return Status::Corruption(
        StrFormat("block file %s: %s", path.c_str(), what.c_str()));
  };
  uint8_t header[kHeaderSize];
  size_t n = std::fread(header, 1, sizeof(header), f);
  if (std::ferror(f) != 0) return ErrnoError("read", path);
  if (n == 0) return false;
  if (n != sizeof(header)) {
    if (short_is_end) return false;
    return corrupt("truncated header");
  }
  uint32_t size = ReadU32(header, /*big_endian=*/false);
  uint32_t expected_crc = ReadU32(header + 4, /*big_endian=*/false);
  if (size > kMaxBlockPayload) {
    return corrupt(StrFormat("implausible payload size %u", size));
  }
  payload->resize(size);
  size_t got = size == 0 ? 0 : std::fread(payload->data(), 1, size, f);
  if (got != size) {
    if (std::ferror(f) != 0) return ErrnoError("read", path);
    // A torn append leaves only a prefix of its own payload. Whole blocks
    // after this header mean its size field is damaged instead, and
    // reading it as an uncommitted tail would drop committed blocks.
    if (short_is_end && !HoldsWholeBlock(AsByteView(*payload).Slice(0, got))) {
      return false;
    }
    return corrupt("truncated payload");
  }
  uint32_t actual_crc = Crc32(AsByteView(*payload));
  if (actual_crc != expected_crc) {
    return corrupt(StrFormat("checksum mismatch (stored %08x, computed %08x)",
                             expected_crc, actual_crc));
  }
  *consumed = kHeaderSize + size;
  return true;
}

/// Opens `path` for reading and appending with open(2) `flags` added.
Result<FilePtr> OpenAppendable(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC | flags, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return Status::AlreadyExists(path);
    return ErrnoError("open", path);
  }
  FilePtr f(fdopen(fd, "ab+"), &std::fclose);
  if (f == nullptr) {
    int err = errno;
    close(fd);
    return ErrnoError("open", path, err);
  }
  return f;
}

Status LockExclusive(std::FILE* f, const std::string& path) {
  if (flock(fileno(f), LOCK_EX | LOCK_NB) == 0) return Status::Ok();
  if (errno == EWOULDBLOCK) {
    return Status::Unavailable(
        StrFormat("%s is locked by another open handle", path.c_str()));
  }
  return ErrnoError("lock", path);
}

/// Visits the blocks of `path`; returns the end of the last one visited.
Result<uint64_t> Scan(const std::string& path, bool commit_log,
                      const BlockVisitor& fn) {
  DBFA_ASSIGN_OR_RETURN(FilePtr f, OpenFile(path, "rb"));
  std::string payload;
  uint64_t offset = 0;
  for (;;) {
    uint64_t consumed = 0;
    DBFA_ASSIGN_OR_RETURN(bool more, ReadBlock(f.get(), path, &payload,
                                               &consumed, commit_log));
    if (!more) return offset;
    DBFA_RETURN_IF_ERROR(fn(offset, payload));
    offset += consumed;
  }
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  return ReadWhole<std::string>(path);
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  return ReadWhole<Bytes>(path);
}

Status WriteFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoError("create", path);
  int err = 0;
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f) != contents.size()) {
    err = errno;
  }
  if (std::fflush(f) != 0 && err == 0) err = errno;
  if (std::fclose(f) != 0 && err == 0) err = errno;
  if (err != 0) return ErrnoError("write", path, err);
  return Status::Ok();
}

Result<AppendOnlyFile> AppendOnlyFile::Open(const std::string& path) {
  AppendOnlyFile file;
  file.path_ = path;
  DBFA_ASSIGN_OR_RETURN(file.f_, OpenFile(path, "ab"));
  return file;
}

Status AppendOnlyFile::Append(std::string_view data) {
  if (f_ == nullptr) return Status::FailedPrecondition("append: file closed");
  if ((!data.empty() &&
       std::fwrite(data.data(), 1, data.size(), f_.get()) != data.size()) ||
      std::fflush(f_.get()) != 0) {
    return ErrnoError("append", path_);
  }
  return Status::Ok();
}

Result<BlockReader> BlockReader::Open(const std::string& path) {
  BlockReader reader;
  reader.path_ = path;
  DBFA_ASSIGN_OR_RETURN(reader.f_, OpenFile(path, "rb"));
  return reader;
}

Result<bool> BlockReader::Next(std::string* payload) {
  uint64_t consumed = 0;
  DBFA_ASSIGN_OR_RETURN(bool more,
                        ReadBlock(f_.get(), path_, payload, &consumed));
  offset_ += consumed;
  return more;
}

Status ScanBlocks(const std::string& path, const BlockVisitor& fn) {
  return Scan(path, /*commit_log=*/false, fn).status();
}

Result<uint64_t> ScanCommitLog(const std::string& path,
                               const BlockVisitor& fn) {
  return Scan(path, /*commit_log=*/true, fn);
}

Result<BlockFile> BlockFile::Open(const std::string& path) {
  // "ab+": reads seek anywhere, writes always land at the end.
  DBFA_ASSIGN_OR_RETURN(FilePtr f, OpenFile(path, "ab+"));
  return Adopt(path, std::move(f));
}

Result<BlockFile> BlockFile::CreateLocked(const std::string& path,
                                          std::string_view first) {
  DBFA_ASSIGN_OR_RETURN(FilePtr f, OpenAppendable(path, O_CREAT | O_EXCL));
  Result<BlockFile> created = [&]() -> Result<BlockFile> {
    DBFA_RETURN_IF_ERROR(LockExclusive(f.get(), path));
    DBFA_ASSIGN_OR_RETURN(BlockFile file, Adopt(path, std::move(f)));
    DBFA_RETURN_IF_ERROR(file.Append(first).status());
    return file;
  }();
  // The file is this call's own: without it a retry would be AlreadyExists.
  if (!created.ok()) unlink(path.c_str());
  return created;
}

Result<BlockFile> BlockFile::OpenLocked(const std::string& path) {
  DBFA_ASSIGN_OR_RETURN(FilePtr f, OpenAppendable(path, 0));
  DBFA_RETURN_IF_ERROR(LockExclusive(f.get(), path));
  return Adopt(path, std::move(f));
}

Result<BlockFile> BlockFile::Adopt(const std::string& path, FilePtr f) {
  BlockFile file;
  file.path_ = path;
  file.f_ = std::move(f);
  struct stat st;
  if (fstat(fileno(file.f_.get()), &st) != 0) return ErrnoError("stat", path);
  file.size_ = static_cast<uint64_t>(st.st_size);
  return file;
}

Status BlockFile::RecoverCommitted(const BlockVisitor& fn) {
  DBFA_ASSIGN_OR_RETURN(uint64_t committed, ScanCommitLog(path_, fn));
  return TruncateTo(committed);
}

Status BlockFile::TruncateTo(uint64_t size) {
  if (size >= size_) return Status::Ok();
  if (ftruncate(fileno(f_.get()), static_cast<off_t>(size)) != 0) {
    return ErrnoError("truncate", path_);
  }
  size_ = size;
  return Status::Ok();
}

Result<uint64_t> BlockFile::Append(std::string_view payload) {
  if (torn_) {
    return Status::IoError(StrFormat(
        "append %s: an earlier append failed; the tail is unknown",
        path_.c_str()));
  }
  std::FILE* f = f_.get();
  if (read_since_write_) {
    if (std::fseek(f, 0, SEEK_END) != 0) return ErrnoError("seek", path_);
    read_since_write_ = false;
  }
  uint8_t header[kHeaderSize];
  WriteU32(header, static_cast<uint32_t>(payload.size()),
           /*big_endian=*/false);
  WriteU32(header + 4, Crc32(AsByteView(payload)), /*big_endian=*/false);
  if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header) ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), f) != payload.size()) ||
      std::fflush(f) != 0) {
    torn_ = true;
    return ErrnoError("append", path_);
  }
  uint64_t offset = size_;
  size_ += kHeaderSize + payload.size();
  return offset;
}

Status BlockFile::ReadAt(uint64_t offset, std::string* payload) const {
  read_since_write_ = true;
  std::clearerr(f_.get());  // a failed append must not poison later reads
  uint64_t consumed = 0;
  bool found = false;
  if (std::fseek(f_.get(), static_cast<long>(offset), SEEK_SET) == 0) {
    DBFA_ASSIGN_OR_RETURN(found,
                          ReadBlock(f_.get(), path_, payload, &consumed));
  }
  if (!found) {
    return Status::Corruption(StrFormat(
        "block file %s: no block at offset %llu", path_.c_str(),
        static_cast<unsigned long long>(offset)));
  }
  return Status::Ok();
}

}  // namespace dbfa
