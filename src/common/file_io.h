// The file seam: the only code in src/ and tools/ that opens files
// (dbfa_lint rule raw-file-io). Every open, read, write, flush and close
// result is checked here and reported as Status::IoError — a read that
// quietly comes back empty, or a write that quietly loses data, would turn
// into a wrong forensic verdict. Writes reach the OS (fflush) before a call
// returns; nothing here calls fsync.
//
// Block files are the one framed on-disk format (docs/FORMAT.md, "Block
// files"): u32 LE payload_size | u32 LE crc32(payload) | payload, payloads
// capped at 64 MiB. A torn or bit-flipped block reads back as
// Status::Corruption.
#ifndef DBFA_COMMON_FILE_IO_H_
#define DBFA_COMMON_FILE_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace dbfa {

/// Reads a whole file; a directory (EISDIR) is an IoError like any other.
Result<std::string> ReadFile(const std::string& path);
Result<Bytes> ReadFileBytes(const std::string& path);

/// Creates or truncates `path` and writes `contents`.
Status WriteFile(const std::string& path, std::string_view contents);

/// Writes `<path>.tmp`, then renames it over `path` — the commit point: a
/// concurrent reader sees the old file or the new one, never a partial one.
Status CommitFile(const std::string& path, std::string_view contents);

// Closing unchecked is safe: every write path has already flushed and
// checked.
using FilePtr = std::unique_ptr<std::FILE, decltype(&std::fclose)>;

/// A file held open for appending, created if missing.
class AppendOnlyFile {
 public:
  AppendOnlyFile() = default;  // closed
  static Result<AppendOnlyFile> Open(const std::string& path);

  Status Append(std::string_view data);

 private:
  std::string path_;
  FilePtr f_{nullptr, &std::fclose};
};

/// Sequential cursor over a block file, with its own handle: readers
/// advance independently of each other and of the writer.
class BlockReader {
 public:
  static Result<BlockReader> Open(const std::string& path);

  /// Reads the next block. Returns false at a clean end of file.
  Result<bool> Next(std::string* payload);

  /// Offset of the next block: the bytes consumed so far.
  uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  FilePtr f_{nullptr, &std::fclose};
  uint64_t offset_ = 0;
};

/// Visits every block of `path` in file order as fn(offset, payload) ->
/// Status, stopping at the first error; a torn tail is Corruption.
template <typename Fn>
Status ScanBlocks(const std::string& path, Fn&& fn) {
  DBFA_ASSIGN_OR_RETURN(BlockReader reader, BlockReader::Open(path));
  std::string payload;
  for (;;) {
    uint64_t offset = reader.offset();
    DBFA_ASSIGN_OR_RETURN(bool more, reader.Next(&payload));
    if (!more) return Status::Ok();
    DBFA_RETURN_IF_ERROR(fn(offset, payload));
  }
}

/// An append-only block file that tracks its own end offset.
class BlockFile {
 public:
  BlockFile() = default;  // closed

  /// Opens `path`, creating it if missing; appends land after any
  /// existing blocks.
  static Result<BlockFile> Open(const std::string& path);

  /// Appends one block and returns its start offset. After a failed append
  /// the tail is unknown, so every later Append fails too.
  Result<uint64_t> Append(std::string_view payload);

  /// Reads the block starting at `offset` (from Append or a scan);
  /// Corruption when no valid block is there.
  Status ReadAt(uint64_t offset, std::string* payload) const;

 private:
  std::string path_;
  FilePtr f_{nullptr, &std::fclose};
  uint64_t size_ = 0;
  bool torn_ = false;
  // stdio needs a seek between a read and a write on one stream.
  mutable bool read_since_write_ = false;
};

}  // namespace dbfa

#endif  // DBFA_COMMON_FILE_IO_H_
