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
// Status::Corruption, except at the tail of a commit log, where a block cut
// short by end of file is an append that never completed.
#ifndef DBFA_COMMON_FILE_IO_H_
#define DBFA_COMMON_FILE_IO_H_

#include <cstdint>
#include <cstdio>
#include <functional>
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

  /// Reads the next block. Returns false at a clean end of file; a block
  /// cut short by the end of file is Corruption.
  Result<bool> Next(std::string* payload);

  /// Offset of the next block: the bytes consumed so far.
  uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  FilePtr f_{nullptr, &std::fclose};
  uint64_t offset_ = 0;
};

/// Visitor of a block scan: fn(offset, payload) -> Status; an error stops
/// the scan and is returned.
using BlockVisitor =
    std::function<Status(uint64_t offset, const std::string& payload)>;

/// Visits every block of `path` in file order; a torn tail is Corruption.
Status ScanBlocks(const std::string& path, const BlockVisitor& fn);

/// Visits every committed block of the commit log `path` like ScanBlocks
/// and returns the committed length: the end of the last whole block. A
/// final block cut short by the end of file never committed and is not
/// visited, unless whole blocks follow its header: then its size field is
/// damaged, which is Corruption. A complete block with a bad CRC is
/// Corruption wherever it lies. A commit log's blocks are never empty, and
/// a torn payload that embeds a whole block image reads as damage, so the
/// scan fails closed.
Result<uint64_t> ScanCommitLog(const std::string& path, const BlockVisitor& fn);

/// An append-only block file that tracks its own end offset.
class BlockFile {
 public:
  BlockFile() = default;  // closed

  /// Opens `path`, creating it if missing; appends land after any
  /// existing blocks.
  static Result<BlockFile> Open(const std::string& path);

  /// Creates the commit log `path` (AlreadyExists when it is there) under
  /// an exclusive lock, with `first` as its first block. A failure after
  /// the file was made removes it again, so a retry can create it.
  static Result<BlockFile> CreateLocked(const std::string& path,
                                        std::string_view first);

  /// Opens the existing file `path` (never creates it) under an exclusive
  /// lock: flock(LOCK_EX | LOCK_NB) on the handle's own descriptor, held
  /// for the handle's lifetime. Any other locked open of the file, in this
  /// process or another, is Status::Unavailable meanwhile; the kernel
  /// drops the lock when the handle closes or its process dies.
  static Result<BlockFile> OpenLocked(const std::string& path);

  /// On a locked commit log: visits its committed blocks like
  /// ScanCommitLog, then truncates a short final block (an append cut off
  /// by a crash) so that the next append lands after the last commit.
  Status RecoverCommitted(const BlockVisitor& fn);

  /// Appends one block and returns its start offset. After a failed append
  /// the tail is unknown, so every later Append fails too.
  Result<uint64_t> Append(std::string_view payload);

  /// Reads the block starting at `offset` (from Append or a scan);
  /// Corruption when no valid block is there.
  Status ReadAt(uint64_t offset, std::string* payload) const;

 private:
  static Result<BlockFile> Adopt(const std::string& path, FilePtr f);

  /// Drops the bytes past `size`; a no-op when the file ends at or before
  /// it.
  Status TruncateTo(uint64_t size);

  std::string path_;
  FilePtr f_{nullptr, &std::fclose};
  uint64_t size_ = 0;
  bool torn_ = false;
  // stdio needs a seek between a read and a write on one stream.
  mutable bool read_since_write_ = false;
};

}  // namespace dbfa

#endif  // DBFA_COMMON_FILE_IO_H_
