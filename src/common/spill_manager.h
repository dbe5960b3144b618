// Temp-file lifecycle for out-of-core query execution.
//
// A SpillManager owns one unique directory of spill files for the scope of
// a single operation (one meta-query). Operators obtain SpillFiles from it,
// append checksummed blocks of serialized rows, and read them back through
// independent cursors. Every file is unlinked when its SpillFile handle is
// destroyed and the directory itself is removed by ~SpillManager, so no
// temp data survives any exit path — success, error return, or stack
// unwinding (the RAII guard the out-of-core executor relies on).
//
// Spill files are block files (common/file_io.h, docs/FORMAT.md "Block
// files"): a torn or bit-flipped block surfaces as Status::Corruption
// instead of silently corrupting results.
//
// Concurrency contract: CreateFile() and stats() may be called from any
// thread; each SpillFile is single-writer (one partition, one thread), and
// a Reader must not outlive its SpillFile.
#ifndef DBFA_COMMON_SPILL_MANAGER_H_
#define DBFA_COMMON_SPILL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/file_io.h"
#include "common/mutex.h"
#include "common/status.h"

namespace dbfa {

/// Aggregate spill activity of one SpillManager (one query).
struct SpillStats {
  uint64_t files_created = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_written = 0;  // payload bytes, excluding block headers
  uint64_t blocks_read = 0;
  uint64_t bytes_read = 0;

  bool spilled() const { return bytes_written != 0; }
};

class SpillManager;

/// One spill file: append checksummed blocks, then read them back in order
/// through any number of independent Readers. Movable; unlinks its file on
/// destruction.
class SpillFile {
 public:
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  /// Appends one block. The payload is flushed to the OS before returning,
  /// so a Reader opened afterwards sees it.
  Status AppendBlock(std::string_view payload);

  size_t block_count() const { return blocks_; }
  const std::string& path() const { return path_; }

  /// Sequential cursor over the file's blocks. Independent of other
  /// readers; must not outlive the SpillFile.
  class Reader {
   public:
    /// Reads the next block into *payload. Returns false at end of file;
    /// Status::Corruption when a header or checksum does not verify.
    Result<bool> NextBlock(std::string* payload);

   private:
    friend class SpillFile;
    Reader(SpillManager* manager, BlockReader blocks)
        : manager_(manager), blocks_(std::move(blocks)) {}

    SpillManager* manager_;
    BlockReader blocks_;
  };

  Result<Reader> OpenReader() const;

 private:
  friend class SpillManager;
  SpillFile(SpillManager* manager, std::string path, BlockFile file)
      : manager_(manager), path_(std::move(path)), file_(std::move(file)) {}

  void Close();

  SpillManager* manager_;
  std::string path_;
  BlockFile file_;
  size_t blocks_ = 0;
};

/// Creates and tears down one unique spill directory; hands out SpillFiles.
class SpillManager {
 public:
  /// `root` is the directory under which the unique spill directory is
  /// created (itself created if missing); empty means the system temp
  /// directory. Nothing touches the filesystem until the first CreateFile.
  explicit SpillManager(std::string root = "");

  /// Removes every remaining spill file and the spill directory.
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Creates a new empty spill file. Thread-safe.
  Result<SpillFile> CreateFile();

  /// Snapshot of the spill counters. Thread-safe.
  SpillStats stats() const;

  /// The unique spill directory; empty until the first CreateFile.
  std::string dir() const;

 private:
  friend class SpillFile;

  /// Creates the unique spill directory on first use. Double-checked so the
  /// directory I/O runs outside mu_ (no blocking call under a ranked lock —
  /// docs/lock_order.md): losers of the creation race remove their candidate
  /// directory and adopt the winner's.
  Status EnsureDirOnce();

  std::string root_;
  mutable Mutex mu_{"spill_manager", lock_rank::kSpillManager};
  std::string dir_ DBFA_GUARDED_BY(mu_);
  uint64_t next_id_ DBFA_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> blocks_read_{0};
  std::atomic<uint64_t> bytes_read_{0};
};

}  // namespace dbfa

#endif  // DBFA_COMMON_SPILL_MANAGER_H_
