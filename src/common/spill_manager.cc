#include "common/spill_manager.h"

#include <unistd.h>

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/strings.h"

namespace dbfa {

// ---- SpillFile ----------------------------------------------------------

SpillFile::SpillFile(SpillFile&& other) noexcept
    : manager_(other.manager_),
      path_(std::exchange(other.path_, {})),
      file_(std::move(other.file_)),
      blocks_(other.blocks_) {}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    Close();
    manager_ = other.manager_;
    path_ = std::exchange(other.path_, {});
    file_ = std::move(other.file_);
    blocks_ = other.blocks_;
  }
  return *this;
}

SpillFile::~SpillFile() { Close(); }

void SpillFile::Close() {
  file_ = BlockFile();
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best effort; dir removal backstops
    path_.clear();
  }
}

Status SpillFile::AppendBlock(std::string_view payload) {
  if (path_.empty()) {
    return Status::Internal("spill file is closed");
  }
  DBFA_RETURN_IF_ERROR(file_.Append(payload).status());
  ++blocks_;
  manager_->blocks_written_.fetch_add(1, std::memory_order_relaxed);
  manager_->bytes_written_.fetch_add(payload.size(),
                                     std::memory_order_relaxed);
  return Status::Ok();
}

Result<SpillFile::Reader> SpillFile::OpenReader() const {
  if (path_.empty()) {
    return Status::Internal("spill file is closed");
  }
  DBFA_ASSIGN_OR_RETURN(BlockReader blocks, BlockReader::Open(path_));
  return Reader(manager_, std::move(blocks));
}

Result<bool> SpillFile::Reader::NextBlock(std::string* payload) {
  DBFA_ASSIGN_OR_RETURN(bool more, blocks_.Next(payload));
  if (more) {
    manager_->blocks_read_.fetch_add(1, std::memory_order_relaxed);
    manager_->bytes_read_.fetch_add(payload->size(),
                                    std::memory_order_relaxed);
  }
  return more;
}

// ---- SpillManager -------------------------------------------------------

SpillManager::SpillManager(std::string root) : root_(std::move(root)) {}

SpillManager::~SpillManager() {
  // Detach the directory name under the lock, delete outside it: remove_all
  // is blocking file I/O and needs no exclusion once dir_ is cleared (no
  // CreateFile may race the destructor per the class contract).
  std::string dir;
  {
    MutexLock lock(&mu_);
    dir = std::move(dir_);
    dir_.clear();
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // backstop for leaked files
  }
}

Status SpillManager::EnsureDirOnce() {
  {
    MutexLock lock(&mu_);
    if (!dir_.empty()) return Status::Ok();
  }
  // All directory I/O runs unlocked; the commit below resolves races.
  std::error_code ec;
  std::filesystem::path root =
      root_.empty() ? std::filesystem::temp_directory_path(ec)
                    : std::filesystem::path(root_);
  if (ec) {
    return Status::IoError("no temp directory: " + ec.message());
  }
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IoError(StrFormat("create %s: %s", root.c_str(),
                                     ec.message().c_str()));
  }
  // Unique per manager: pid + the manager's address disambiguate managers
  // within and across processes sharing one root; the attempt counter
  // disambiguates concurrent first calls on one manager.
  for (uint64_t attempt = 0; attempt < 1024; ++attempt) {
    std::filesystem::path candidate =
        root / StrFormat("dbfa-spill-%d-%p-%llu", static_cast<int>(getpid()),
                         static_cast<const void*>(this),
                         static_cast<unsigned long long>(attempt));
    if (std::filesystem::create_directory(candidate, ec)) {
      bool won;
      {
        MutexLock lock(&mu_);
        won = dir_.empty();
        if (won) dir_ = candidate.string();
      }
      if (!won) {
        // Another thread committed first; discard our candidate and use
        // the winner's directory.
        std::filesystem::remove(candidate, ec);
      }
      return Status::Ok();
    }
    if (ec) {
      return Status::IoError(StrFormat("create %s: %s", candidate.c_str(),
                                       ec.message().c_str()));
    }
  }
  return Status::Internal("could not create a unique spill directory");
}

Result<SpillFile> SpillManager::CreateFile() {
  DBFA_RETURN_IF_ERROR(EnsureDirOnce());
  std::string path;
  {
    MutexLock lock(&mu_);
    path = (std::filesystem::path(dir_) /
            StrFormat("run-%06llu.spill",
                      static_cast<unsigned long long>(next_id_++)))
               .string();
  }
  DBFA_ASSIGN_OR_RETURN(BlockFile file, BlockFile::Open(path));
  files_created_.fetch_add(1, std::memory_order_relaxed);
  return SpillFile(this, std::move(path), std::move(file));
}

SpillStats SpillManager::stats() const {
  SpillStats s;
  s.files_created = files_created_.load(std::memory_order_relaxed);
  s.blocks_written = blocks_written_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.blocks_read = blocks_read_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  return s;
}

std::string SpillManager::dir() const {
  MutexLock lock(&mu_);
  return dir_;
}

}  // namespace dbfa
