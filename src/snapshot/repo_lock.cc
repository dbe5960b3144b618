#include "snapshot/repo_lock.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <filesystem>

#include "common/file_io.h"
#include "common/strings.h"

namespace dbfa {
namespace {

constexpr const char* kLockName = "repo.lock";

/// Reads the owner PID out of an existing lock file. Returns 0 when the
/// content is unreadable or unparseable — a crashed writer; treated as
/// stale, since a live owner always completes its single small write
/// before anyone can observe the file through Acquire's retry.
long ReadOwnerPid(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return 0;
  const char* end = text->data() + text->size();
  long pid = 0;
  auto [ptr, ec] = std::from_chars(text->data(), end, pid);
  if (ec != std::errc() || pid <= 0) return 0;
  // Trailing newline is fine; other trailing junk is not a PID we wrote.
  if (ptr != end && !(ptr + 1 == end && *ptr == '\n')) return 0;
  return pid;
}

bool ProcessAlive(long pid) {
  if (kill(static_cast<pid_t>(pid), 0) == 0) return true;
  // EPERM means the process exists but belongs to someone else.
  return errno == EPERM;
}

/// One O_EXCL creation attempt. Returns kOk on success, kAlreadyExists
/// when the file is there, kIoError otherwise.
Status TryCreate(const std::string& path) {
  // dbfa-lint: allow(raw-file-io): the lock is the atomic O_CREAT|O_EXCL
  // create itself (exactly one contender wins, EEXIST means busy), not
  // persisted state, so it stays outside the file seam.
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists(path);
    }
    return Status::IoError(
        StrFormat("repo lock: cannot create %s", path.c_str()));
  }
  std::string pid = StrFormat("%ld\n", static_cast<long>(getpid()));
  ssize_t written = ::write(fd, pid.data(), pid.size());
  bool ok = written == static_cast<ssize_t>(pid.size());
  ::close(fd);
  if (!ok) {
    ::unlink(path.c_str());
    return Status::IoError(
        StrFormat("repo lock: cannot write %s", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

Result<RepoLock> RepoLock::Acquire(const std::string& dir) {
  std::string path = (std::filesystem::path(dir) / kLockName).string();
  // Two rounds: a stale lock is reclaimed once; losing the re-creation
  // race after a reclaim means another live contender won — report busy.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status created = TryCreate(path);
    if (created.ok()) return RepoLock(path);
    if (created.code() != StatusCode::kAlreadyExists) return created;
    long owner = ReadOwnerPid(path);
    if (owner > 0 && ProcessAlive(owner)) {
      return Status::Unavailable(
          StrFormat("repository %s is locked by running process %ld",
                    dir.c_str(), owner));
    }
    if (attempt == 0) ::unlink(path.c_str());  // stale: reclaim and retry
  }
  return Status::Unavailable(
      StrFormat("repository %s is locked (lost reclaim race)", dir.c_str()));
}

RepoLock& RepoLock::operator=(RepoLock&& other) noexcept {
  if (this != &other) {
    Release();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

RepoLock::~RepoLock() { Release(); }

void RepoLock::Release() {
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace dbfa
