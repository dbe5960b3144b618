// dbfa-lint-fixture: path=src/engine/bad_raw_file_io.cc rule=raw-file-io expect=5
//
// Hand-rolled file I/O outside common/file_io.cc. Each site below is a
// private copy of the file seam that can drop an error: the fread loop
// never checks ferror (a directory reads back as an empty file) and the
// fclose result is ignored (a full disk "saves" nothing). Never compiled;
// fed to dbfa_lint --self-test under the pretend path above.

#include <fcntl.h>

#include <cstdio>
#include <string>

namespace dbfa {

std::string LoadText(const std::string& path) {
  std::string text;
  FILE* f = std::fopen(path.c_str(), "r");  // finding 1 (fopen)
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void Redirect(const char* path) {
  freopen(path, "w", stdout);  // finding 2 (freopen)
}

void Wrap(int fd) {
  FILE* f = fdopen(fd, "r");  // finding 3 (fdopen)
  std::fclose(f);
}

void Commit(const std::string& tmp, const std::string& final_path) {
  int fd = ::open(tmp.c_str(), O_WRONLY);  // finding 4 (::open)
  (void)fd;
  std::rename(tmp.c_str(), final_path.c_str());  // finding 5 (std::rename)
}

// Member functions named open are not the libc call.
struct Stream {
  bool open(const char* path);
};
bool Probe(Stream* s) { return s->open("x"); }

}  // namespace dbfa
