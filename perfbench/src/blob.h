// Length-prefixed binary streams that carry generated inputs from the
// generator process to the measuring process. Fields are written in host
// byte order: both processes are the same binary on the same machine.
#ifndef PERFBENCH_BLOB_H_
#define PERFBENCH_BLOB_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace perfbench {

class BlobWriter {
 public:
  explicit BlobWriter(std::FILE* f) : f_(f) {}

  void U64(uint64_t v) { Put(&v, sizeof v); }
  void I64(int64_t v) { Put(&v, sizeof v); }
  void Str(std::string_view s) {
    U64(s.size());
    Put(s.data(), s.size());
  }
  void Blob(dbfa::ByteView b) {
    U64(b.size());
    Put(b.data(), b.size());
  }

  /// False once any write failed.
  bool ok() const { return ok_; }

 private:
  void Put(const void* p, size_t n) {
    if (n != 0 && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }

  std::FILE* f_;
  bool ok_ = true;
};

class BlobReader {
 public:
  explicit BlobReader(std::FILE* f) : f_(f) {}

  uint64_t U64() {
    uint64_t v = 0;
    Get(&v, sizeof v);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Get(&v, sizeof v);
    return v;
  }
  std::string Str() {
    std::string s(Length(), '\0');
    Get(s.data(), s.size());
    return s;
  }
  dbfa::Bytes Blob() {
    dbfa::Bytes b(Length());
    Get(b.data(), b.size());
    return b;
  }

  /// False once any read came up short or a length was implausible.
  bool ok() const { return ok_; }

 private:
  /// Lengths above 1 GiB can only come from a damaged file.
  size_t Length() {
    uint64_t n = U64();
    if (!ok_ || n > (uint64_t{1} << 30)) {
      ok_ = false;
      return 0;
    }
    return static_cast<size_t>(n);
  }
  void Get(void* p, size_t n) {
    if (n != 0 && (!ok_ || std::fread(p, 1, n, f_) != n)) ok_ = false;
  }

  std::FILE* f_;
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_BLOB_H_
