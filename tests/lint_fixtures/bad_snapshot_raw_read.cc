// dbfa-lint-fixture: path=src/snapshot/repo.cc rule=raw-byte-read expect=2
// Known-bad input for dbfa_lint --self-test: the snapshot subsystem must
// not grow raw byte reads outside snapshot_codec.cc — only the codec file
// is allowlisted (tools/dbfa_lint/allowlist.txt), so punning in any other
// src/snapshot/ file (pretend path above) must be flagged. Never compiled.
#include <cstdint>
#include <cstring>

namespace dbfa {

uint64_t HashWordInRepo(const uint8_t* p) {
  // BAD: word load belongs in snapshot_codec.cc, the audited codec file.
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint32_t PeekStoredCrc(const char* block) {
  // BAD: unaudited reinterpret_cast over repository file bytes.
  return *reinterpret_cast<const uint32_t*>(block + 4);
}

}  // namespace dbfa
