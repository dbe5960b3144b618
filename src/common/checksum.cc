#include "common/checksum.h"

#include <array>
#include <cstring>

namespace dbfa {
namespace {

// Slice-by-8 CRC-32: table[0] is the classic bytewise table; table[k]
// maps a byte processed k positions before the end of an 8-byte group.
// Same polynomial, same values as the bytewise loop — only faster.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

const std::array<std::array<uint32_t, 256>, 8>& CrcTables() {
  static const std::array<std::array<uint32_t, 256>, 8>& tables =
      *new std::array<std::array<uint32_t, 256>, 8>(MakeCrcTables());
  return tables;
}

/// Advances CRC state `c` over `data` (no pre/post inversion).
uint32_t CrcUpdate(uint32_t c, ByteView data) {
  const auto& tables = CrcTables();
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
        tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
        tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  const auto& table = tables[0];
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

// Fletcher-16 with the mod-255 reduction deferred to once per block.
// From sums below 255, a block of kFletcherBlock bytes of 0xFF leaves
// sum2 <= 254 + 254 n + 255 n (n + 1) / 2, about 2.14e9 for n = 4096,
// below 2^32; reducing per block instead of per byte yields the same
// values, since every step is taken modulo 255.
constexpr size_t kFletcherBlock = 4096;

/// Advances Fletcher-16 sums (each below 255) over `data`.
void FletcherUpdate(uint32_t* sum1, uint32_t* sum2, ByteView data) {
  uint32_t a = *sum1;
  uint32_t b = *sum2;
  const uint8_t* p = data.data();
  for (size_t n = data.size(); n > 0;) {
    size_t len = n < kFletcherBlock ? n : kFletcherBlock;
    for (size_t i = 0; i < len; ++i) {
      a += p[i];
      b += a;
    }
    a %= 255;
    b %= 255;
    p += len;
    n -= len;
  }
  *sum1 = a;
  *sum2 = b;
}

/// XOR-folds `data` into `x`: eight bytes per step, then the 64-bit word
/// folded to one byte (XOR is associative, so word order does not matter).
uint8_t XorUpdate(uint8_t x, ByteView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t word = 0;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    word ^= chunk;
  }
  word ^= word >> 32;
  word ^= word >> 16;
  word ^= word >> 8;
  x ^= static_cast<uint8_t>(word);
  for (size_t i = 0; i < n; ++i) x ^= p[i];
  return x;
}

}  // namespace

const char* ChecksumKindName(ChecksumKind kind) {
  switch (kind) {
    case ChecksumKind::kNone:
      return "none";
    case ChecksumKind::kCrc32:
      return "crc32";
    case ChecksumKind::kFletcher16:
      return "fletcher16";
    case ChecksumKind::kXor8:
      return "xor8";
  }
  return "unknown";
}

uint32_t Crc32(ByteView data) {
  return CrcUpdate(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

uint16_t Fletcher16(ByteView data) {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;
  FletcherUpdate(&sum1, &sum2, data);
  return static_cast<uint16_t>((sum2 << 8) | sum1);
}

uint8_t Xor8(ByteView data) { return XorUpdate(0, data); }

size_t ChecksumWidth(ChecksumKind kind) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kCrc32:
      return 4;
    case ChecksumKind::kFletcher16:
      return 2;
    case ChecksumKind::kXor8:
      return 1;
  }
  return 0;
}

ChecksumStream::ChecksumStream(ChecksumKind kind) : kind_(kind) {
  if (kind_ == ChecksumKind::kCrc32) a_ = 0xFFFFFFFFu;
}

void ChecksumStream::Update(ByteView data) {
  switch (kind_) {
    case ChecksumKind::kNone:
      break;
    case ChecksumKind::kCrc32:
      a_ = CrcUpdate(a_, data);
      break;
    case ChecksumKind::kFletcher16:
      FletcherUpdate(&a_, &b_, data);
      break;
    case ChecksumKind::kXor8:
      a_ = XorUpdate(static_cast<uint8_t>(a_), data);
      break;
  }
}

uint32_t ChecksumStream::Final() const {
  switch (kind_) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kCrc32:
      return a_ ^ 0xFFFFFFFFu;
    case ChecksumKind::kFletcher16:
      return (b_ << 8) | a_;
    case ChecksumKind::kXor8:
      return a_ & 0xFF;
  }
  return 0;
}

uint32_t ComputeChecksum(ChecksumKind kind, ByteView data) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kCrc32:
      return Crc32(data);
    case ChecksumKind::kFletcher16:
      return Fletcher16(data);
    case ChecksumKind::kXor8:
      return Xor8(data);
  }
  return 0;
}

}  // namespace dbfa
