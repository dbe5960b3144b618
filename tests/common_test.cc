#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/hexdump.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace dbfa {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad page");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad page");
  EXPECT_EQ(s.ToString(), "CORRUPTION: bad page");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status UseAssignOrReturn(int x, int* out) {
  DBFA_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseAssignOrReturn(0, &out).ok());
}

// ---- bytes ------------------------------------------------------------------

TEST(BytesTest, FixedWidthRoundTripBothEndians) {
  uint8_t buf[8];
  for (bool be : {false, true}) {
    WriteU16(buf, 0xBEEF, be);
    EXPECT_EQ(ReadU16(buf, be), 0xBEEF);
    WriteU32(buf, 0xDEADBEEF, be);
    EXPECT_EQ(ReadU32(buf, be), 0xDEADBEEFu);
    WriteU64(buf, 0x0123456789ABCDEFull, be);
    EXPECT_EQ(ReadU64(buf, be), 0x0123456789ABCDEFull);
  }
}

TEST(BytesTest, EndiannessActuallyDiffers) {
  uint8_t le[4];
  uint8_t be[4];
  WriteU32(le, 0x11223344, false);
  WriteU32(be, 0x11223344, true);
  EXPECT_EQ(le[0], 0x44);
  EXPECT_EQ(be[0], 0x11);
}

TEST(BytesTest, TryReadRejectsOutOfBounds) {
  Bytes b = {1, 2, 3};
  EXPECT_TRUE(TryReadU16(b, 1, false).has_value());
  EXPECT_FALSE(TryReadU16(b, 2, false).has_value());
  EXPECT_FALSE(TryReadU32(b, 0, false).has_value());
}

TEST(BytesTest, VarintRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    Bytes buf;
    size_t n = AppendVarint(&buf, v);
    EXPECT_EQ(n, buf.size());
    EXPECT_EQ(n, VarintLength(v));
    size_t consumed = 0;
    auto decoded = DecodeVarint(buf, 0, &consumed);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(consumed, n);
  }
}

TEST(BytesTest, VarintRejectsTruncation) {
  Bytes buf = {0x80, 0x80};  // two continuation bytes, no terminator
  EXPECT_FALSE(DecodeVarint(buf, 0, nullptr).has_value());
}

TEST(BytesTest, ByteViewSliceClamps) {
  Bytes b = {1, 2, 3, 4, 5};
  ByteView v(b);
  EXPECT_EQ(v.Slice(2).size(), 3u);
  EXPECT_EQ(v.Slice(2, 2).size(), 2u);
  EXPECT_EQ(v.Slice(9).size(), 0u);
  EXPECT_EQ(v.Slice(2)[0], 3);
}

// ---- checksums --------------------------------------------------------------

TEST(ChecksumTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (classic check value).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(ByteView(reinterpret_cast<const uint8_t*>(s), 9)),
            0xCBF43926u);
}

TEST(ChecksumTest, FletcherAndXorDetectChanges) {
  Bytes data(512, 0xAB);
  uint16_t f = Fletcher16(data);
  uint8_t x = Xor8(data);
  data[100] ^= 0x01;
  EXPECT_NE(Fletcher16(data), f);
  EXPECT_NE(Xor8(data), x);
}

TEST(ChecksumTest, StreamMatchesOneShot) {
  Bytes data;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.NextU64()));
  }
  for (ChecksumKind kind : {ChecksumKind::kCrc32, ChecksumKind::kFletcher16,
                            ChecksumKind::kXor8}) {
    ChecksumStream stream(kind);
    stream.Update(ByteView(data.data(), 123));
    stream.Update(ByteView(data.data() + 123, data.size() - 123));
    EXPECT_EQ(stream.Final(), ComputeChecksum(kind, data))
        << ChecksumKindName(kind);
  }
}

// Bytewise definitions, kept here as the oracle for the fast kernels
// (slice-by-8 CRC-32, Fletcher-16 reduced once per 4096-byte block).
uint32_t ReferenceChecksum(ChecksumKind kind, const Bytes& data) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kCrc32: {
      uint32_t c = 0xFFFFFFFFu;
      for (uint8_t byte : data) {
        c ^= byte;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
      }
      return c ^ 0xFFFFFFFFu;
    }
    case ChecksumKind::kFletcher16: {
      uint32_t sum1 = 0;
      uint32_t sum2 = 0;
      for (uint8_t byte : data) {
        sum1 = (sum1 + byte) % 255;
        sum2 = (sum2 + sum1) % 255;
      }
      return (sum2 << 8) | sum1;
    }
    case ChecksumKind::kXor8: {
      uint32_t x = 0;
      for (uint8_t byte : data) x ^= byte;
      return x;
    }
  }
  return 0;
}

TEST(ChecksumTest, KernelsMatchBytewiseReference) {
  // Lengths span the 4096-byte Fletcher block on both sides, twice over,
  // up to 32 KiB; all-0xFF input is the largest the deferred sums get.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (size_t n : {255, 256, 4095, 4096, 4097, 6000, 8191, 8192, 8193, 8199,
                   12288, 12289, 32768}) {
    lengths.push_back(n);
  }
  Rng rng(4096);
  for (int fill : {-1, 0xFF, 0x00}) {
    for (size_t n : lengths) {
      Bytes data(n);
      for (uint8_t& byte : data) {
        byte = fill < 0 ? static_cast<uint8_t>(rng.NextU64())
                        : static_cast<uint8_t>(fill);
      }
      for (ChecksumKind kind : {ChecksumKind::kCrc32, ChecksumKind::kFletcher16,
                                ChecksumKind::kXor8}) {
        SCOPED_TRACE(StrFormat("%s fill=%d n=%zu", ChecksumKindName(kind), fill,
                               n));
        EXPECT_EQ(ComputeChecksum(kind, data), ReferenceChecksum(kind, data));
        // Streamed after a prefix, so the state is not zero on entry. Trial
        // 0 prefixes 0xFE, which leaves both Fletcher sums at 254, their
        // maximum, and sends the rest whole; later trials use a random
        // prefix and random split points (empty pieces included).
        for (int trial = 0; trial < 3; ++trial) {
          Bytes all;
          if (trial == 0) {
            all.push_back(0xFE);
          } else {
            all.resize(static_cast<size_t>(rng.Uniform(1, 300)));
            for (uint8_t& byte : all) {
              byte = static_cast<uint8_t>(rng.NextU64());
            }
          }
          ChecksumStream stream(kind);
          stream.Update(all);
          all.insert(all.end(), data.begin(), data.end());
          size_t pos = all.size() - n;
          while (pos < all.size()) {
            size_t left = all.size() - pos;
            size_t len = trial == 0 ? left
                                    : static_cast<size_t>(rng.Uniform(
                                          0, static_cast<int64_t>(left)));
            stream.Update(ByteView(all.data() + pos, len));
            pos += len;
          }
          EXPECT_EQ(stream.Final(), ReferenceChecksum(kind, all))
              << "trial " << trial;
        }
      }
    }
  }
}

TEST(ChecksumTest, Widths) {
  EXPECT_EQ(ChecksumWidth(ChecksumKind::kNone), 0u);
  EXPECT_EQ(ChecksumWidth(ChecksumKind::kCrc32), 4u);
  EXPECT_EQ(ChecksumWidth(ChecksumKind::kFletcher16), 2u);
  EXPECT_EQ(ChecksumWidth(ChecksumKind::kXor8), 1u);
}

// ---- strings ----------------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b"}, "; "), "a; b");
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringsTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("Christine", "Chris%"));
  EXPECT_TRUE(LikeMatch("Christopher", "Chris%"));
  EXPECT_FALSE(LikeMatch("Thomas", "Chris%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abbc", "a_c"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
  EXPECT_TRUE(LikeMatch("xayb", "%a%b"));
}

TEST(StringsTest, SqlQuote) {
  EXPECT_EQ(SqlQuote("it's"), "'it''s'");
  EXPECT_EQ(SqlQuote(""), "''");
}

// ---- rng / hexdump ----------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  Rng c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, WordIsUpperAscii) {
  Rng rng(1);
  std::string w = rng.Word(16);
  EXPECT_EQ(w.size(), 16u);
  for (char c : w) {
    EXPECT_GE(c, 'A');
    EXPECT_LE(c, 'Z');
  }
}

TEST(HexdumpTest, FormatsOffsetsAndAscii) {
  Bytes data = {'H', 'i', 0x00, 0xFF};
  std::string dump = HexDump(data, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|Hi..|"), std::string::npos);
  EXPECT_EQ(HexBytes(data), "48 69 00 FF");
}

}  // namespace
}  // namespace dbfa
