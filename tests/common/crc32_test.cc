#include "common/crc32.h"

#include <gtest/gtest.h>

namespace provdb {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(Crc32(ByteView(std::string_view("123456789"))), 0xCBF43926u);
  EXPECT_EQ(Crc32(ByteView(std::string_view("a"))), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(ByteView(std::string_view("abc"))), 0x352441C2u);
  EXPECT_EQ(Crc32(ByteView()), 0x00000000u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  std::string full = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= full.size(); split += 7) {
    uint32_t part = Crc32(ByteView(std::string_view(full).substr(0, split)));
    uint32_t whole =
        Crc32Extend(part, ByteView(std::string_view(full).substr(split)));
    EXPECT_EQ(whole, Crc32(ByteView(std::string_view(full)))) << split;
  }
}

// A bit-at-a-time CRC-32 written out here, so the table-driven loop is
// checked against the polynomial itself rather than against its own
// tables.
uint32_t BitwiseCrc32(ByteView data) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < data.size(); ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedLoopMatchesBitwiseReference) {
  // Fixed pseudo-random bytes (an LCG), so every table entry a wrong
  // slice could reach is likely hit.
  Bytes buffer(256 + 8);
  uint32_t x = 0x2545F491u;
  for (uint8_t& byte : buffer) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<uint8_t>(x >> 16);
  }
  // Every length 0..256 from every start offset 0..7: the 8-byte steps,
  // the bytewise tail, and every alignment of both.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 256; ++length) {
      ByteView view(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(view), BitwiseCrc32(view))
          << "offset " << offset << " length " << length;
    }
  }
  // Extending across every split point of a 64-byte buffer.
  ByteView whole(buffer.data(), 64);
  const uint32_t expected = BitwiseCrc32(whole);
  for (size_t split = 0; split <= whole.size(); ++split) {
    EXPECT_EQ(Crc32Extend(Crc32(whole.subview(0, split)), whole.subview(split)),
              expected)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Bytes data(64, 0x5A);
  uint32_t original = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 9) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(mutated), original) << byte << ":" << bit;
    }
  }
}

}  // namespace
}  // namespace provdb
