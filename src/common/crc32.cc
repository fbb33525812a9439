#include "common/crc32.h"

#include <array>

namespace provdb {

namespace {

/// Slice-by-8 tables. Table 0 is the bytewise table of the reflected
/// polynomial; table s advances a byte's contribution through s more
/// zero bytes, so one step folds 8 input bytes with 8 lookups.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t s = 1; s < tables.size(); ++s) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr SliceTables kTables = BuildTables();

inline uint32_t LoadLittleEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, ByteView data) {
  const auto& t = kTables;
  uint32_t c = crc ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLittleEndian32(p);
    const uint32_t hi = LoadLittleEndian32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(ByteView data) { return Crc32Extend(0, data); }

}  // namespace provdb
