#include "crypto/sha1.h"

#include <cstring>

namespace provdb::crypto {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t LoadBigEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

/// Message word `t` (16 <= t < 80) from the 16-word ring `w`, which
/// holds words t-16 .. t-1; the new word overwrites word t-16.
inline uint32_t Schedule(uint32_t* w, int t) {
  const uint32_t word = Rotl(
      w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15], 1);
  w[t & 15] = word;
  return word;
}

// One round of each 20-round group (FIPS 180-1). A round adds into `e`
// and rotates `b`; instead of shifting the five words down after each
// round, the caller passes them renamed, so round t+1 reads round t's
// (e, a, b, c, d) as its (a, b, c, d, e) and every fifth round the names
// line up again. R0's choice and R2's majority are the standard's
// (b & c) | (~b & d) and (b & c) | (b & d) | (c & d) with fewer
// operations.
inline void R0(uint32_t a, uint32_t& b, uint32_t c, uint32_t d, uint32_t& e,
               uint32_t w) {
  e += Rotl(a, 5) + (d ^ (b & (c ^ d))) + 0x5A827999u + w;
  b = Rotl(b, 30);
}

inline void R1(uint32_t a, uint32_t& b, uint32_t c, uint32_t d, uint32_t& e,
               uint32_t w) {
  e += Rotl(a, 5) + (b ^ c ^ d) + 0x6ED9EBA1u + w;
  b = Rotl(b, 30);
}

inline void R2(uint32_t a, uint32_t& b, uint32_t c, uint32_t d, uint32_t& e,
               uint32_t w) {
  e += Rotl(a, 5) + ((b & c) | (d & (b | c))) + 0x8F1BBCDCu + w;
  b = Rotl(b, 30);
}

inline void R3(uint32_t a, uint32_t& b, uint32_t c, uint32_t d, uint32_t& e,
               uint32_t w) {
  e += Rotl(a, 5) + (b ^ c ^ d) + 0xCA62C1D6u + w;
  b = Rotl(b, 30);
}

}  // namespace

void Sha1Hasher::Reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1Hasher::Update(ByteView data) {
  // Empty views carry data() == nullptr, which memcpy below must not
  // see even when take == 0.
  if (data.empty()) return;
  total_bytes_ += data.size();
  size_t pos = 0;
  if (buffered_ > 0) {
    size_t need = kBlockSize - buffered_;
    size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    pos += take;
    if (buffered_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (pos + kBlockSize <= data.size()) {
    ProcessBlock(data.data() + pos);
    pos += kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Digest Sha1Hasher::Finish() {
  uint64_t bit_length = total_bytes_ * 8;
  uint8_t pad[kBlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  // Pad to 56 mod 64 (leaving 8 bytes for the length).
  size_t rem = (buffered_ + 1) % kBlockSize;
  size_t zeros = (rem <= 56) ? (56 - rem) : (kBlockSize + 56 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_length >> (8 * i));
  }
  // Feed padding through the normal path without re-counting its length.
  uint64_t saved_total = total_bytes_;
  Update(ByteView(pad, pad_len));
  total_bytes_ = saved_total;

  Digest d;
  d.set_size(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    StoreBigEndian32(d.mutable_data() + 4 * i, h_[i]);
  }
  return d;
}

void Sha1Hasher::ProcessBlock(const uint8_t* block) {
  uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBigEndian32(block + 4 * i);
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  R0(a, b, c, d, e, w[0]);
  R0(e, a, b, c, d, w[1]);
  R0(d, e, a, b, c, w[2]);
  R0(c, d, e, a, b, w[3]);
  R0(b, c, d, e, a, w[4]);
  R0(a, b, c, d, e, w[5]);
  R0(e, a, b, c, d, w[6]);
  R0(d, e, a, b, c, w[7]);
  R0(c, d, e, a, b, w[8]);
  R0(b, c, d, e, a, w[9]);
  R0(a, b, c, d, e, w[10]);
  R0(e, a, b, c, d, w[11]);
  R0(d, e, a, b, c, w[12]);
  R0(c, d, e, a, b, w[13]);
  R0(b, c, d, e, a, w[14]);
  R0(a, b, c, d, e, w[15]);
  R0(e, a, b, c, d, Schedule(w, 16));
  R0(d, e, a, b, c, Schedule(w, 17));
  R0(c, d, e, a, b, Schedule(w, 18));
  R0(b, c, d, e, a, Schedule(w, 19));

  R1(a, b, c, d, e, Schedule(w, 20));
  R1(e, a, b, c, d, Schedule(w, 21));
  R1(d, e, a, b, c, Schedule(w, 22));
  R1(c, d, e, a, b, Schedule(w, 23));
  R1(b, c, d, e, a, Schedule(w, 24));
  R1(a, b, c, d, e, Schedule(w, 25));
  R1(e, a, b, c, d, Schedule(w, 26));
  R1(d, e, a, b, c, Schedule(w, 27));
  R1(c, d, e, a, b, Schedule(w, 28));
  R1(b, c, d, e, a, Schedule(w, 29));
  R1(a, b, c, d, e, Schedule(w, 30));
  R1(e, a, b, c, d, Schedule(w, 31));
  R1(d, e, a, b, c, Schedule(w, 32));
  R1(c, d, e, a, b, Schedule(w, 33));
  R1(b, c, d, e, a, Schedule(w, 34));
  R1(a, b, c, d, e, Schedule(w, 35));
  R1(e, a, b, c, d, Schedule(w, 36));
  R1(d, e, a, b, c, Schedule(w, 37));
  R1(c, d, e, a, b, Schedule(w, 38));
  R1(b, c, d, e, a, Schedule(w, 39));

  R2(a, b, c, d, e, Schedule(w, 40));
  R2(e, a, b, c, d, Schedule(w, 41));
  R2(d, e, a, b, c, Schedule(w, 42));
  R2(c, d, e, a, b, Schedule(w, 43));
  R2(b, c, d, e, a, Schedule(w, 44));
  R2(a, b, c, d, e, Schedule(w, 45));
  R2(e, a, b, c, d, Schedule(w, 46));
  R2(d, e, a, b, c, Schedule(w, 47));
  R2(c, d, e, a, b, Schedule(w, 48));
  R2(b, c, d, e, a, Schedule(w, 49));
  R2(a, b, c, d, e, Schedule(w, 50));
  R2(e, a, b, c, d, Schedule(w, 51));
  R2(d, e, a, b, c, Schedule(w, 52));
  R2(c, d, e, a, b, Schedule(w, 53));
  R2(b, c, d, e, a, Schedule(w, 54));
  R2(a, b, c, d, e, Schedule(w, 55));
  R2(e, a, b, c, d, Schedule(w, 56));
  R2(d, e, a, b, c, Schedule(w, 57));
  R2(c, d, e, a, b, Schedule(w, 58));
  R2(b, c, d, e, a, Schedule(w, 59));

  R3(a, b, c, d, e, Schedule(w, 60));
  R3(e, a, b, c, d, Schedule(w, 61));
  R3(d, e, a, b, c, Schedule(w, 62));
  R3(c, d, e, a, b, Schedule(w, 63));
  R3(b, c, d, e, a, Schedule(w, 64));
  R3(a, b, c, d, e, Schedule(w, 65));
  R3(e, a, b, c, d, Schedule(w, 66));
  R3(d, e, a, b, c, Schedule(w, 67));
  R3(c, d, e, a, b, Schedule(w, 68));
  R3(b, c, d, e, a, Schedule(w, 69));
  R3(a, b, c, d, e, Schedule(w, 70));
  R3(e, a, b, c, d, Schedule(w, 71));
  R3(d, e, a, b, c, Schedule(w, 72));
  R3(c, d, e, a, b, Schedule(w, 73));
  R3(b, c, d, e, a, Schedule(w, 74));
  R3(a, b, c, d, e, Schedule(w, 75));
  R3(e, a, b, c, d, Schedule(w, 76));
  R3(d, e, a, b, c, Schedule(w, 77));
  R3(c, d, e, a, b, Schedule(w, 78));
  R3(b, c, d, e, a, Schedule(w, 79));

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

}  // namespace provdb::crypto
