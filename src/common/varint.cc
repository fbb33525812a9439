#include "common/varint.h"

namespace provdb {

void AppendVarint64(Bytes* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void AppendVarintSigned64(Bytes* dst, int64_t v) {
  // Zigzag: maps small-magnitude negatives to small unsigned codes.
  uint64_t u = (static_cast<uint64_t>(v) << 1) ^
               static_cast<uint64_t>(v >> 63);
  AppendVarint64(dst, u);
}

void AppendLengthPrefixed(Bytes* dst, ByteView data) {
  AppendVarint64(dst, data.size());
  AppendBytes(dst, data);
}

Result<uint64_t> VarintReader::ReadVarint64() {
  uint64_t v = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    uint8_t b = data_[pos_++];
    if (shift >= 63 && (b & 0x7F) > 1) {
      return Status::Corruption("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // Canonical-form check: AppendVarint64 never emits a final byte of
      // zero except for the single-byte encoding of 0, so an overlong
      // encoding (e.g. 0x80 0x00 for 0) is not a value the serializer
      // can produce. Accepting it would break the encode/decode
      // bijection the tamper matrix and the wire protocol rely on: two
      // distinct byte strings would decode to the same record.
      if (b == 0 && shift > 0) {
        return Status::Corruption("non-canonical varint (overlong encoding)");
      }
      return v;
    }
    shift += 7;
    if (shift > 63) {
      return Status::Corruption("varint too long");
    }
  }
  return Status::Corruption("truncated varint");
}

Result<int64_t> VarintReader::ReadVarintSigned64() {
  PROVDB_ASSIGN_OR_RETURN(uint64_t u, ReadVarint64());
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Result<Bytes> VarintReader::ReadLengthPrefixed() {
  PROVDB_ASSIGN_OR_RETURN(ByteView field, ReadLengthPrefixedView());
  return field.ToBytes();
}

Result<ByteView> VarintReader::ReadLengthPrefixedView() {
  PROVDB_ASSIGN_OR_RETURN(uint64_t len, ReadVarint64());
  if (len > remaining()) {
    return Status::Corruption("length-prefixed field exceeds buffer");
  }
  const ByteView field = data_.subview(pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return field;
}

Result<ByteView> VarintReader::ReadRaw(size_t n) {
  if (n > remaining()) {
    return Status::Corruption("truncated raw field");
  }
  const ByteView field = data_.subview(pos_, n);
  pos_ += n;
  return field;
}

}  // namespace provdb
