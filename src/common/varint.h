#ifndef PROVDB_COMMON_VARINT_H_
#define PROVDB_COMMON_VARINT_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace provdb {

/// Appends `v` as a LEB128-style varint (7 bits per byte, MSB = continue).
void AppendVarint64(Bytes* dst, uint64_t v);

/// Appends a signed value using zigzag encoding.
void AppendVarintSigned64(Bytes* dst, int64_t v);

/// Appends a length-prefixed byte string (varint length, then the bytes).
void AppendLengthPrefixed(Bytes* dst, ByteView data);

/// Sequential decoder over a byte view. All getters fail with
/// `kCorruption` on truncated or malformed input.
class VarintReader {
 public:
  explicit VarintReader(ByteView data) : data_(data), pos_(0) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool done() const { return pos_ >= data_.size(); }

  Result<uint64_t> ReadVarint64();
  Result<int64_t> ReadVarintSigned64();
  /// Reads a varint length followed by that many bytes.
  Result<Bytes> ReadLengthPrefixed();
  /// The same, as a view into the reader's data.
  Result<ByteView> ReadLengthPrefixedView();
  /// Reads exactly `n` raw bytes, as a view into the reader's data.
  Result<ByteView> ReadRaw(size_t n);

 private:
  ByteView data_;
  size_t pos_;
};

}  // namespace provdb

#endif  // PROVDB_COMMON_VARINT_H_
