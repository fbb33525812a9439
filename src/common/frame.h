#ifndef PROVDB_COMMON_FRAME_H_
#define PROVDB_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/result.h"

namespace provdb {

/// The one frame codec. Every record the system persists or ships — a
/// WAL entry, a checkpoint frame, a network request or response — travels
/// as
///
///   varint(len) || payload || crc32(payload) fixed32
///
/// The length varint must be canonical (its shortest form), so each
/// payload has exactly one framed byte string. Files that hold frames
/// (WAL segments, checkpoints) open with a 20-byte header
///
///   magic (8 B) || fixed64 value || crc32(magic || value) fixed32
///
/// whose magic ends in the format's version digit.

/// Appends the frame of `payload` to `dst`.
void AppendFrame(Bytes* dst, ByteView payload);

/// The frame of `payload`.
Bytes EncodeFrame(ByteView payload);

/// What DecodeFrame found at the start of its input.
enum class FrameResult {
  kFrame,      // a complete frame whose CRC matches its payload
  kNeedMore,   // a valid frame prefix: the input ends inside the frame
  kBadLength,  // a malformed length varint, or a length over the bound
  kBadCrc,     // a complete frame whose CRC does not match
};

struct DecodedFrame {
  FrameResult result = FrameResult::kNeedMore;
  /// kFrame and kBadCrc: the frame's full size (length, payload, CRC).
  size_t size = 0;
  /// kFrame: the payload, a view into the decoded input.
  ByteView payload;
  /// Every result but kFrame: what is wrong, for error messages.
  const char* what = "";
};

/// Strict decoder for the frame at the start of `input`. A length over
/// `max_payload` is kBadLength as soon as the length varint is complete,
/// before any payload byte has arrived.
DecodedFrame DecodeFrame(ByteView input, uint64_t max_payload);

/// DecodeFrame for a receive buffer. Returns true with `*consumed` (the
/// frame's full size) and `*payload` set for a complete frame, false
/// when more bytes are needed, and kCorruption for a bad length or CRC,
/// after which the stream cannot be resynchronized.
Result<bool> TryDecodeFrame(ByteView buf, size_t max_payload,
                            size_t* consumed, Bytes* payload);

inline constexpr size_t kFileHeaderSize = 8 + 8 + 4;

/// The file header `magic || value || crc32(magic || value)`.
Bytes EncodeFileHeader(const char (&magic)[8], uint64_t value);

/// The value of the file header at the start of `file`. Empty when the
/// file is shorter than a header, or its magic or CRC does not match.
std::optional<uint64_t> ReadFileHeader(ByteView file,
                                       const char (&magic)[8]);

}  // namespace provdb

#endif  // PROVDB_COMMON_FRAME_H_
