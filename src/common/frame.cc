#include "common/frame.h"

#include "common/crc32.h"
#include "common/varint.h"

namespace provdb {

namespace {

DecodedFrame Defect(FrameResult result, const char* what) {
  DecodedFrame frame;
  frame.result = result;
  frame.what = what;
  return frame;
}

ByteView MagicView(const char (&magic)[8]) {
  return ByteView(reinterpret_cast<const uint8_t*>(magic), sizeof(magic));
}

}  // namespace

void AppendFrame(Bytes* dst, ByteView payload) {
  AppendVarint64(dst, payload.size());
  AppendBytes(dst, payload);
  AppendFixed32(dst, Crc32(payload));
}

Bytes EncodeFrame(ByteView payload) {
  Bytes out;
  out.reserve(payload.size() + 10 + 4);  // worst-case varint, then CRC
  AppendFrame(&out, payload);
  return out;
}

DecodedFrame DecodeFrame(ByteView input, uint64_t max_payload) {
  // Parse the length varint byte by byte, so an incomplete prefix is
  // need-more while a malformed one is caught before the rest arrives.
  uint64_t len = 0;
  size_t header = 0;
  for (int shift = 0;; shift += 7) {
    if (header == input.size()) {
      return Defect(FrameResult::kNeedMore, "truncated frame length");
    }
    const uint8_t byte = input[header++];
    if (shift == 63 && (byte & 0xFE) != 0) {
      // The 10th byte can only carry bit 63; any higher bit (or a
      // further continuation) overflows, and shifting it out would
      // decode a wrong small length.
      return Defect(FrameResult::kBadLength,
                    "frame length varint overflows 64 bits");
    }
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) {
        return Defect(FrameResult::kBadLength,
                      "non-canonical frame length varint");
      }
      break;
    }
  }
  if (len > max_payload) {
    return Defect(FrameResult::kBadLength, "frame length exceeds its bound");
  }
  const size_t available = input.size() - header;
  if (len > available || available - len < 4) {
    return Defect(FrameResult::kNeedMore, "frame overruns end of input");
  }
  const size_t n = static_cast<size_t>(len);
  DecodedFrame frame;
  frame.size = header + n + 4;
  const ByteView payload = input.subview(header, n);
  if (ReadFixed32(input, header + n) != Crc32(payload)) {
    frame.result = FrameResult::kBadCrc;
    frame.what = "frame CRC mismatch";
    return frame;
  }
  frame.result = FrameResult::kFrame;
  frame.payload = payload;
  return frame;
}

Result<bool> TryDecodeFrame(ByteView buf, size_t max_payload,
                            size_t* consumed, Bytes* payload) {
  const DecodedFrame frame = DecodeFrame(buf, max_payload);
  if (frame.result == FrameResult::kNeedMore) return false;
  if (frame.result != FrameResult::kFrame) {
    return Status::Corruption(frame.what);
  }
  *consumed = frame.size;
  *payload = frame.payload.ToBytes();
  return true;
}

Bytes EncodeFileHeader(const char (&magic)[8], uint64_t value) {
  Bytes header;
  header.reserve(kFileHeaderSize);
  AppendBytes(&header, MagicView(magic));
  AppendFixed64(&header, value);
  AppendFixed32(&header, Crc32(header));
  return header;
}

std::optional<uint64_t> ReadFileHeader(ByteView file,
                                       const char (&magic)[8]) {
  if (file.size() < kFileHeaderSize ||
      !(file.subview(0, 8) == MagicView(magic)) ||
      ReadFixed32(file, 16) != Crc32(file.subview(0, 16))) {
    return std::nullopt;
  }
  return ReadFixed64(file, 8);
}

}  // namespace provdb
