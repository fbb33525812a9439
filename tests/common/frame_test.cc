// The common frame codec (common/frame.h): round trips, the need-more vs
// corruption distinction the WAL salvage rule and the connection layer
// both depend on, the canonical length varint, and the 20-byte file
// header shared by WAL segments and checkpoints. The WireFrameTest suite
// drives the receive-buffer decoder the network layer uses; FrameTest
// drives DecodeFrame and the header codec directly.

#include "common/frame.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/crc32.h"
#include "common/varint.h"

namespace provdb {
namespace {

/// The wire protocol's default payload bound (net::kMaxFramePayload).
constexpr size_t kBound = 1u << 20;

constexpr char kMagic[8] = {'P', 'V', 'D', 'B', 'T', 'S', 'T', '1'};

// -- Receive-buffer decoding ---------------------------------------------

TEST(WireFrameTest, RoundTrip) {
  Bytes payload{1, 2, 3, 4, 5};
  Bytes frame = EncodeFrame(payload);
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded, payload);
}

TEST(WireFrameTest, EmptyPayloadRoundTrip) {
  Bytes frame = EncodeFrame(ByteView());
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_TRUE(decoded.empty());
}

TEST(WireFrameTest, EveryTruncationIsNeedMoreNeverError) {
  Bytes payload(300, 0x5A);  // 2-byte length varint
  Bytes frame = EncodeFrame(payload);
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t consumed = 0;
    Bytes decoded;
    auto ok = TryDecodeFrame(ByteView(frame.data(), len), kBound, &consumed,
                             &decoded);
    ASSERT_TRUE(ok.ok()) << "prefix length " << len << ": "
                         << ok.status().ToString();
    EXPECT_FALSE(*ok) << "prefix length " << len;
  }
}

TEST(WireFrameTest, TrailingBytesAreNotConsumed) {
  Bytes payload{9, 8, 7};
  Bytes frame = EncodeFrame(payload);
  const size_t frame_size = frame.size();
  frame.push_back(0xEE);  // start of the next frame
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(consumed, frame_size);
  EXPECT_EQ(decoded, payload);
}

TEST(WireFrameTest, CrcMismatchIsCorruption) {
  Bytes payload{1, 2, 3, 4};
  Bytes frame = EncodeFrame(payload);
  frame[1] ^= 0x01;  // payload byte
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_FALSE(ok.ok());
  EXPECT_EQ(ok.status().code(), StatusCode::kCorruption);
}

TEST(WireFrameTest, OversizedLengthPrefixIsCorruptionBeforeBuffering) {
  Bytes frame;
  AppendVarint64(&frame, kBound + 1);
  // No payload bytes at all: the bound must trip on the prefix alone.
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_FALSE(ok.ok());
  EXPECT_EQ(ok.status().code(), StatusCode::kCorruption);
}

TEST(WireFrameTest, OverlongLengthVarintIsCorruption) {
  const Bytes frame{0x85, 0x00};  // 5 encoded with a redundant byte
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_FALSE(ok.ok());
  EXPECT_EQ(ok.status().code(), StatusCode::kCorruption);
}

TEST(WireFrameTest, LengthVarintOver64BitsIsCorruption) {
  const Bytes frame{0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                    0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  size_t consumed = 0;
  Bytes decoded;
  auto ok = TryDecodeFrame(frame, kBound, &consumed, &decoded);
  ASSERT_FALSE(ok.ok());
  EXPECT_EQ(ok.status().code(), StatusCode::kCorruption);
}

// -- DecodeFrame -----------------------------------------------------------

TEST(FrameTest, LayoutIsLengthPayloadCrc) {
  const Bytes payload{'a', 'b', 'c'};
  Bytes expected{0x03, 'a', 'b', 'c'};
  AppendFixed32(&expected, Crc32(payload));
  EXPECT_EQ(EncodeFrame(payload), expected);

  // AppendFrame writes the same bytes after whatever is already there.
  Bytes appended{0xEE};
  AppendFrame(&appended, payload);
  expected.insert(expected.begin(), 0xEE);
  EXPECT_EQ(appended, expected);
}

TEST(FrameTest, DecodedPayloadViewsTheInput) {
  Bytes stream = EncodeFrame(Bytes{7, 7});
  AppendFrame(&stream, Bytes{9});
  const DecodedFrame first = DecodeFrame(stream, kBound);
  ASSERT_EQ(first.result, FrameResult::kFrame) << first.what;
  EXPECT_EQ(first.size, 1u + 2u + 4u);
  EXPECT_EQ(first.payload.data(), stream.data() + 1);
  EXPECT_EQ(first.payload.ToBytes(), (Bytes{7, 7}));

  const DecodedFrame second =
      DecodeFrame(ByteView(stream).subview(first.size), kBound);
  ASSERT_EQ(second.result, FrameResult::kFrame) << second.what;
  EXPECT_EQ(second.payload.ToBytes(), Bytes{9});
  EXPECT_EQ(first.size + second.size, stream.size());
}

TEST(FrameTest, BadCrcReportsTheFrameSize) {
  // The WAL salvages a bad CRC only when its frame ends the segment, so
  // the decoder must say where the damaged frame ends.
  Bytes stream = EncodeFrame(Bytes(5, 0x11));
  const size_t frame_size = stream.size();
  stream[3] ^= 0x40;
  AppendFrame(&stream, Bytes{1});
  const DecodedFrame frame = DecodeFrame(stream, kBound);
  EXPECT_EQ(frame.result, FrameResult::kBadCrc);
  EXPECT_EQ(frame.size, frame_size);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, OutcomesAreClassifiedBeforeThePayloadArrives) {
  // Need-more inside the length varint and inside the body.
  EXPECT_EQ(DecodeFrame(Bytes{0x80}, kBound).result, FrameResult::kNeedMore);
  EXPECT_EQ(DecodeFrame(Bytes{0x05, 1, 2}, kBound).result,
            FrameResult::kNeedMore);

  // A length over the bound, with no payload at all. The WAL's 32-bit
  // bound behaves the same way.
  Bytes over;
  AppendVarint64(&over, 0x100000000ull);
  EXPECT_EQ(DecodeFrame(over, 0xFFFFFFFFu).result, FrameResult::kBadLength);

  // Non-canonical and overflowing varints, each with a body behind them.
  Bytes overlong{0x81, 0x00, 1, 0, 0, 0, 0};
  EXPECT_EQ(DecodeFrame(overlong, kBound).result, FrameResult::kBadLength);
  Bytes overflow(9, 0xFF);
  overflow.push_back(0x02);
  EXPECT_EQ(DecodeFrame(overflow, UINT64_MAX).result,
            FrameResult::kBadLength);
}

// -- File header -----------------------------------------------------------

TEST(FrameTest, FileHeaderRoundTripsAndRejectsDamage) {
  const Bytes header = EncodeFileHeader(kMagic, 0x0102030405060708ull);
  ASSERT_EQ(header.size(), kFileHeaderSize);
  EXPECT_EQ(ByteView(header).subview(0, 8).ToString(), "PVDBTST1");
  EXPECT_EQ(ReadFixed32(header, 16), Crc32(ByteView(header).subview(0, 16)));

  Bytes file = header;
  AppendFrame(&file, Bytes{1, 2});  // frames follow the header
  EXPECT_EQ(ReadFileHeader(file, kMagic), 0x0102030405060708ull);

  constexpr char kOtherMagic[8] = {'P', 'V', 'D', 'B', 'T', 'S', 'T', '2'};
  EXPECT_FALSE(ReadFileHeader(file, kOtherMagic).has_value());
  EXPECT_FALSE(ReadFileHeader(ByteView(header).subview(0, kFileHeaderSize - 1),
                              kMagic)
                   .has_value());
  for (size_t i = 0; i < kFileHeaderSize; ++i) {
    Bytes damaged = header;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(ReadFileHeader(damaged, kMagic).has_value()) << "byte " << i;
  }
}

}  // namespace
}  // namespace provdb
