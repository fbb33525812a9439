// Wire protocol codec tests: the strict encode/decode bijection for
// requests and responses (every decodable message re-encodes to the
// identical bytes, and every malformed variant is typed kCorruption — the
// tamper matrix in server_corruption_test.cc builds on these per-message
// guarantees). Framing is the common codec's (tests/common/frame_test.cc).

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"

namespace provdb::net {
namespace {

crypto::Digest D(uint8_t tag, size_t n = 20) {
  Bytes b(n, tag);
  return crypto::Digest::FromBytes(ByteView(b.data(), b.size()));
}

Request MakeSubmit() {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = 3;
  request.submit.op = provenance::OperationType::kAggregate;
  request.submit.object = 42;
  request.submit.post_hash = D(0xAA);
  request.submit.has_pre_hash = true;
  request.submit.pre_hash = D(0xBB);
  request.submit.inherited = true;
  request.submit.inputs = {provenance::ObjectState{7, D(0x01)},
                           provenance::ObjectState{9, D(0x02)}};
  request.submit.input_prev_checksums = {Bytes{1, 2, 3}, Bytes{}};
  request.submit.aggregate_seq = 11;
  return request;
}

void ExpectSubmitEq(const SubmitRequest& a, const SubmitRequest& b) {
  EXPECT_EQ(a.participant_id, b.participant_id);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.object, b.object);
  EXPECT_EQ(a.post_hash, b.post_hash);
  EXPECT_EQ(a.has_pre_hash, b.has_pre_hash);
  EXPECT_EQ(a.pre_hash, b.pre_hash);
  EXPECT_EQ(a.inherited, b.inherited);
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i].object_id, b.inputs[i].object_id);
    EXPECT_EQ(a.inputs[i].state_hash, b.inputs[i].state_hash);
  }
  EXPECT_EQ(a.input_prev_checksums, b.input_prev_checksums);
  EXPECT_EQ(a.aggregate_seq, b.aggregate_seq);
}

// -- Requests ----------------------------------------------------------

TEST(WireRequestTest, SubmitRoundTripIsBijective) {
  Request request = MakeSubmit();
  Bytes payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, NetOp::kSubmitRecord);
  ExpectSubmitEq(decoded->submit, request.submit);
  // Bijection: the decoded request re-encodes to the identical bytes.
  EXPECT_EQ(EncodeRequest(*decoded), payload);
}

TEST(WireRequestTest, MinimalInsertRoundTrip) {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = 1;
  request.submit.op = provenance::OperationType::kInsert;
  request.submit.object = 5;
  request.submit.post_hash = D(0x11);
  Bytes payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSubmitEq(decoded->submit, request.submit);
  EXPECT_EQ(EncodeRequest(*decoded), payload);
}

TEST(WireRequestTest, ReadOpsRoundTrip) {
  for (NetOp op : {NetOp::kQueryChain, NetOp::kVerifyObject}) {
    Request request;
    request.op = op;
    request.object = 1234;
    Bytes payload = EncodeRequest(request);
    auto decoded = DecodeRequest(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, op);
    EXPECT_EQ(decoded->object, 1234u);
    EXPECT_EQ(EncodeRequest(*decoded), payload);
  }
}

TEST(WireRequestTest, StatsRoundTrip) {
  Request request;
  request.op = NetOp::kStats;
  Bytes payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, NetOp::kStats);
  EXPECT_EQ(EncodeRequest(*decoded), payload);
}

TEST(WireRequestTest, UnknownVersionIsCorruption) {
  Bytes payload = EncodeRequest(MakeSubmit());
  payload[0] = kWireVersion + 1;
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);
}

TEST(WireRequestTest, UnknownOpIsCorruption) {
  Bytes payload = EncodeRequest(MakeSubmit());
  payload[1] = 0;
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);
  payload[1] = 5;
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);
}

TEST(WireRequestTest, TrailingBytesAreCorruption) {
  Bytes payload = EncodeRequest(MakeSubmit());
  payload.push_back(0x00);
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);
}

TEST(WireRequestTest, UnknownFlagBitsAreCorruption) {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = 1;
  request.submit.op = provenance::OperationType::kInsert;
  request.submit.object = 5;
  request.submit.post_hash = D(0x11);
  Bytes payload = EncodeRequest(request);
  // Layout: version, op, varint participant (1), op byte, varint object
  // (1), flags — index 5.
  ASSERT_GT(payload.size(), 5u);
  payload[5] |= 0x80;
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);
}

TEST(WireRequestTest, TruncatedSubmitIsCorruption) {
  Bytes payload = EncodeRequest(MakeSubmit());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = DecodeRequest(ByteView(payload.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
}

// -- Responses ---------------------------------------------------------

TEST(WireResponseTest, RoundTripIsBijective) {
  Response response;
  response.code = StatusCode::kUnavailable;
  response.message = "server admission budget exhausted";
  response.body = Bytes{1, 2, 3};
  Bytes payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, response.code);
  EXPECT_EQ(decoded->message, response.message);
  EXPECT_EQ(decoded->body, response.body);
  EXPECT_FALSE(decoded->ok());
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_EQ(EncodeResponse(*decoded), payload);
}

TEST(WireResponseTest, UnknownStatusCodeIsCorruption) {
  Response response;
  Bytes payload = EncodeResponse(response);
  payload[1] = 0x7F;
  EXPECT_EQ(DecodeResponse(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WireResponseTest, TrailingBytesAreCorruption) {
  Bytes payload = EncodeResponse(Response{});
  payload.push_back(0x01);
  EXPECT_EQ(DecodeResponse(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WireResponseTest, VerifySummaryRoundTrip) {
  VerifySummary summary;
  summary.records_checked = 100;
  summary.signatures_verified = 100;
  summary.issues = 2;
  summary.ok = false;
  Bytes body = EncodeVerifySummary(summary);
  auto decoded = DecodeVerifySummary(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records_checked, 100u);
  EXPECT_EQ(decoded->signatures_verified, 100u);
  EXPECT_EQ(decoded->issues, 2u);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(EncodeVerifySummary(*decoded), body);
}

TEST(WireResponseTest, VerifySummaryBadOkFlagIsCorruption) {
  Bytes body = EncodeVerifySummary(VerifySummary{});
  body.back() = 2;
  EXPECT_EQ(DecodeVerifySummary(body).status().code(),
            StatusCode::kCorruption);
}

TEST(WireResponseTest, ChainBodyEmptyChainDecodes) {
  Bytes body;
  AppendVarint64(&body, 0);
  auto records = DecodeChainBody(body);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WireResponseTest, ChainBodyCountBeyondPayloadIsCorruption) {
  Bytes body;
  AppendVarint64(&body, 1u << 20);
  EXPECT_EQ(DecodeChainBody(body).status().code(), StatusCode::kCorruption);
}

TEST(WireResponseTest, ChainBodyTrailingBytesAreCorruption) {
  Bytes body;
  AppendVarint64(&body, 0);
  body.push_back(0x01);
  EXPECT_EQ(DecodeChainBody(body).status().code(), StatusCode::kCorruption);
}

TEST(WireRequestTest, RandomSubmitsAreBijective) {
  Rng rng(0xB17E);
  for (int i = 0; i < 200; ++i) {
    Request request;
    request.op = NetOp::kSubmitRecord;
    request.submit.participant_id = rng.NextUint64();
    request.submit.op = static_cast<provenance::OperationType>(
        rng.NextBelow(3));
    request.submit.object = rng.NextUint64();
    request.submit.post_hash = D(static_cast<uint8_t>(rng.NextBelow(256)),
                                 rng.NextBelow(33));
    request.submit.has_pre_hash = rng.NextBool();
    if (request.submit.has_pre_hash) {
      request.submit.pre_hash =
          D(static_cast<uint8_t>(rng.NextBelow(256)), rng.NextBelow(33));
    }
    request.submit.inherited = rng.NextBool();
    const size_t n = rng.NextBelow(4);
    for (size_t k = 0; k < n; ++k) {
      request.submit.inputs.push_back(provenance::ObjectState{
          rng.NextUint64(),
          D(static_cast<uint8_t>(rng.NextBelow(256)), rng.NextBelow(33))});
      Bytes checksum;
      rng.NextBytes(&checksum, rng.NextBelow(24));
      request.submit.input_prev_checksums.push_back(std::move(checksum));
    }
    request.submit.aggregate_seq = rng.NextUint64();

    Bytes payload = EncodeRequest(request);
    auto decoded = DecodeRequest(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSubmitEq(decoded->submit, request.submit);
    ASSERT_EQ(EncodeRequest(*decoded), payload);
  }
}

}  // namespace
}  // namespace provdb::net
