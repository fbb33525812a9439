// Wire-protocol tamper matrix (mirrors the checkpoint tamper matrix's
// every-byte discipline, applied to the network boundary):
//
//   * every single-byte flip of a valid request frame, sent to a live
//     server on a fresh connection, must end in a typed error response
//     and/or a clean connection close — never a crash, never a hang,
//     never a partial commit;
//   * every length-truncation of a request frame, followed by EOF, must
//     close cleanly with nothing committed;
//   * every single-byte flip and every truncation of a valid *response*
//     frame must be caught by the client-side decoder as typed
//     kCorruption (flip) or need-more (truncation) — never decode into a
//     different message.
//
// After the whole server-side matrix, the store must hold exactly the
// baseline records and still pass full chain verification: no tampered
// frame left any trace.

#include "net/socket.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/varint.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "testing/test_pki.h"

namespace provdb::net {
namespace {

using provdb::testing::TestPki;
using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::OperationType;
using storage::Env;

crypto::Digest D(uint8_t tag) {
  Bytes b(20, tag);
  return crypto::Digest::FromBytes(ByteView(b.data(), b.size()));
}

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_corrupt_" + tag;
  auto shards = Env::Default()->ListDir(root);
  if (shards.ok()) {
    for (const std::string& shard : *shards) {
      auto files = Env::Default()->ListDir(root + "/" + shard);
      if (!files.ok()) continue;
      for (const std::string& f : *files) {
        EXPECT_TRUE(
            Env::Default()->RemoveFile(root + "/" + shard + "/" + f).ok());
      }
    }
  }
  return root;
}

Request SubmitUpdate() {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = 1;
  request.submit.op = OperationType::kUpdate;
  request.submit.object = 5;
  request.submit.has_pre_hash = true;
  request.submit.pre_hash = D(0x50);
  request.submit.post_hash = D(0x51);
  return request;
}

/// Sends `raw` on a fresh connection, half-closes, and drains every
/// response until the server closes. Returns the count of OK responses
/// (any non-OK response and the final EOF/corruption read are the
/// expected outcomes). Fails the test on a hang only via ctest timeout —
/// the server closes tampered connections, so every read terminates.
size_t DrainTamperedExchange(const ProvenanceServer& server, ByteView raw) {
  auto client = ProvenanceClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok());
  if (!client.ok()) return 0;
  EXPECT_TRUE(client->SendBytes(raw).ok());
  client->FinishWrites();
  size_t ok_responses = 0;
  for (;;) {
    auto response = client->ReadResponse();
    if (!response.ok()) break;  // EOF or stream corruption: done
    if (response->ok()) ++ok_responses;
  }
  return ok_responses;
}

class ServerCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = IngestPipeline::Open(Env::Default(), FreshDir("matrix"),
                                         IngestOptions{});
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::move(pipeline).value();
    std::map<crypto::ParticipantId, const crypto::Participant*> participants;
    for (size_t i = 0; i < TestPki::kNumParticipants; ++i) {
      const auto& p = TestPki::Instance().participant(i);
      participants[p.certificate().participant_id] = &p;
    }
    auto server = ProvenanceServer::Start(pipeline_.get(),
                                          &TestPki::Instance().registry(),
                                          participants, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();

    // Baseline: one real chain, so a tampered update frame that somehow
    // slipped through *could* commit — the matrix proves none does.
    auto client = ProvenanceClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    Request insert;
    insert.op = NetOp::kSubmitRecord;
    insert.submit.participant_id = 1;
    insert.submit.op = OperationType::kInsert;
    insert.submit.object = 5;
    insert.submit.post_hash = D(0x50);
    auto response = client->Call(insert);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->ok()) << response->message;
  }

  /// Stops the server and asserts the store holds exactly the baseline
  /// record, fully verified — the tamper matrix committed nothing.
  void ExpectStoreUntouched() {
    server_->Stop();
    server_.reset();
    ASSERT_TRUE(pipeline_->Drain().ok());
    const provenance::StoreSnapshot snapshot = pipeline_->OpenSnapshot();
    EXPECT_EQ(snapshot.record_count(), 1u);
    auto report = provenance::ProvenanceVerifier(
                      &TestPki::Instance().registry())
                      .VerifyStore(snapshot);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.records_checked, 1u);
  }

  std::unique_ptr<IngestPipeline> pipeline_;
  std::unique_ptr<ProvenanceServer> server_;
};

TEST_F(ServerCorruptionTest, EveryByteFlipOfRequestFrameIsRejected) {
  const Bytes frame = EncodeFrame(EncodeRequest(SubmitUpdate()));
  for (size_t i = 0; i < frame.size(); ++i) {
    Bytes tampered = frame;
    tampered[i] ^= 0x01;
    const size_t committed = DrainTamperedExchange(*server_, tampered);
    // A flipped frame must never execute. (A flip confined to the length
    // prefix can leave the server waiting for bytes that never come; the
    // half-close resolves that as EOF, still with zero commits.)
    EXPECT_EQ(committed, 0u) << "flip at byte " << i;
  }
  ExpectStoreUntouched();
}

TEST_F(ServerCorruptionTest, EveryTruncationOfRequestFrameIsRejected) {
  const Bytes frame = EncodeFrame(EncodeRequest(SubmitUpdate()));
  for (size_t len = 0; len < frame.size(); ++len) {
    const size_t committed =
        DrainTamperedExchange(*server_, ByteView(frame.data(), len));
    EXPECT_EQ(committed, 0u) << "truncated to " << len;
  }
  ExpectStoreUntouched();
}

TEST_F(ServerCorruptionTest, GarbageAfterValidFrameRejectsOnlyTheGarbage) {
  // A valid frame followed by corrupt bytes: the valid request executes
  // (it is a *query*, so nothing commits), the rest kills the connection.
  Request query;
  query.op = NetOp::kQueryChain;
  query.object = 5;
  Bytes raw = EncodeFrame(EncodeRequest(query));
  const Bytes garbage(16, 0xFF);
  raw.insert(raw.end(), garbage.begin(), garbage.end());
  const size_t ok_responses = DrainTamperedExchange(*server_, raw);
  EXPECT_EQ(ok_responses, 1u);
  ExpectStoreUntouched();
}

TEST_F(ServerCorruptionTest, OversizedLengthPrefixClosesImmediately) {
  Bytes raw;
  AppendVarint64(&raw, (64u << 20));  // far over kMaxFramePayload
  const size_t committed = DrainTamperedExchange(*server_, raw);
  EXPECT_EQ(committed, 0u);
  ExpectStoreUntouched();
}

TEST(ServerResponseCorruptionTest, EveryByteFlipIsTypedCorruption) {
  Response response;
  response.code = StatusCode::kOk;
  response.message = "";
  response.body = Bytes{42, 1, 2, 3};
  const Bytes frame = EncodeFrame(EncodeResponse(response));
  for (size_t i = 0; i < frame.size(); ++i) {
    Bytes tampered = frame;
    tampered[i] ^= 0x01;
    size_t consumed = 0;
    Bytes payload;
    auto decoded =
        TryDecodeFrame(tampered, kMaxFramePayload, &consumed, &payload);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "flip at byte " << i;
      continue;
    }
    if (!*decoded) continue;  // length flip -> need-more: acceptable
    // Frame layer passed (flip must be... nowhere: CRC covers payload and
    // guards itself). Reaching here with a one-byte flip means CRC
    // failure — flag it.
    ADD_FAILURE() << "flipped frame passed CRC at byte " << i;
  }
}

TEST(ServerResponseCorruptionTest, EveryTruncationIsNeedMoreNeverDecode) {
  Response response;
  response.code = StatusCode::kUnavailable;
  response.message = "server admission budget exhausted";
  const Bytes frame = EncodeFrame(EncodeResponse(response));
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t consumed = 0;
    Bytes payload;
    auto decoded = TryDecodeFrame(ByteView(frame.data(), len),
                                  kMaxFramePayload, &consumed, &payload);
    ASSERT_TRUE(decoded.ok()) << "truncated to " << len;
    EXPECT_FALSE(*decoded) << "truncated to " << len;
  }
}

}  // namespace
}  // namespace provdb::net
