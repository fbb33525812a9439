// Loopback integration tests for the provenance service: the four wire
// ops end to end, pipelined response ordering, chain-tail seeding across
// server restarts, remote-poison rejection (a network peer must never be
// able to wedge the pipeline), and the admission-control overload
// contract — saturated budgets shed with typed kUnavailable while every
// *accepted* record stays durable and byte-identical to what a direct
// IngestPipeline ingest of the same accepted set produces. Most run over
// a sequential pipeline, whose batches complete inside the server's own
// calls; the ServerPooledTest variants run the same bodies over the
// pooled, sealing pipeline perfbench's ingest_wire runs, where every ack
// waits for the pipeline's wake hook.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/varint.h"
#include "net/client.h"
#include "observability/metrics.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "testing/test_pki.h"

namespace provdb::net {
namespace {

using provdb::testing::TestPki;
using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::OperationType;
using storage::Env;
using storage::ObjectId;

const crypto::Participant& P(size_t i) {
  return TestPki::Instance().participant(i);
}

crypto::Digest D(uint8_t tag) {
  Bytes b(20, tag);
  return crypto::Digest::FromBytes(ByteView(b.data(), b.size()));
}

/// The pipeline behind a server test.
enum class Behind {
  /// No pipeline threads: every step runs inline, so the Flush that ends
  /// each loop tick completes its batches inside the call.
  kSequential,
  /// The pipeline perfbench's ingest_wire runs: records sign on 4
  /// threads, each shard's fsync runs on an I/O thread, and a seal runs
  /// every few records per shard. Batches complete after the loop moved
  /// on, so every ack waits for the wake hook.
  kPooled,
};

std::string FreshDir(const std::string& tag,
                     Behind behind = Behind::kSequential) {
  std::string root = ::testing::TempDir() + "/provdb_server_" +
                     (behind == Behind::kPooled ? "pooled_" : "") + tag;
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

std::map<crypto::ParticipantId, const crypto::Participant*> Participants() {
  std::map<crypto::ParticipantId, const crypto::Participant*> out;
  for (size_t i = 0; i < TestPki::kNumParticipants; ++i) {
    out[P(i).certificate().participant_id] = &P(i);
  }
  return out;
}

/// Verifies the seals of a pooled pipeline's checkpoints on reopen.
const crypto::RsaSignatureVerifier& SealVerifier() {
  static const crypto::RsaSignatureVerifier* verifier =
      new crypto::RsaSignatureVerifier(P(0).public_key());
  return *verifier;
}

/// A pooled pipeline (see Behind::kPooled) over `env`.
std::unique_ptr<IngestPipeline> OpenPooledPipeline(Env* env,
                                                   const std::string& root,
                                                   size_t shards) {
  IngestOptions options;
  options.num_shards = shards;
  options.signing.num_threads = 4;
  options.checkpoint.every_records = 3;
  options.checkpoint.signer = &P(0).signer();
  options.checkpoint.sealer_id = P(0).id();
  options.checkpoint.verifier = &SealVerifier();
  auto pipeline = IngestPipeline::Open(env, root, options);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  return std::move(pipeline).value();
}

std::unique_ptr<IngestPipeline> OpenPipeline(
    const std::string& root, size_t shards = 2,
    Behind behind = Behind::kSequential) {
  if (behind == Behind::kPooled) {
    return OpenPooledPipeline(Env::Default(), root, shards);
  }
  IngestOptions options;
  options.num_shards = shards;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  return std::move(pipeline).value();
}

std::unique_ptr<ProvenanceServer> StartServer(
    IngestPipeline* pipeline, ServerOptions options = ServerOptions()) {
  auto server = ProvenanceServer::Start(
      pipeline, &TestPki::Instance().registry(), Participants(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

ProvenanceClient Connect(const ProvenanceServer& server) {
  auto client = ProvenanceClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

Request Insert(ObjectId object, uint8_t tag, uint64_t participant = 1) {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = participant;
  request.submit.op = OperationType::kInsert;
  request.submit.object = object;
  request.submit.post_hash = D(tag);
  return request;
}

Request Update(ObjectId object, uint8_t pre, uint8_t post,
               uint64_t participant = 1) {
  Request request;
  request.op = NetOp::kSubmitRecord;
  request.submit.participant_id = participant;
  request.submit.op = OperationType::kUpdate;
  request.submit.object = object;
  request.submit.has_pre_hash = true;
  request.submit.pre_hash = D(pre);
  request.submit.post_hash = D(post);
  return request;
}

Request Read(NetOp op, ObjectId object) {
  Request request;
  request.op = op;
  request.object = object;
  return request;
}

uint64_t SeqOf(const Response& response) {
  VarintReader reader(response.body);
  auto seq = reader.ReadVarint64();
  EXPECT_TRUE(seq.ok());
  return seq.ok() ? *seq : UINT64_MAX;
}

/// Turns an accepted SubmitRequest back into the pipeline-level request
/// the differential replay feeds to a direct IngestPipeline.
provenance::IngestRequest ToIngestRequest(const SubmitRequest& submit) {
  provenance::IngestRequest request;
  request.op = submit.op;
  request.object = submit.object;
  request.post_hash = submit.post_hash;
  request.has_pre_hash = submit.has_pre_hash;
  request.pre_hash = submit.pre_hash;
  request.inputs = submit.inputs;
  request.input_prev_checksums = submit.input_prev_checksums;
  request.aggregate_seq = submit.aggregate_seq;
  request.inherited = submit.inherited;
  request.participant = &P(submit.participant_id - 1);
  return request;
}

/// Every record of every chain, flattened in the snapshot's canonical
/// (object id, then seq) order, as EncodeRecord bytes.
std::vector<Bytes> FlattenStore(const IngestPipeline& pipeline) {
  const provenance::StoreSnapshot snapshot = pipeline.OpenSnapshot();
  std::vector<Bytes> out;
  for (const auto& [object, chain] : snapshot.AllChains()) {
    for (const auto* record : chain) {
      out.push_back(provenance::EncodeRecord(*record));
    }
  }
  return out;
}

/// Replays `accepted` into a fresh direct pipeline and requires the
/// resulting store to be byte-identical to `served`'s — the wire path
/// must add nothing, lose nothing, and change nothing.
void ExpectByteIdenticalToDirectIngest(
    const std::string& root, const std::vector<SubmitRequest>& accepted,
    const IngestPipeline& served, size_t shards) {
  std::unique_ptr<IngestPipeline> direct = OpenPipeline(root, shards);
  for (const SubmitRequest& submit : accepted) {
    ASSERT_TRUE(direct->Submit(ToIngestRequest(submit)).ok());
  }
  ASSERT_TRUE(direct->Drain().ok());
  EXPECT_EQ(FlattenStore(served), FlattenStore(*direct));
}

// -- Basic ops ---------------------------------------------------------

void InsertUpdateQueryVerifyStats(Behind behind) {
  auto pipeline = OpenPipeline(FreshDir("basic", behind), 2, behind);
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  auto insert = client.Call(Insert(7, 0x10));
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  ASSERT_TRUE(insert->ok()) << insert->message;
  EXPECT_EQ(SeqOf(*insert), 0u);

  auto update = client.Call(Update(7, 0x10, 0x11));
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->ok()) << update->message;
  EXPECT_EQ(SeqOf(*update), 1u);

  auto chain = client.Call(Read(NetOp::kQueryChain, 7));
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(chain->ok()) << chain->message;
  auto records = DecodeChainBody(chain->body);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].seq_id, 0u);
  EXPECT_EQ((*records)[0].op, OperationType::kInsert);
  EXPECT_EQ((*records)[0].output.object_id, 7u);
  EXPECT_EQ((*records)[0].output.state_hash, D(0x10));
  EXPECT_EQ((*records)[1].seq_id, 1u);
  EXPECT_EQ((*records)[1].op, OperationType::kUpdate);
  EXPECT_EQ((*records)[1].output.state_hash, D(0x11));

  auto verify = client.Call(Read(NetOp::kVerifyObject, 7));
  ASSERT_TRUE(verify.ok());
  ASSERT_TRUE(verify->ok()) << verify->message;
  auto summary = DecodeVerifySummary(verify->body);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->ok);
  EXPECT_EQ(summary->records_checked, 2u);
  EXPECT_EQ(summary->signatures_verified, 2u);
  EXPECT_EQ(summary->issues, 0u);

  auto stats = client.Call(Read(NetOp::kStats, 0));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  const std::string json(stats->body.begin(), stats->body.end());
  EXPECT_NE(json.find("server.requests.received"), std::string::npos);
}

TEST(ServerIntegrationTest, InsertUpdateQueryVerifyStats) {
  InsertUpdateQueryVerifyStats(Behind::kSequential);
}

TEST(ServerPooledTest, InsertUpdateQueryVerifyStats) {
  InsertUpdateQueryVerifyStats(Behind::kPooled);
}

TEST(ServerIntegrationTest, UnknownObjectAnswersNotFound) {
  auto pipeline = OpenPipeline(FreshDir("notfound"));
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  for (NetOp op : {NetOp::kQueryChain, NetOp::kVerifyObject}) {
    auto response = client.Call(Read(op, 424242));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kNotFound) << NetOpName(op);
  }
}

TEST(ServerIntegrationTest, MultipleParticipantsSignTheirOwnRecords) {
  auto pipeline = OpenPipeline(FreshDir("multiparty"));
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  ASSERT_TRUE(client.Call(Insert(1, 0x01, 1))->ok());
  ASSERT_TRUE(client.Call(Update(1, 0x01, 0x02, 2))->ok());
  ASSERT_TRUE(client.Call(Update(1, 0x02, 0x03, 3))->ok());

  auto chain = client.Call(Read(NetOp::kQueryChain, 1));
  ASSERT_TRUE(chain.ok() && chain->ok());
  auto records = DecodeChainBody(chain->body);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].participant, 1u);
  EXPECT_EQ((*records)[1].participant, 2u);
  EXPECT_EQ((*records)[2].participant, 3u);

  auto verify = client.Call(Read(NetOp::kVerifyObject, 1));
  ASSERT_TRUE(verify.ok() && verify->ok());
  auto summary = DecodeVerifySummary(verify->body);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->ok);
}

TEST(ServerIntegrationTest, VerifyObjectChecksAggregateInputs) {
  auto pipeline = OpenPipeline(FreshDir("aggregate"));
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  ASSERT_TRUE(client.Call(Insert(20, 0x20, 1))->ok());
  ASSERT_TRUE(client.Call(Insert(21, 0x21, 2))->ok());
  // The aggregate signs over its inputs' checksums, which a remote
  // submitter learns from query-chain.
  Request aggregate;
  aggregate.op = NetOp::kSubmitRecord;
  aggregate.submit.participant_id = 3;
  aggregate.submit.op = OperationType::kAggregate;
  aggregate.submit.object = 22;
  aggregate.submit.post_hash = D(0x22);
  aggregate.submit.aggregate_seq = 1;
  for (ObjectId input : {ObjectId{20}, ObjectId{21}}) {
    auto chain = client.Call(Read(NetOp::kQueryChain, input));
    ASSERT_TRUE(chain.ok() && chain->ok());
    auto records = DecodeChainBody(chain->body);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    aggregate.submit.inputs.push_back(records->back().output);
    aggregate.submit.input_prev_checksums.push_back(records->back().checksum);
  }
  auto submitted = client.Call(aggregate);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->ok()) << submitted->message;

  // Verify-object checks the aggregate's whole provenance object: its own
  // record and both inputs' records, whose checksums it signed over.
  auto verify = client.Call(Read(NetOp::kVerifyObject, 22));
  ASSERT_TRUE(verify.ok() && verify->ok());
  auto summary = DecodeVerifySummary(verify->body);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->ok);
  EXPECT_EQ(summary->records_checked, 3u);
  EXPECT_EQ(summary->signatures_verified, 3u);
  EXPECT_EQ(summary->issues, 0u);

  // Tamper with one input's committed record. The server is stopped
  // first so no server thread reads the record while it is rewritten.
  server.reset();
  size_t tampered = 0;
  provenance::ShardedProvenanceStore* store = pipeline->mutable_store();
  for (size_t s = 0; s < store->num_shards(); ++s) {
    provenance::ProvenanceStore& shard = store->shard(s);
    for (uint64_t i = 0; i < shard.record_count(); ++i) {
      provenance::ProvenanceRecord* record = shard.mutable_record(i);
      if (record->output.object_id == 21) {
        record->checksum[record->checksum.size() / 2] ^= 0x40;
        ++tampered;
      }
    }
  }
  ASSERT_EQ(tampered, 1u);

  server = StartServer(pipeline.get());
  client = Connect(*server);
  verify = client.Call(Read(NetOp::kVerifyObject, 22));
  ASSERT_TRUE(verify.ok() && verify->ok());
  summary = DecodeVerifySummary(verify->body);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->ok);
  EXPECT_GE(summary->issues, 1u);
}

// -- Remote poison prevention ------------------------------------------

TEST(ServerIntegrationTest, BadSubmitsRejectedTypedWithoutWedgingIngest) {
  auto pipeline = OpenPipeline(FreshDir("poison"));
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  ASSERT_TRUE(client.Call(Insert(5, 0x50))->ok());

  // Each of these would poison the pipeline if it reached a flush; the
  // server must reject them up front with the right typed error.
  auto duplicate = client.Call(Insert(5, 0x51));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->code, StatusCode::kFailedPrecondition);

  auto unknown_participant = client.Call(Insert(6, 0x60, 99));
  ASSERT_TRUE(unknown_participant.ok());
  EXPECT_EQ(unknown_participant->code, StatusCode::kNotFound);

  Request zero = Insert(0, 0x00);
  auto invalid_object = client.Call(zero);
  ASSERT_TRUE(invalid_object.ok());
  EXPECT_EQ(invalid_object->code, StatusCode::kInvalidArgument);

  Request insert_with_inputs = Insert(8, 0x80);
  insert_with_inputs.submit.inputs.push_back(
      provenance::ObjectState{5, D(0x50)});
  insert_with_inputs.submit.input_prev_checksums.push_back(Bytes{});
  auto bad_inputs = client.Call(insert_with_inputs);
  ASSERT_TRUE(bad_inputs.ok());
  EXPECT_EQ(bad_inputs->code, StatusCode::kInvalidArgument);

  Request empty_aggregate;
  empty_aggregate.op = NetOp::kSubmitRecord;
  empty_aggregate.submit.participant_id = 1;
  empty_aggregate.submit.op = OperationType::kAggregate;
  empty_aggregate.submit.object = 9;
  empty_aggregate.submit.post_hash = D(0x90);
  empty_aggregate.submit.aggregate_seq = 1;
  auto no_inputs = client.Call(empty_aggregate);
  ASSERT_TRUE(no_inputs.ok());
  EXPECT_EQ(no_inputs->code, StatusCode::kInvalidArgument);

  Request unsorted = empty_aggregate;
  unsorted.submit.inputs = {provenance::ObjectState{5, D(0x50)},
                            provenance::ObjectState{5, D(0x50)}};
  unsorted.submit.input_prev_checksums = {Bytes{}, Bytes{}};
  auto dup_inputs = client.Call(unsorted);
  ASSERT_TRUE(dup_inputs.ok());
  EXPECT_EQ(dup_inputs->code, StatusCode::kInvalidArgument);

  // The pipeline must still ingest: nothing above reached a flush.
  auto good = client.Call(Update(5, 0x50, 0x52));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok()) << good->message;
  EXPECT_EQ(SeqOf(*good), 1u);

  server->Stop();
  server.reset();
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(pipeline->OpenSnapshot().record_count(), 2u);
}

// -- Ordering and restarts ---------------------------------------------

void PipelinedResponsesArriveInRequestOrder(Behind behind) {
  auto pipeline = OpenPipeline(FreshDir("pipelined", behind), 2, behind);
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  constexpr size_t kObjects = 16;
  for (size_t i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(client
                    .SendRequest(Insert(100 + i,
                                        static_cast<uint8_t>(i)))
                    .ok());
  }
  ASSERT_TRUE(client.SendRequest(Read(NetOp::kQueryChain, 100)).ok());

  // Responses must pair positionally: kObjects submit acks, then the
  // chain of the first object.
  for (size_t i = 0; i < kObjects; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << i << ": " << response->message;
    EXPECT_EQ(SeqOf(*response), 0u);
  }
  auto chain = client.ReadResponse();
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(chain->ok());
  auto records = DecodeChainBody(chain->body);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].output.object_id, 100u);
}

TEST(ServerIntegrationTest, PipelinedResponsesArriveInRequestOrder) {
  PipelinedResponsesArriveInRequestOrder(Behind::kSequential);
}

TEST(ServerPooledTest, PipelinedResponsesArriveInRequestOrder) {
  PipelinedResponsesArriveInRequestOrder(Behind::kPooled);
}

// -- Acks follow durability --------------------------------------------

TEST(ServerIntegrationTest, FailedFsyncAnswersEverySubmitWithTheError) {
  storage::FaultInjectionEnv env(Env::Default());
  auto pipeline = OpenPooledPipeline(&env, FreshDir("acks_fsync"), 1);
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  // The first write-ahead's fsync fails: its batch is not durable, and
  // every batch behind it fails with the poison. No submit may read OK.
  env.ScheduleSyncFailure(1);
  constexpr size_t kSubmits = 12;
  for (size_t i = 0; i < kSubmits; ++i) {
    ASSERT_TRUE(
        client.SendRequest(Insert(300 + i, static_cast<uint8_t>(i))).ok());
  }
  for (size_t i = 0; i < kSubmits; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kIoError)
        << "submit " << i << " answered " << response->message;
  }
  auto later = client.Call(Insert(400, 0x40));
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->code, StatusCode::kIoError);
  server->Stop();
  EXPECT_EQ(pipeline->committed(), 0u);
  EXPECT_EQ(pipeline->OpenSnapshot().record_count(), 0u);
  EXPECT_EQ(pipeline->shard_wal(0)->synced_records(), 0u);
}

TEST(ServerIntegrationTest, ReadsAfterPipelinedSubmitsSeeThem) {
  auto pipeline =
      OpenPooledPipeline(Env::Default(), FreshDir("read_own_writes"), 2);
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  // Sent back to back, acks unread: each read still sees every submit
  // before it on the connection.
  ASSERT_TRUE(client.SendRequest(Insert(500, 0x50)).ok());
  ASSERT_TRUE(client.SendRequest(Update(500, 0x50, 0x51)).ok());
  ASSERT_TRUE(client.SendRequest(Insert(501, 0x52)).ok());
  ASSERT_TRUE(client.SendRequest(Update(500, 0x51, 0x53)).ok());
  ASSERT_TRUE(client.SendRequest(Read(NetOp::kQueryChain, 500)).ok());
  ASSERT_TRUE(client.SendRequest(Read(NetOp::kVerifyObject, 500)).ok());
  ASSERT_TRUE(client.SendRequest(Read(NetOp::kQueryChain, 501)).ok());

  const std::vector<uint64_t> seqs = {0, 1, 0, 2};
  for (uint64_t seq : seqs) {
    auto ack = client.ReadResponse();
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_TRUE(ack->ok()) << ack->message;
    EXPECT_EQ(SeqOf(*ack), seq);
  }
  auto chain = client.ReadResponse();
  ASSERT_TRUE(chain.ok() && chain->ok());
  auto records = DecodeChainBody(chain->body);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].output.state_hash, D(0x53));

  auto verify = client.ReadResponse();
  ASSERT_TRUE(verify.ok() && verify->ok());
  auto summary = DecodeVerifySummary(verify->body);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->ok);
  EXPECT_EQ(summary->records_checked, 3u);

  auto other = client.ReadResponse();
  ASSERT_TRUE(other.ok() && other->ok());
  records = DecodeChainBody(other->body);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

void ChainTailsSeededAcrossServerRestart(Behind behind) {
  auto root = FreshDir("restart", behind);
  auto pipeline = OpenPipeline(root, 2, behind);
  auto server = StartServer(pipeline.get());
  {
    auto client = Connect(*server);
    ASSERT_TRUE(client.Call(Insert(3, 0x30))->ok());
  }
  server->Stop();
  server.reset();

  // A new server over the same pipeline must know chain 3 exists.
  server = StartServer(pipeline.get());
  auto client = Connect(*server);
  auto duplicate = client.Call(Insert(3, 0x31));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->code, StatusCode::kFailedPrecondition);
  auto update = client.Call(Update(3, 0x30, 0x32));
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->ok()) << update->message;
  EXPECT_EQ(SeqOf(*update), 1u);
}

TEST(ServerIntegrationTest, ChainTailsSeededAcrossServerRestart) {
  ChainTailsSeededAcrossServerRestart(Behind::kSequential);
}

TEST(ServerPooledTest, ChainTailsSeededAcrossServerRestart) {
  ChainTailsSeededAcrossServerRestart(Behind::kPooled);
}

void ConcurrentConnectionsAllCommit(Behind behind) {
  auto pipeline = OpenPipeline(FreshDir("conns", behind), 2, behind);
  auto server = StartServer(pipeline.get());

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::vector<ProvenanceClient> clients;
  for (size_t c = 0; c < kClients; ++c) clients.push_back(Connect(*server));
  // Interleave pipelined submits across connections (disjoint objects).
  for (size_t i = 0; i < kPerClient; ++i) {
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(clients[c]
                      .SendRequest(Insert(1000 + c * kPerClient + i,
                                          static_cast<uint8_t>(c)))
                      .ok());
    }
  }
  uint64_t acked = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kPerClient; ++i) {
      auto response = clients[c].ReadResponse();
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->ok()) << response->message;
      if (response->ok()) ++acked;
    }
  }
  EXPECT_EQ(acked, kClients * kPerClient);

  server->Stop();
  server.reset();
  ASSERT_TRUE(pipeline->Drain().ok());
  const provenance::StoreSnapshot snapshot = pipeline->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), acked);
  // Every acked record is durable with a valid signature and chain.
  const provenance::VerificationReport verification =
      provenance::ProvenanceVerifier(&TestPki::Instance().registry())
          .VerifyStore(snapshot);
  EXPECT_TRUE(verification.ok()) << verification.ToString();
  EXPECT_EQ(verification.records_checked, acked);
}

TEST(ServerIntegrationTest, ConcurrentConnectionsAllCommit) {
  ConcurrentConnectionsAllCommit(Behind::kSequential);
}

TEST(ServerPooledTest, ConcurrentConnectionsAllCommit) {
  ConcurrentConnectionsAllCommit(Behind::kPooled);
}

// Closed-loop clients on their own threads, each driving its own slice
// of objects through insert-then-update chains with one request in
// flight per object: every request is acked, and the store afterward
// holds exactly the acked records as signature-valid, linked chains.
// Suites named Server* so the TSan stage covers the client threads
// racing the server's poll thread and, pooled, the pipeline's threads.
void UnconstrainedRunAcceptsEverythingVerified(Behind behind) {
  auto pipeline = OpenPipeline(FreshDir("loadgen_clean", behind), 2, behind);
  auto server = StartServer(pipeline.get());

  constexpr size_t kClients = 4;
  constexpr size_t kObjectsPerClient = 8;
  constexpr size_t kRounds = 6;  // one insert, then five updates
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ProvenanceClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      const uint64_t participant =
          P(c % TestPki::kNumParticipants).certificate().participant_id;
      for (size_t round = 0; round < kRounds; ++round) {
        // A window of one request per object, sent before any answer is
        // read; the next round's updates chain onto this round's hashes.
        for (size_t o = 0; o < kObjectsPerClient; ++o) {
          const ObjectId object = 2000 + c * kObjectsPerClient + o;
          const auto tag = static_cast<uint8_t>(round + 1);
          const Request request =
              round == 0 ? Insert(object, tag, participant)
                         : Update(object, static_cast<uint8_t>(round), tag,
                                  participant);
          ASSERT_TRUE(client->SendRequest(request).ok());
        }
        for (size_t o = 0; o < kObjectsPerClient; ++o) {
          auto response = client->ReadResponse();
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          EXPECT_TRUE(response->ok()) << response->message;
          if (response->ok()) acked.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(acked.load(), kClients * kObjectsPerClient * kRounds);

  server->Stop();
  server.reset();
  ASSERT_TRUE(pipeline->Drain().ok());
  const provenance::StoreSnapshot snapshot = pipeline->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), acked.load());
  const provenance::VerificationReport verification =
      provenance::ProvenanceVerifier(&TestPki::Instance().registry())
          .VerifyStore(snapshot);
  EXPECT_TRUE(verification.ok()) << verification.ToString();
  EXPECT_EQ(verification.records_checked, acked.load());
}

TEST(ServerLoadGeneratorTest, UnconstrainedRunAcceptsEverythingVerified) {
  UnconstrainedRunAcceptsEverythingVerified(Behind::kSequential);
}

TEST(ServerPooledTest, UnconstrainedRunAcceptsEverythingVerified) {
  UnconstrainedRunAcceptsEverythingVerified(Behind::kPooled);
}

// -- The write-ahead + differential contract ---------------------------

void AcceptedRecordsByteIdenticalToDirectIngest(Behind behind) {
  const size_t kShards = 2;
  auto root = FreshDir("diff_server", behind);
  auto pipeline = OpenPipeline(root, kShards, behind);
  auto server = StartServer(pipeline.get());
  auto client = Connect(*server);

  // A mixed accepted stream: inserts then chained updates, several
  // participants, several objects.
  std::vector<SubmitRequest> accepted;
  auto call = [&](const Request& request) {
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->message;
    accepted.push_back(request.submit);
  };
  uint8_t tag = 1;
  for (ObjectId object = 50; object < 58; ++object) {
    call(Insert(object, tag, 1 + object % 4));
    ++tag;
  }
  for (ObjectId object = 50; object < 58; ++object) {
    call(Update(object, static_cast<uint8_t>(object - 49), tag,
                1 + (object + 1) % 4));
    ++tag;
  }

  server->Stop();
  server.reset();
  ASSERT_TRUE(pipeline->Drain().ok());
  ASSERT_EQ(pipeline->OpenSnapshot().record_count(), accepted.size());

  ExpectByteIdenticalToDirectIngest(FreshDir("diff_direct", behind),
                                    accepted, *pipeline, kShards);

  // And the accepted set is *durable*: a recovery-path reopen of the same
  // root must reconstruct the identical store.
  std::vector<Bytes> before = FlattenStore(*pipeline);
  pipeline.reset();
  auto reopened = OpenPipeline(root, kShards, behind);
  EXPECT_EQ(FlattenStore(*reopened), before);
}

TEST(ServerIntegrationTest, AcceptedRecordsByteIdenticalToDirectIngest) {
  AcceptedRecordsByteIdenticalToDirectIngest(Behind::kSequential);
}

TEST(ServerPooledTest, AcceptedRecordsByteIdenticalToDirectIngest) {
  AcceptedRecordsByteIdenticalToDirectIngest(Behind::kPooled);
}

// -- Overload ----------------------------------------------------------

void SaturatedAdmissionShedsTypedAndCommitsTheRest(Behind behind) {
  const size_t kShards = 2;
  auto root = FreshDir("overload", behind);
  auto pipeline = OpenPipeline(root, kShards, behind);

  ServerOptions options;
  // A budget of a couple of frames and a tiny pending queue: a 64-deep
  // pipelined burst MUST shed.
  options.max_inflight_bytes = 256;
  options.max_pending_per_connection = 2;
  auto server = StartServer(pipeline.get(), options);
  auto client = Connect(*server);

  constexpr size_t kBurst = 64;
  std::vector<Request> requests;
  for (size_t i = 0; i < kBurst; ++i) {
    requests.push_back(
        Insert(700 + i, static_cast<uint8_t>(i), 1 + i % 4));
  }
  // One contiguous write so the burst lands ahead of any response.
  Bytes blob;
  for (const Request& request : requests) {
    Bytes frame = EncodeFrame(EncodeRequest(request));
    blob.insert(blob.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.SendBytes(blob).ok());

  size_t ok = 0, shed = 0;
  std::vector<SubmitRequest> accepted;
  for (size_t i = 0; i < kBurst; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->ok()) {
      ++ok;
      accepted.push_back(requests[i].submit);
    } else {
      // Overload is exactly kUnavailable — never a corruption verdict on
      // a well-formed frame, never a dropped connection.
      ASSERT_EQ(response->code, StatusCode::kUnavailable)
          << response->message;
      EXPECT_FALSE(response->message.empty());
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(ok + shed, kBurst);

  // The connection survived the shedding: it still serves requests.
  Request post_burst = Insert(9000, 0xAB);
  auto after = client.Call(post_burst);
  ASSERT_TRUE(after.ok());
  if (after->ok()) accepted.push_back(post_burst.submit);

  server->Stop();
  server.reset();
  ASSERT_TRUE(pipeline->Drain().ok());

  // Exactly the accepted set committed — nothing shed leaked in, nothing
  // accepted got lost — and its bytes match a direct ingest replay.
  ASSERT_EQ(pipeline->OpenSnapshot().record_count(), accepted.size());
  ExpectByteIdenticalToDirectIngest(FreshDir("overload_direct", behind),
                                    accepted, *pipeline, kShards);

  // Budget fully released once the burst is answered.
  for (const auto& [name, value] :
       observability::GlobalMetrics().Snapshot().gauges) {
    if (name == "server.inflight.bytes") {
      EXPECT_EQ(value, 0);
    }
  }
}

TEST(ServerOverloadTest, SaturatedAdmissionShedsTypedAndCommitsTheRest) {
  SaturatedAdmissionShedsTypedAndCommitsTheRest(Behind::kSequential);
}

TEST(ServerPooledTest, SaturatedAdmissionShedsTypedAndCommitsTheRest) {
  SaturatedAdmissionShedsTypedAndCommitsTheRest(Behind::kPooled);
}

}  // namespace
}  // namespace provdb::net
