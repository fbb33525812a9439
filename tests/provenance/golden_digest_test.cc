// Golden-digest regression test: the runtime backstop for lint rule R01
// (canonical encoding must never drift).
//
// A fixed workload — fixed PKI seed, fixed operation sequence — must
// serialize to byte-identical provenance bundles forever: the SHA-256 of
// the wire encoding is pinned below. Any change to record encoding, value
// canonicalization, signature formatting, or (the R01 hazard) an
// iteration-order-dependent serialization path flips the digest and fails
// this test, even if verification still happens to pass.
//
// The same workload also pins the framed formats byte for byte: the WAL
// segments and sealed checkpoint it leaves in a one-shard ingest
// pipeline's shard directory, and framed network requests and responses
// built from it.
//
// If this test fails because you *intentionally* changed the wire format,
// treat it as a compatibility break: bump the format, then re-pin the
// constant from the test's failure output.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/varint.h"
#include "crypto/hash.h"
#include "net/wire.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

/// SHA-256 of the serialized recipient bundle produced by BuildBundle().
/// Pinned 2026-08-06; every byte of the encoding (varints, value
/// canonicalization, record layout, RSA signatures from the fixed-seed
/// test PKI) is covered.
constexpr char kGoldenBundleSha256[] =
    "bcca8d0f95604b6196af16574a5e94eafcc3776dfaae84bfab8085b0bd84d358";

/// SHA-256 over the shard WAL directory WalAndCheckpointBytesArePinned
/// leaves behind: every file's name, size, and bytes, in name order.
/// Pinned 2026-10-17; covers the 20-byte segment and checkpoint headers,
/// every record and prune-marker frame, and the checkpoint seal.
constexpr char kGoldenWalDirSha256[] =
    "20099f26eb38627677125f8e332e4f56d94b77e4feef7e4859f311d47a2ea9ad";

/// SHA-256 of the framed submit, query-chain, and response messages of
/// WireFramesArePinned, concatenated. Pinned 2026-10-17.
constexpr char kGoldenWireFramesSha256[] =
    "e3af731aa5d30a6173e0e17d44a9591e8ffb1eb7891cc108312480cae3430b37";

/// The fixed workload: three chains (insert + updates), one aggregation
/// across them, and a compound object, exercising every record kind the
/// wire format encodes. `midway` runs between the chains and the compound
/// object. Returns the aggregate's object id.
ObjectId RunWorkload(TrackedDatabase* db,
                     const std::function<void()>& midway = {}) {
  const TestPki& pki = TestPki::Instance();
  const auto& alice = pki.participant(0);
  const auto& bob = pki.participant(1);
  const auto& carol = pki.participant(2);

  ObjectId a = db->Insert(alice, Value::String("alpha-0")).value();
  ObjectId b = db->Insert(bob, Value::Int(42)).value();
  ObjectId c = db->Insert(carol, Value::Double(2.5)).value();

  EXPECT_TRUE(db->Update(bob, a, Value::String("alpha-1")).ok());
  EXPECT_TRUE(db->Update(alice, a, Value::String("alpha-2")).ok());
  EXPECT_TRUE(db->Update(carol, b, Value::Int(43)).ok());
  if (midway) midway();

  // A compound object under a fresh root, then one nested update.
  ObjectId root = db->Insert(alice, Value::String("table")).value();
  ObjectId row = db->Insert(alice, Value::Int(1), root).value();
  ObjectId cell = db->Insert(bob, Value::String("cell"), row).value();
  EXPECT_TRUE(db->Update(bob, cell, Value::String("cell'")).ok());

  // Aggregate the three chains into a report object.
  ObjectId report =
      db->Aggregate(carol, {a, b, c}, Value::String("summary")).value();
  EXPECT_TRUE(db->Update(carol, report, Value::String("summary-v2")).ok());
  return report;
}

RecipientBundle BuildBundle() {
  TrackedDatabase db;
  ObjectId report = RunWorkload(&db);
  return db.ExportForRecipient(report).value();
}

std::string Sha256Hex(ByteView bytes) {
  return HexEncode(
      crypto::HashBytes(crypto::HashAlgorithm::kSha256, bytes).view());
}

TEST(GoldenDigestTest, BundleEncodingIsPinned) {
  RecipientBundle bundle = BuildBundle();
  Bytes wire = bundle.Serialize();
  EXPECT_EQ(Sha256Hex(wire), kGoldenBundleSha256)
      << "canonical bundle encoding drifted (" << wire.size()
      << " wire bytes). If intentional, re-pin kGoldenBundleSha256.";
}

TEST(GoldenDigestTest, EncodingIsStableAcrossRebuilds) {
  // Two independently built databases running the same workload must
  // serialize identically — no address-, allocation-, or hash-seed-
  // dependent bytes may reach the wire.
  Bytes first = BuildBundle().Serialize();
  Bytes second = BuildBundle().Serialize();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);
}

TEST(GoldenDigestTest, PinnedBundleVerifiesSequentiallyAndParallel) {
  RecipientBundle bundle = BuildBundle();

  ProvenanceVerifier sequential(&TestPki::Instance().registry());
  VerificationReport seq_report = sequential.Verify(bundle);
  EXPECT_TRUE(seq_report.ok()) << seq_report.ToString();

  ProvenanceVerifier parallel(&TestPki::Instance().registry(),
                              crypto::HashAlgorithm::kSha1,
                              ParallelismConfig{4});
  VerificationReport par_report = parallel.Verify(bundle);
  EXPECT_TRUE(par_report.ok()) << par_report.ToString();

  // Same report, byte for byte (the parallel engine's contract).
  EXPECT_EQ(seq_report.ToString(), par_report.ToString());
  EXPECT_EQ(seq_report.records_checked, par_report.records_checked);
  EXPECT_EQ(seq_report.signatures_verified, par_report.signatures_verified);
}

TEST(GoldenDigestTest, WalAndCheckpointBytesArePinned) {
  storage::Env* env = storage::Env::Default();
  const std::string root = ::testing::TempDir() + "/provdb_golden_pipeline";
  const std::string dir = ShardedProvenanceStore::ShardDirName(root, 0);
  ASSERT_TRUE(env->CreateDir(root).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  const std::vector<std::string> leftovers = env->ListDir(dir).value();
  for (const std::string& name : leftovers) {
    ASSERT_TRUE(env->RemoveFile(dir + "/" + name).ok());
  }

  // A small segment limit rolls the log every few records, so the
  // directory ends with a sealed checkpoint and at least two segments.
  const crypto::Participant& sealer = TestPki::Instance().participant(0);
  IngestOptions options;
  options.wal.segment_size_limit = 512;
  options.checkpoint.signer = &sealer.signer();
  options.checkpoint.sealer_id = sealer.id();
  auto pipeline = IngestPipeline::Open(env, root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto db = TrackedDatabase::Open(pipeline->get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RunWorkload(db->get(),
              [&] { EXPECT_TRUE((*pipeline)->CheckpointNow().ok()); });
  // A prune marker: a standalone object inserted and then pruned.
  ObjectId solo = (*db)->Insert(sealer, Value::Int(7)).value();
  ASSERT_TRUE((*pipeline)->Prune(solo).ok());
  ASSERT_TRUE((*pipeline)->Close().ok());

  std::vector<std::string> names = env->ListDir(dir).value();
  std::sort(names.begin(), names.end());
  size_t segments = 0;
  size_t checkpoints = 0;
  Bytes corpus;
  for (const std::string& name : names) {
    uint64_t index = 0;
    if (storage::ParseWalSegmentName(name, &index) ==
        storage::WalSegmentNameKind::kSegment) {
      ++segments;
    } else if (name.rfind("checkpoint-", 0) == 0) {
      ++checkpoints;
    }
    Bytes content = env->ReadFileToBytes(dir + "/" + name).value();
    AppendLengthPrefixed(&corpus, ByteView(name));
    AppendLengthPrefixed(&corpus, content);
  }
  ASSERT_GE(segments, 2u);
  ASSERT_EQ(checkpoints, 1u);
  EXPECT_EQ(Sha256Hex(corpus), kGoldenWalDirSha256)
      << "WAL segment or checkpoint bytes drifted (" << names.size()
      << " files, " << corpus.size()
      << " bytes). If intentional, re-pin kGoldenWalDirSha256.";
}

// The golden workload over a borrowed pipeline that signs on a pool of
// four gives the default database's records, byte for byte and in the
// same store order. ("Parallel" in the name opts it into the TSan CI
// stage's filter.)
TEST(GoldenDigestTest, ParallelSigningPoolKeepsRecordBytes) {
  TrackedDatabase reference;
  RunWorkload(&reference);

  IngestOptions options;
  options.signing = ParallelismConfig{4};
  auto pipeline = IngestPipeline::OpenInMemory(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto db = TrackedDatabase::Open(pipeline->get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RunWorkload(db->get());

  const ProvenanceStore& expected = reference.provenance();
  const ProvenanceStore& actual = (*db)->provenance();
  ASSERT_EQ(actual.record_count(), expected.record_count());
  for (uint64_t i = 0; i < expected.record_count(); ++i) {
    EXPECT_EQ(EncodeRecord(actual.record(i)), EncodeRecord(expected.record(i)))
        << "record " << i;
  }
}

TEST(GoldenDigestTest, WireFramesArePinned) {
  TrackedDatabase db;
  ObjectId report = RunWorkload(&db);
  StoreSnapshot snapshot = db.OpenSnapshot();
  const ProvenanceRecord& latest = *snapshot.ChainRecords(report).back();

  // A submit shaped like the report's latest record.
  net::Request submit;
  submit.op = net::NetOp::kSubmitRecord;
  submit.submit.participant_id = latest.participant;
  submit.submit.op = latest.op;
  submit.submit.object = latest.output.object_id;
  submit.submit.post_hash = latest.output.state_hash;
  submit.submit.has_pre_hash = true;
  submit.submit.pre_hash = latest.inputs.front().state_hash;
  submit.submit.inputs = latest.inputs;
  submit.submit.input_prev_checksums = {latest.checksum};
  submit.submit.aggregate_seq = latest.seq_id;

  net::Request query;
  query.op = net::NetOp::kQueryChain;
  query.object = report;

  // The query's answer: the report's chain, as the server encodes it.
  net::Response chain;
  std::vector<const ProvenanceRecord*> records =
      snapshot.ExtractProvenance(report).value();
  AppendVarint64(&chain.body, records.size());
  for (const ProvenanceRecord* record : records) {
    AppendLengthPrefixed(&chain.body, EncodeRecord(*record));
  }
  net::Response refusal;
  refusal.code = StatusCode::kCorruption;
  refusal.message = "frame checksum mismatch";

  Bytes stream;
  AppendBytes(&stream, net::EncodeFrame(net::EncodeRequest(submit)));
  AppendBytes(&stream, net::EncodeFrame(net::EncodeRequest(query)));
  AppendBytes(&stream, net::EncodeFrame(net::EncodeResponse(chain)));
  AppendBytes(&stream, net::EncodeFrame(net::EncodeResponse(refusal)));
  EXPECT_EQ(Sha256Hex(stream), kGoldenWireFramesSha256)
      << "wire frame bytes drifted (" << stream.size()
      << " bytes). If intentional, re-pin kGoldenWireFramesSha256.";
}

}  // namespace
}  // namespace provdb::provenance
