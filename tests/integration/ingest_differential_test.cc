// Randomized differential test: the same seeded workload driven into a
// sequential reference ProvenanceStore and into the sharded ingest
// pipeline at 1/2/8 shards must agree on every per-object chain (byte
// for byte), every live subtree digest, and every verifier/auditor
// verdict; at 4/8 shards under a Drain cadence with checkpoint seals,
// the chains and their recovery from the seals must agree too. Failures
// log the seed so the exact run can be replayed.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "crypto/signer.h"
#include "provenance/serialization.h"
#include "provenance/subtree_hasher.h"
#include "provenance/verifier.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::ChainsByIndex;
using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::OneShardCopy;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::SubmitWithDrainCadence;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;

void RunDifferential(uint64_t seed, size_t num_shards) {
  SCOPED_TRACE("replay with seed=" + std::to_string(seed) +
               " num_shards=" + std::to_string(num_shards));
  IngestWorkloadBuilder builder;
  Status s = RandomDifferentialWorkload(&builder, seed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_GT(builder.requests().size(), 0u);

  IngestOptions options;
  options.num_shards = num_shards;
  options.max_batch_records = 5;  // several batches per shard
  options.signing.num_threads = 4;
  std::string root = ::testing::TempDir() + "/provdb_diff_" +
                     std::to_string(seed) + "_" + std::to_string(num_shards);
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const StoreSnapshot sharded = (*pipeline)->OpenSnapshot();
  const ProvenanceStore& reference = builder.reference_store();

  // (1) Identical per-object chains, byte for byte.
  EXPECT_EQ(sharded.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    std::vector<uint64_t> ref_chain = reference.ChainOf(id);
    std::vector<const ProvenanceRecord*> shard_chain =
        sharded.ChainRecords(id);
    ASSERT_EQ(shard_chain.size(), ref_chain.size());
    for (size_t i = 0; i < ref_chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*shard_chain[i]),
                EncodeRecord(reference.record(ref_chain[i])))
          << "record " << i << " of chain " << id << " differs";
    }
  }

  // (2) Every tracked object's latest record hashes to the live subtree.
  SubtreeHasher hasher(&builder.tree(), builder.algorithm());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<const ProvenanceRecord*> chain = sharded.ChainRecords(id);
    ASSERT_FALSE(chain.empty());
    auto live = hasher.HashSubtreeBasic(id);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_TRUE(chain.back()->output.state_hash == *live)
        << "live digest diverged for object " << id;
  }

  // (3) Identical verifier verdicts (full report text, not just ok()).
  ChecksumEngine engine(builder.algorithm());
  VerificationReport ref_verify;
  VerifyRecordChains(builder.registry(), engine, ChainsByIndex(reference),
                     &ref_verify);
  const ProvenanceVerifier verifier(&builder.registry(), builder.algorithm());
  VerificationReport sharded_verify = verifier.VerifyStore(sharded);
  EXPECT_TRUE(sharded_verify.ok()) << sharded_verify.ToString();
  EXPECT_EQ(sharded_verify.ToString(), ref_verify.ToString());
  EXPECT_EQ(sharded_verify.records_checked, ref_verify.records_checked);
  EXPECT_EQ(sharded_verify.signatures_verified,
            ref_verify.signatures_verified);

  // (4) Identical audit verdicts against the live tree.
  auto reference_copy = OneShardCopy(reference);
  ASSERT_TRUE(reference_copy.ok()) << reference_copy.status().ToString();
  VerificationReport audit_sharded = verifier.Audit(sharded, builder.tree());
  VerificationReport audit_ref =
      verifier.Audit(reference_copy->OpenSnapshot(), builder.tree());
  EXPECT_TRUE(audit_sharded.ok()) << audit_sharded.ToString();
  EXPECT_EQ(audit_sharded.ToString(), audit_ref.ToString());

  // (5) Recovery round-trip: the on-disk WALs rebuild the same store.
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, num_shards);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StoreSnapshot restored = recovered->OpenSnapshot();
  EXPECT_EQ(restored.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<const ProvenanceRecord*> a = sharded.ChainRecords(id);
    std::vector<const ProvenanceRecord*> b = restored.ChainRecords(id);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*a[i]), EncodeRecord(*b[i]));
    }
  }
  VerificationReport rec_verify = verifier.VerifyStore(restored);
  EXPECT_TRUE(rec_verify.ok()) << rec_verify.ToString();
}

TEST(IngestDifferentialTest, RandomWorkloadsAgreeAtEveryShardCount) {
  const uint64_t seeds[] = {0xD1FF0001u, 0xD1FF0002u, 0xD1FF0003u};
  const size_t shard_counts[] = {1, 2, 8};
  for (uint64_t seed : seeds) {
    for (size_t shards : shard_counts) {
      RunDifferential(seed, shards);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// A Drain() every few submits, so most write-aheads cover every shard at
// once (overlapped fsyncs),
// plus a checkpoint seal every few records per shard. Chains must still
// match the sequential reference byte for byte, and recovery from the
// sealed checkpoints plus WAL suffixes must rebuild the same chains.
//
// The policy seals alone do not fix their count: one background sealer
// runs one seal at a time, and a shard's threshold resets when its WAL
// rolls, so records that pile up behind another shard's seal share one
// seal. Two CheckpointNow() calls make the count hold by construction:
// one at the first Drain by which every shard has had a record, and one
// before Close. Every shard also gets records between the two, so each
// part ends with at least one seal per shard.
void RunDrainAndSealDifferential(uint64_t seed, size_t num_shards) {
  SCOPED_TRACE("replay with seed=" + std::to_string(seed) +
               " num_shards=" + std::to_string(num_shards));
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, seed).ok());
  const ProvenanceStore& reference = builder.reference_store();

  constexpr size_t kDrainEvery = 7;
  const std::vector<IngestRequest>& requests = builder.requests();
  auto shard_of = [num_shards](const IngestRequest& request) {
    return ShardIndex(request.object, num_shards);
  };
  std::set<size_t> shards_seen;
  size_t split = 0;
  while (split < requests.size() && shards_seen.size() < num_shards) {
    shards_seen.insert(shard_of(requests[split++]));
  }
  split = std::min(requests.size(),
                   (split + kDrainEvery - 1) / kDrainEvery * kDrainEvery);
  const std::vector<IngestRequest> first(requests.begin(),
                                         requests.begin() + split);
  const std::vector<IngestRequest> second(requests.begin() + split,
                                          requests.end());
  for (size_t s = 0; s < num_shards; ++s) {
    auto on_shard = [&](const IngestRequest& r) { return shard_of(r) == s; };
    ASSERT_TRUE(std::any_of(first.begin(), first.end(), on_shard))
        << "shard " << s << " gets no record before the first seal point";
    ASSERT_TRUE(std::any_of(second.begin(), second.end(), on_shard))
        << "shard " << s << " gets no record after the first seal point";
  }

  const crypto::Participant& sealer = TestPki::Instance().participant(0);
  crypto::RsaSignatureVerifier seal_verifier(sealer.public_key());
  IngestOptions options;
  options.num_shards = num_shards;
  options.max_batch_records = 5;
  options.signing.num_threads = 4;
  options.checkpoint.every_records = 3;
  options.checkpoint.signer = &sealer.signer();
  options.checkpoint.sealer_id = sealer.id();
  options.checkpoint.verifier = &seal_verifier;
  std::string root = ::testing::TempDir() + "/provdb_diff_drainseal_" +
                     std::to_string(seed) + "_" + std::to_string(num_shards);
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (const std::vector<IngestRequest>* part : {&first, &second}) {
    Status submitted =
        SubmitWithDrainCadence(pipeline->get(), *part, kDrainEvery);
    ASSERT_TRUE(submitted.ok()) << submitted.ToString();
    Status sealed = (*pipeline)->CheckpointNow();
    ASSERT_TRUE(sealed.ok()) << sealed.ToString();
  }
  Status closed = (*pipeline)->Close();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  uint64_t checkpoints = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    checkpoints += (*pipeline)->shard_checkpoints(s);
  }
  EXPECT_GT(checkpoints, num_shards) << "too few seals to exercise";

  auto expect_reference_chains = [&](const StoreSnapshot& snapshot) {
    EXPECT_EQ(snapshot.record_count(), reference.record_count());
    for (ObjectId id : builder.tracked_objects()) {
      SCOPED_TRACE("object " + std::to_string(id));
      std::vector<uint64_t> ref_chain = reference.ChainOf(id);
      std::vector<const ProvenanceRecord*> chain = snapshot.ChainRecords(id);
      ASSERT_EQ(chain.size(), ref_chain.size());
      for (size_t i = 0; i < ref_chain.size(); ++i) {
        EXPECT_EQ(EncodeRecord(*chain[i]),
                  EncodeRecord(reference.record(ref_chain[i])))
            << "record " << i << " differs";
      }
    }
  };
  expect_reference_chains((*pipeline)->OpenSnapshot());

  std::vector<storage::WalRecoveryReport> reports;
  auto recovered = ShardedProvenanceStore::Recover(
      Env::Default(), root, num_shards, &reports, &seal_verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  size_t sealed_shards = 0;
  for (const storage::WalRecoveryReport& report : reports) {
    sealed_shards += report.checkpoint_horizon > 0 ? 1 : 0;
  }
  EXPECT_GT(sealed_shards, 0u) << "recovery never started from a seal";
  const StoreSnapshot restored = recovered->OpenSnapshot();
  expect_reference_chains(restored);
  VerificationReport verify =
      ProvenanceVerifier(&builder.registry(), builder.algorithm())
          .VerifyStore(restored);
  EXPECT_TRUE(verify.ok()) << verify.ToString();
}

TEST(IngestDifferentialTest, DrainCadenceWithSealsAgreesAtFourAndEightShards) {
  const uint64_t seeds[] = {0xD1FFD001u, 0xD1FFD002u};
  const size_t shard_counts[] = {4, 8};
  for (uint64_t seed : seeds) {
    for (size_t shards : shard_counts) {
      RunDrainAndSealDifferential(seed, shards);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IngestDifferentialTest, SyncEveryRecordModeAlsoAgrees) {
  // The baseline write path (one-record batches on a sequential
  // pipeline: an fsync per record) must produce the same bytes as group
  // commit — durability cadence must never change what gets signed.
  const uint64_t seed = 0xD1FFBEEF;
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, seed, wl).ok());

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 1;
  std::string root = ::testing::TempDir() + "/provdb_diff_synceach";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const ProvenanceStore& reference = builder.reference_store();
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<uint64_t> ref_chain = reference.ChainOf(id);
    std::vector<const ProvenanceRecord*> chain = snapshot.ChainRecords(id);
    ASSERT_EQ(chain.size(), ref_chain.size());
    for (size_t i = 0; i < ref_chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*chain[i]),
                EncodeRecord(reference.record(ref_chain[i])));
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
