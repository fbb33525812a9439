// Pins heap allocations per record on each path that fills a provenance
// store: WAL replay, a checkpoint load, and a pipeline commit. Index
// nodes born since the store's last publish are updated in place, so
// none of these paths copies an index path per record. Each pin is the
// level that rule gives, with a little headroom; a store that
// path-copied per record makes 3-4 more allocations per record on each.
// Allocations are counted by the global operator new override in
// alloc_test.cc, the other file of this binary.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "provenance/checkpoint.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "testing/test_pki.h"

uint64_t AllocationCount();  // alloc_test.cc

namespace provdb::observability {
namespace {

using provenance::ProvenanceRecord;
using provenance::ShardedProvenanceStore;

/// `objects` chains of four records each (an insert, then three
/// updates), interleaved across the objects as concurrent ingest commits
/// them.
std::vector<ProvenanceRecord> InterleavedChains(uint64_t objects) {
  std::vector<ProvenanceRecord> records;
  for (provenance::SeqId seq = 0; seq < 4; ++seq) {
    for (storage::ObjectId id = 1; id <= objects; ++id) {
      const auto fill = static_cast<uint8_t>(id + seq);
      ProvenanceRecord rec;
      rec.seq_id = seq;
      rec.participant = 1;
      rec.op = seq == 0 ? provenance::OperationType::kInsert
                        : provenance::OperationType::kUpdate;
      if (seq > 0) {
        rec.inputs.push_back(provenance::ObjectState{
            id, crypto::Digest::FromBytes(Bytes(20, uint8_t(fill - 1)))});
      }
      rec.output = provenance::ObjectState{
          id, crypto::Digest::FromBytes(Bytes(20, fill))};
      rec.checksum = Bytes(128, fill);
      records.push_back(std::move(rec));
    }
  }
  return records;
}

/// An empty directory `name` under the test temp dir (files only: it
/// must hold no subdirectory).
std::string FreshDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  auto files = env->ListDir(dir);
  if (files.ok()) {
    for (const std::string& file : *files) {
      EXPECT_TRUE(env->RemoveFile(dir + "/" + file).ok());
    }
  }
  return dir;
}

// 3.2 allocations per record: the record's own buffers, its chain cell,
// and a leaf per new chain. Decoding reads the op tag, the flags and
// every digest as views. Path-copying per record made it 11.4, and
// copying those fields 7.9.
TEST(AllocTest, WalRecoveryAllocationsPerRecordArePinned) {
  storage::Env* env = storage::Env::Default();
  const std::string root = ::testing::TempDir() + "/provdb_alloc_wal";
  ASSERT_TRUE(env->CreateDir(root).ok());
  const std::vector<ProvenanceRecord> records = InterleavedChains(512);
  {
    auto wal = storage::WalWriter::Open(
        env, FreshDir("provdb_alloc_wal/shard-000"));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (const ProvenanceRecord& rec : records) {
      ASSERT_TRUE(wal->Append(provenance::EncodeWalRecordEntry(rec)).ok());
    }
    ASSERT_TRUE(wal->Close().ok());
  }

  const uint64_t before = AllocationCount();
  auto recovered = ShardedProvenanceStore::Recover(env, root, 1);
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->record_count(), records.size());
  const double per_record =
      static_cast<double>(allocations) / static_cast<double>(records.size());
  EXPECT_LE(per_record, 3.5) << allocations << " allocations";
}

// 3.2 per record, as from the WAL: the seal check and the chain-tail
// check copy nothing per record. Before, 12.9, and 7.9 while decoding
// copied its fixed-width fields and digests.
TEST(AllocTest, CheckpointLoadAllocationsPerRecordArePinned) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = FreshDir("provdb_alloc_checkpoint");
  const crypto::Participant& sealer =
      testing::TestPki::Instance().participant(0);
  const std::vector<ProvenanceRecord> records = InterleavedChains(512);
  {
    ShardedProvenanceStore sealed(1);
    for (const ProvenanceRecord& rec : records) {
      ASSERT_TRUE(sealed.shard(0).AddRecord(rec).ok());
    }
    sealed.PublishAll();
    ASSERT_TRUE(provenance::CheckpointWriter::Write(
                    env, dir, sealed.OpenSnapshot().shard_view(0),
                    /*wal_horizon=*/1, sealer.signer(), sealer.id())
                    .ok());
  }
  const crypto::RsaSignatureVerifier verifier(sealer.public_key());

  ShardedProvenanceStore restored(1);
  const uint64_t before = AllocationCount();
  auto loaded = provenance::CheckpointReader::Load(
      env, provenance::CheckpointFileName(dir, 1), verifier,
      &restored.shard(0));
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(restored.record_count(), records.size());
  const double per_record =
      static_cast<double>(allocations) / static_cast<double>(records.size());
  EXPECT_LE(per_record, 3.5) << allocations << " allocations";
}

// 2.6 per record: the chain cell, one copy of each leaf born before the
// last publish, and each touched index path copied once per batch.
// Path-copying per record made it 5.0.
TEST(AllocTest, PipelineCommitAllocationsPerRecordArePinned) {
  const crypto::Participant& p = testing::TestPki::Instance().participant(0);
  provenance::IngestOptions options;
  options.max_batch_records = 4096;
  auto pipeline = provenance::IngestPipeline::OpenInMemory(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  constexpr uint64_t kObjects = 512;
  auto submit = [&](provenance::OperationType op, uint8_t round) {
    for (storage::ObjectId id = 1; id <= kObjects; ++id) {
      provenance::IngestRequest request;
      request.op = op;
      request.object = id;
      request.post_hash = crypto::Digest::FromBytes(Bytes(20, round));
      request.participant = &p;
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
  };
  // The inserts commit and publish as one batch; the updates then sign
  // at Submit (a sequential pipeline signs inline), so the Drain below
  // only commits and publishes.
  submit(provenance::OperationType::kInsert, 1);
  ASSERT_TRUE((*pipeline)->Drain().ok());
  submit(provenance::OperationType::kUpdate, 2);

  const uint64_t before = AllocationCount();
  ASSERT_TRUE((*pipeline)->Drain().ok());
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_EQ((*pipeline)->committed(), 2 * kObjects);
  const double per_record = static_cast<double>(allocations) / kObjects;
  EXPECT_LE(per_record, 3.0) << allocations << " allocations";
}

}  // namespace
}  // namespace provdb::observability
