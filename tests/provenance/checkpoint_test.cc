// Signed checkpoints: seal/load round trip, tamper refusal (a re-framed
// record fails the seal), wrong-key refusal, stale checkpoint GC, and the
// in-flight .tmp handling around crashes. Every byte flip, truncation and
// overwrite of a sealed checkpoint is a row of the frame tamper matrix
// (tests/integration/frame_tamper_matrix_test.cc).

#include "provenance/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/crc32.h"
#include "common/frame.h"
#include "crypto/signer.h"
#include "provenance/ingest_pipeline.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::Env;

crypto::Digest D(uint8_t fill) {
  return crypto::Digest::FromBytes(Bytes(20, fill));
}

ProvenanceRecord Rec(storage::ObjectId object, SeqId seq, OperationType op,
                     uint8_t fill) {
  ProvenanceRecord rec;
  rec.seq_id = seq;
  rec.participant = 1;
  rec.op = op;
  if (op != OperationType::kInsert) {
    rec.inputs.push_back(ObjectState{object, D(fill ^ 0x55)});
  }
  rec.output = ObjectState{object, D(fill)};
  rec.checksum = Bytes(128, fill);
  return rec;
}

const crypto::RsaSigner& Sealer() {
  return TestPki::Instance().participant(0).signer();
}

crypto::RsaSignatureVerifier SealVerifier() {
  return crypto::RsaSignatureVerifier(
      TestPki::Instance().participant(0).public_key());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/provdb_checkpoint_" + info->name();
    env_ = Env::Default();
    auto names = env_->ListDir(dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        ASSERT_TRUE(env_->RemoveFile(dir_ + "/" + name).ok());
      }
    }
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
  }

  /// The fixture's one-shard store, filled with two chains: object 7
  /// (insert + update) and object 9 (insert), three live records total.
  ProvenanceStore& SmallStore() {
    ProvenanceStore& store = sharded_.shard(0);
    EXPECT_TRUE(store.AddRecord(Rec(7, 0, OperationType::kInsert, 1)).ok());
    EXPECT_TRUE(store.AddRecord(Rec(7, 1, OperationType::kUpdate, 2)).ok());
    EXPECT_TRUE(store.AddRecord(Rec(9, 0, OperationType::kInsert, 3)).ok());
    return store;
  }

  /// The fixture store as it stands now, published and pinned: what a
  /// seal reads.
  const StoreReadView& Published() {
    sharded_.PublishAll();
    pinned_ = sharded_.OpenSnapshot();
    return pinned_.shard_view(0);
  }

  /// Loads the checkpoint at `path` into a fresh one-shard store,
  /// `restored()`.
  Result<CheckpointManifest> Load(const std::string& path,
                                  const crypto::RsaSignatureVerifier& verifier) {
    restored_ = std::make_unique<ShardedProvenanceStore>(1);
    return CheckpointReader::Load(env_, path, verifier,
                                  &restored_->shard(0));
  }
  const ProvenanceStore& restored() const { return restored_->shard(0); }

  Bytes ReadAll(const std::string& path) {
    auto content = env_->ReadFileToBytes(path);
    EXPECT_TRUE(content.ok());
    return std::move(content).value();
  }

  void WriteAll(const std::string& path, const Bytes& content) {
    auto file = env_->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(content).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Env* env_ = nullptr;
  std::string dir_;
  ShardedProvenanceStore sharded_{1};
  StoreSnapshot pinned_;  // after sharded_: released before it dies
  std::unique_ptr<ShardedProvenanceStore> restored_;
};

size_t ReadVarintAt(const Bytes& bytes, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    uint8_t c = bytes[*pos];
    ++*pos;
    value |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
  }
  return static_cast<size_t>(value);
}

// The ingest pipeline seals from a pinned snapshot on a background
// thread while its writer keeps committing. That seal must be the very
// bytes a synchronous seal of the pinned store state writes: interleaved
// chains, an aggregate, and a pruned object included, in an image large
// enough to go out in several write chunks.
TEST_F(CheckpointTest, PinnedSnapshotSealMatchesTheSynchronousSeal) {
  ShardedProvenanceStore& sharded = sharded_;
  ProvenanceStore& store = sharded.shard(0);
  ASSERT_TRUE(store.AddRecord(Rec(7, 0, OperationType::kInsert, 1)).ok());
  ASSERT_TRUE(store.AddRecord(Rec(13, 0, OperationType::kInsert, 2)).ok());
  ASSERT_TRUE(store.AddRecord(Rec(9, 0, OperationType::kInsert, 3)).ok());
  ASSERT_TRUE(store.AddRecord(Rec(7, 1, OperationType::kUpdate, 4)).ok());
  ASSERT_TRUE(store.AddRecord(Rec(13, 1, OperationType::kUpdate, 5)).ok());
  ProvenanceRecord aggregate = Rec(11, 2, OperationType::kAggregate, 6);
  aggregate.inputs = {ObjectState{7, D(4)}, ObjectState{9, D(3)}};
  ASSERT_TRUE(store.AddRecord(aggregate).ok());
  ASSERT_TRUE(store.PruneObject(13).ok());
  ASSERT_TRUE(store.AddRecord(Rec(9, 1, OperationType::kUpdate, 7)).ok());
  constexpr storage::ObjectId kBulk = 600;
  for (storage::ObjectId id = 100; id < 100 + kBulk; ++id) {
    ASSERT_TRUE(store
                    .AddRecord(Rec(id, 0, OperationType::kInsert,
                                   static_cast<uint8_t>(id)))
                    .ok());
  }

  constexpr uint64_t kHorizon = 4;
  const std::string path = CheckpointFileName(dir_, kHorizon);
  ASSERT_TRUE(CheckpointWriter::Write(env_, dir_, Published(), kHorizon,
                                      Sealer(), 1)
                  .ok());
  const Bytes synchronous = ReadAll(path);
  EXPECT_GT(synchronous.size(), size_t{128} << 10);
  ASSERT_TRUE(env_->RemoveFile(path).ok());

  // Pin the published state, then keep writing: the seal must not see
  // the later records or the later prune.
  const StoreSnapshot snapshot = sharded.OpenSnapshot();
  ASSERT_TRUE(store.AddRecord(Rec(9, 2, OperationType::kUpdate, 8)).ok());
  ASSERT_TRUE(store.AddRecord(Rec(15, 0, OperationType::kInsert, 9)).ok());
  ASSERT_TRUE(store.PruneObject(15).ok());
  sharded.PublishAll();
  ASSERT_TRUE(CheckpointWriter::Write(env_, dir_, snapshot.shard_view(0),
                                      kHorizon, Sealer(), 1)
                  .ok());
  EXPECT_EQ(ReadAll(path), synchronous);

  auto verifier = SealVerifier();
  auto loaded = Load(path, verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->live_records, 5 + kBulk);
  EXPECT_EQ(loaded->chain_count, 3 + kBulk);
}

TEST_F(CheckpointTest, RoundTripRestoresStoreAndManifest) {
  SmallStore();
  ASSERT_TRUE(CheckpointWriter::Write(env_, dir_, Published(),
                                      /*wal_horizon=*/3, Sealer(),
                                      /*sealer_id=*/1)
                  .ok());
  ASSERT_TRUE(env_->FileExists(CheckpointFileName(dir_, 3)));

  auto verifier = SealVerifier();
  auto loaded = Load(CheckpointFileName(dir_, 3), verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->wal_horizon, 3u);
  EXPECT_EQ(loaded->sealer, 1u);
  EXPECT_EQ(loaded->live_records, 3u);
  EXPECT_EQ(loaded->chain_count, 2u);
  EXPECT_EQ(restored().record_count(), 3u);
  EXPECT_EQ(restored().ChainOf(7), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(restored().record(1).checksum, Bytes(128, 2));
}

TEST_F(CheckpointTest, EmptyStoreStillSeals) {
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 1, Sealer(), 1).ok());
  auto verifier = SealVerifier();
  auto loaded = Load(CheckpointFileName(dir_, 1), verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(restored().record_count(), 0u);
  EXPECT_EQ(loaded->chain_count, 0u);
}

TEST_F(CheckpointTest, PrunedRecordsAreNotResurrected) {
  ProvenanceStore& store = SmallStore();
  ASSERT_TRUE(store.PruneObject(9).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 2, Sealer(), 1).ok());

  auto verifier = SealVerifier();
  auto loaded = Load(CheckpointFileName(dir_, 2), verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->live_records, 2u);
  EXPECT_EQ(restored().live_record_count(), 2u);
  EXPECT_TRUE(restored().ChainOf(9).empty())
      << "pruned history must stay pruned across a checkpoint";
}

TEST_F(CheckpointTest, WriteRejectsHorizonZero) {
  SmallStore();
  EXPECT_EQ(
      CheckpointWriter::Write(env_, dir_, Published(), 0, Sealer(), 1).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, TamperedRecordWithPatchedCrcFailsTheSeal) {
  SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  Bytes content = ReadAll(path);

  // Walk to the second frame (the first record), flip a payload byte,
  // and recompute that frame's CRC so the tamper passes every integrity
  // check short of the signature.
  size_t pos = kFileHeaderSize;
  size_t manifest_len = ReadVarintAt(content, &pos);
  pos += manifest_len + 4;
  size_t record_len = ReadVarintAt(content, &pos);
  content[pos + record_len / 2] ^= 0x01;
  const uint32_t patched =
      Crc32(ByteView(content.data() + pos, record_len));
  Bytes crc;
  AppendFixed32(&crc, patched);
  for (size_t i = 0; i < 4; ++i) {
    content[pos + record_len + i] = crc[i];
  }
  WriteAll(path, content);

  auto verifier = SealVerifier();
  auto loaded = Load(path, verifier);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVerificationFailed)
      << loaded.status().ToString();
}

TEST_F(CheckpointTest, WrongKeyIsRefused) {
  SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 1, Sealer(), 1).ok());
  // Participant 2's key did not seal this checkpoint.
  crypto::RsaSignatureVerifier wrong_key(
      TestPki::Instance().participant(1).public_key());
  auto loaded = Load(CheckpointFileName(dir_, 1), wrong_key);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVerificationFailed);
}

TEST_F(CheckpointTest, LatestHorizonPicksNewestAndIgnoresTmp) {
  EXPECT_EQ(LatestCheckpointHorizon(env_, dir_).status().code(),
            StatusCode::kNotFound);

  SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 2, Sealer(), 1).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 5, Sealer(), 1).ok());
  // An in-flight .tmp (crash mid-write) must never win, whatever its
  // number claims.
  WriteAll(dir_ + "/checkpoint-000009.pvck.tmp", Bytes(8, 0xAB));

  auto latest = LatestCheckpointHorizon(env_, dir_);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 5u);
}

TEST_F(CheckpointTest, RemoveStaleKeepsTheSealAtKeepHorizon) {
  SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 2, Sealer(), 1).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, Published(), 5, Sealer(), 1).ok());
  WriteAll(dir_ + "/checkpoint-000009.pvck.tmp", Bytes(8, 0xAB));

  ASSERT_TRUE(RemoveStaleCheckpoints(env_, dir_, 5).ok());
  EXPECT_FALSE(env_->FileExists(CheckpointFileName(dir_, 2)));
  EXPECT_TRUE(env_->FileExists(CheckpointFileName(dir_, 5)));
  EXPECT_FALSE(env_->FileExists(dir_ + "/checkpoint-000009.pvck.tmp"));
  // Idempotent, like WAL GC.
  EXPECT_TRUE(RemoveStaleCheckpoints(env_, dir_, 5).ok());
}

}  // namespace
}  // namespace provdb::provenance
