// Durable-provenance integration: TrackedDatabase -> ProvenanceStore ->
// sealed checkpoint -> disk -> reload -> extraction -> verification, with
// corruption injected at each layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/frame.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::OneShardCopy;
using provdb::testing::TestPki;
using storage::Env;
using storage::ObjectId;
using storage::Value;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture as
    // parallel processes, and some of them corrupt their file on purpose.
    dir_ = ::testing::TempDir() + "/provdb_persist_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
    path_ = CheckpointFileName(dir_, 1);
    root_ = *db_.Insert(p(1), Value::String("db"));
    row_ = *db_.Insert(p(1), Value::Int(0), root_);
    cell_ = *db_.Insert(p(2), Value::Int(5), row_);
    EXPECT_TRUE(db_.Update(p(1), cell_, Value::Int(6)).ok());
    auto agg = db_.Aggregate(p(2), {root_}, Value::String("agg"));
    EXPECT_TRUE(agg.ok());
    agg_ = *agg;
  }

  void TearDown() override {
    auto names = env_->ListDir(dir_);
    if (!names.ok()) return;
    for (const std::string& name : *names) {
      EXPECT_TRUE(env_->RemoveFile(dir_ + "/" + name).ok());
    }
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  /// Seals the live provenance store into the checkpoint at `path_`.
  void Seal() {
    ASSERT_TRUE(CheckpointWriter::Write(env_, dir_,
                                        db_.OpenSnapshot().shard_view(0),
                                        /*wal_horizon=*/1, p(1).signer(),
                                        p(1).id())
                    .ok());
  }

  /// Loads the checkpoint at `path_` into a fresh one-shard store.
  Result<const ProvenanceStore*> Load() {
    crypto::RsaSignatureVerifier verifier(p(1).public_key());
    loaded_ = std::make_unique<ShardedProvenanceStore>(1);
    PROVDB_RETURN_IF_ERROR(
        CheckpointReader::Load(env_, path_, verifier, &loaded_->shard(0))
            .status());
    return &loaded_->shard(0);
  }

  Bytes ReadAll() { return env_->ReadFileToBytes(path_).value(); }

  void WriteAll(const Bytes& content) {
    auto file = env_->NewWritableFile(path_);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(content).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  /// The checkpoint's frame payloads in file order: manifest, one per
  /// live record, chain tails, seal.
  std::vector<Bytes> Frames(const Bytes& content) {
    std::vector<Bytes> frames;
    for (size_t pos = kFileHeaderSize; pos < content.size();) {
      DecodedFrame frame =
          DecodeFrame(ByteView(content).subview(pos), content.size());
      EXPECT_EQ(frame.result, FrameResult::kFrame) << frame.what;
      if (frame.result != FrameResult::kFrame) break;
      frames.push_back(frame.payload.ToBytes());
      pos += frame.size;
    }
    return frames;
  }

  /// A checkpoint file with the header of `content` and `frames`.
  Bytes Reframe(const Bytes& content, const std::vector<Bytes>& frames) {
    Bytes out(content.begin(), content.begin() + kFileHeaderSize);
    for (const Bytes& frame : frames) AppendFrame(&out, frame);
    return out;
  }

  Env* env_ = Env::Default();
  TrackedDatabase db_;
  ObjectId root_, row_, cell_, agg_;
  std::string dir_;
  std::string path_;
  std::unique_ptr<ShardedProvenanceStore> loaded_;
};

TEST_F(PersistenceTest, FullRoundTripVerifies) {
  Seal();
  auto loaded = Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ProvenanceStore& restored = **loaded;
  EXPECT_EQ(restored.record_count(), db_.provenance().record_count());

  // Bundle built from the restored store + a live snapshot verifies.
  RecipientBundle bundle;
  bundle.subject = agg_;
  bundle.data = *SubtreeSnapshot::Capture(db_.tree(), agg_);
  bundle.records = *restored.ExtractProvenance(agg_);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The restored store audits clean against the live tree.
  auto adopted = OneShardCopy(restored);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  auto audit = verifier.Audit(adopted->OpenSnapshot(), db_.tree());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(PersistenceTest, RestoredStorePreservesChainsAndAccounting) {
  Seal();
  auto loaded = Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ProvenanceStore& restored = **loaded;
  for (ObjectId object : {root_, row_, cell_, agg_}) {
    EXPECT_EQ(restored.ChainOf(object).size(),
              db_.provenance().ChainOf(object).size())
        << object;
  }
  EXPECT_EQ(restored.PaperSchemaBytes(), db_.provenance().PaperSchemaBytes());
  EXPECT_EQ(restored.SerializedBytes(), db_.provenance().SerializedBytes());
}

TEST_F(PersistenceTest, OnDiskBitFlipCaughtByCrc) {
  Seal();
  Bytes content = ReadAll();
  content[40] ^= 0x20;  // inside the first record frame's payload
  WriteAll(content);

  auto loaded = Load();
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, TamperedRecordInLogCaughtCryptographically) {
  // An attacker who rewrites a record *and* fixes the CRC still cannot
  // fix the seal: re-frame a modified record into the checkpoint.
  Seal();
  const Bytes content = ReadAll();
  std::vector<Bytes> frames = Frames(content);
  ASSERT_GT(frames.size(), 3u);
  auto rec = DecodeRecord(frames[2]);  // the second record
  ASSERT_TRUE(rec.ok());
  rec->output.state_hash.mutable_data()[0] ^= 1;
  frames[2] = EncodeRecord(*rec);  // valid encoding, valid CRC
  WriteAll(Reframe(content, frames));

  auto loaded = Load();  // framing is intact; the seal refuses it
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVerificationFailed)
      << loaded.status().ToString();
}

TEST_F(PersistenceTest, ReorderedLogStillRejectedOrDetected) {
  // Reordering the record frames changes the sealed root, and the
  // reversed chains break the store's seq monotonicity besides.
  Seal();
  const Bytes content = ReadAll();
  std::vector<Bytes> frames = Frames(content);
  ASSERT_GT(frames.size(), 4u);
  std::reverse(frames.begin() + 1, frames.end() - 2);
  WriteAll(Reframe(content, frames));

  auto loaded = Load();
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PersistenceTest, SnapshotOfStaleStateFailsVerification) {
  // Verification against restored records requires the *current* data:
  // roll the data forward after saving and the old bundle's snapshot
  // stays consistent, but a stale snapshot with the new records fails.
  Seal();
  SubtreeSnapshot stale = *SubtreeSnapshot::Capture(db_.tree(), agg_);

  // Advance the aggregate after the snapshot.
  ASSERT_TRUE(db_.Update(p(1), agg_, Value::String("agg-v2")).ok());

  RecipientBundle bundle;
  bundle.subject = agg_;
  bundle.data = stale;
  bundle.records = *db_.provenance().ExtractProvenance(agg_);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(bundle);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
}

}  // namespace
}  // namespace provdb::provenance
