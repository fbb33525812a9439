// Durable-provenance integration: TrackedDatabase -> ProvenanceStore ->
// RecordLog -> disk -> reload -> extraction -> verification, with
// corruption injected at each layer.

#include <gtest/gtest.h>

#include <cstdio>

#include "provenance/auditor.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/record_log.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::OneShardCopy;
using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the tests of this fixture as
    // parallel processes, and one of them corrupts its file on purpose.
    path_ = ::testing::TempDir() + "/provdb_persist_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    root_ = *db_.Insert(p(1), Value::String("db"));
    row_ = *db_.Insert(p(1), Value::Int(0), root_);
    cell_ = *db_.Insert(p(2), Value::Int(5), row_);
    EXPECT_TRUE(db_.Update(p(1), cell_, Value::Int(6)).ok());
    auto agg = db_.Aggregate(p(2), {root_}, Value::String("agg"));
    EXPECT_TRUE(agg.ok());
    agg_ = *agg;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  TrackedDatabase db_;
  ObjectId root_, row_, cell_, agg_;
  std::string path_;
};

TEST_F(PersistenceTest, FullRoundTripVerifies) {
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());
  ASSERT_TRUE(log.SaveToFile(path_).ok());

  auto loaded_log = storage::RecordLog::LoadFromFile(path_);
  ASSERT_TRUE(loaded_log.ok());
  auto restored = ProvenanceStore::LoadFromLog(*loaded_log);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->record_count(), db_.provenance().record_count());

  // Bundle built from the restored store + a live snapshot verifies.
  RecipientBundle bundle;
  bundle.subject = agg_;
  bundle.data = *SubtreeSnapshot::Capture(db_.tree(), agg_);
  bundle.records = *restored->ExtractProvenance(agg_);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The restored store audits clean against the live tree.
  auto adopted = OneShardCopy(*restored);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  StoreAuditor auditor(&TestPki::Instance().registry());
  auto audit = auditor.Audit(adopted->OpenSnapshot(), db_.tree());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(PersistenceTest, RestoredStorePreservesChainsAndAccounting) {
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());
  auto restored = ProvenanceStore::LoadFromLog(log);
  ASSERT_TRUE(restored.ok());
  for (ObjectId object : {root_, row_, cell_, agg_}) {
    EXPECT_EQ(restored->ChainOf(object).size(),
              db_.provenance().ChainOf(object).size())
        << object;
  }
  EXPECT_EQ(restored->PaperSchemaBytes(), db_.provenance().PaperSchemaBytes());
  EXPECT_EQ(restored->SerializedBytes(), db_.provenance().SerializedBytes());
}

TEST_F(PersistenceTest, OnDiskBitFlipCaughtByCrc) {
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());
  ASSERT_TRUE(log.SaveToFile(path_).ok());

  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);

  auto loaded = storage::RecordLog::LoadFromFile(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, TamperedRecordInLogCaughtCryptographically) {
  // An attacker who rewrites a record *and* fixes the CRC still cannot
  // fix the signature: re-frame a modified record through a fresh log.
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());

  storage::RecordLog tampered_log;
  for (uint64_t i = 0; i < log.record_count(); ++i) {
    Bytes payload = log.Get(i)->ToBytes();
    if (i == 1) {
      auto rec = DecodeRecord(payload);
      ASSERT_TRUE(rec.ok());
      rec->output.state_hash.mutable_data()[0] ^= 1;
      payload = EncodeRecord(*rec);  // valid encoding, valid CRC
    }
    ASSERT_TRUE(tampered_log.Append(payload).ok());
  }
  ASSERT_TRUE(tampered_log.SaveToFile(path_).ok());

  auto loaded_log = storage::RecordLog::LoadFromFile(path_);
  ASSERT_TRUE(loaded_log.ok());  // CRC passes — framing is intact
  auto restored = ProvenanceStore::LoadFromLog(*loaded_log);
  ASSERT_TRUE(restored.ok());

  auto adopted = OneShardCopy(*restored);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  StoreAuditor auditor(&TestPki::Instance().registry());
  auto audit = auditor.Audit(adopted->OpenSnapshot(), db_.tree());
  EXPECT_FALSE(audit.ok());  // signatures catch what CRC cannot
}

TEST_F(PersistenceTest, ReorderedLogStillRejectedOrDetected) {
  // Reordering records of one object violates the store's seq
  // monotonicity on load.
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());
  storage::RecordLog reordered;
  // Append in reverse order.
  for (uint64_t i = log.record_count(); i-- > 0;) {
    ASSERT_TRUE(reordered.Append(*log.Get(i)).ok());
  }
  auto restored = ProvenanceStore::LoadFromLog(reordered);
  EXPECT_FALSE(restored.ok());
}

TEST_F(PersistenceTest, SnapshotOfStaleStateFailsVerification) {
  // Verification against restored records requires the *current* data:
  // roll the data forward after saving and the old bundle's snapshot
  // stays consistent, but a stale snapshot with the new records fails.
  storage::RecordLog log;
  ASSERT_TRUE(db_.provenance().SaveToLog(&log).ok());
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
