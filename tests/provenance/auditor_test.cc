// The in-place store audit, ProvenanceVerifier::Audit.

#include <gtest/gtest.h>

#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class AuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = *db_.Insert(p(1), Value::String("db"));
    table_ = *db_.Insert(p(1), Value::String("t"), root_);
    row_ = *db_.Insert(p(2), Value::Int(0), table_);
    cell_ = *db_.Insert(p(2), Value::Int(5), row_);
    ASSERT_TRUE(db_.Update(p(1), cell_, Value::Int(6)).ok());
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  ProvenanceVerifier MakeAuditor() {
    return ProvenanceVerifier(&TestPki::Instance().registry());
  }

  TrackedDatabase db_;
  ObjectId root_, table_, row_, cell_;
};

TEST_F(AuditorTest, CleanDeploymentPasses) {
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.records_checked, db_.provenance().record_count());
  EXPECT_EQ(report.signatures_verified, db_.provenance().record_count());
}

TEST_F(AuditorTest, DetectsUndocumentedLiveModification) {
  // Mutate the backing tree behind the provenance system's back (R4
  // against the store itself).
  ASSERT_TRUE(db_.bootstrap_tree().Update(cell_, Value::Int(666)).ok());
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
  // The mismatch is visible at the cell and propagates to every ancestor.
  EXPECT_GE(report.issues.size(), 4u);
}

TEST_F(AuditorTest, DetectsTamperedStoredChecksum) {
  ProvenanceRecord* rec = db_.mutable_provenance()->mutable_record(0);
  rec->checksum[3] ^= 0x10;
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kBadSignature));
}

TEST_F(AuditorTest, DetectsTamperedStoredHash) {
  ProvenanceRecord* rec = db_.mutable_provenance()->mutable_record(1);
  rec->output.state_hash.mutable_data()[0] ^= 1;
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_FALSE(report.ok());
}

TEST_F(AuditorTest, DeletedObjectsDoNotFalseAlarm) {
  ASSERT_TRUE(db_.Delete(p(1), cell_).ok());
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(AuditorTest, PrunedRecordsAreSkipped) {
  ObjectId solo = *db_.Insert(p(1), Value::Int(1));
  ASSERT_TRUE(db_.Delete(p(1), solo).ok());
  db_.mutable_provenance()->PruneObject(solo).value();
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(AuditorTest, BootstrapObjectsWithoutChainsIgnored) {
  TrackedDatabase db;
  db.bootstrap_tree().Insert(Value::Int(1)).value();
  auto report = MakeAuditor().Audit(db.OpenSnapshot(), db.tree());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.records_checked, 0u);
}

TEST_F(AuditorTest, AuditCoversAggregates) {
  auto agg = db_.Aggregate(p(3), {root_}, Value::String("agg"));
  ASSERT_TRUE(agg.ok());
  auto report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Now tamper the aggregate's stored input hash.
  for (uint64_t i = 0; i < db_.provenance().record_count(); ++i) {
    if (db_.provenance().record(i).op == OperationType::kAggregate) {
      db_.mutable_provenance()
          ->mutable_record(i)
          ->inputs[0]
          .state_hash.mutable_data()[0] ^= 1;
    }
  }
  report = MakeAuditor().Audit(db_.OpenSnapshot(), db_.tree());
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace provdb::provenance
