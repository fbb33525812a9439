#include "provenance/verifier.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/varint.h"
#include "observability/metrics.h"
#include "provenance/tracked_database.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class VerifierTest : public ::testing::Test {
 protected:
  const crypto::Participant& p1() { return TestPki::Instance().participant(0); }
  const crypto::Participant& p2() { return TestPki::Instance().participant(1); }

  VerificationReport Verify(const RecipientBundle& bundle) {
    ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(bundle);
  }
};

TEST_F(VerifierTest, HonestLinearChainVerifies) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p2(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);
  ASSERT_TRUE(bundle.ok());
  VerificationReport report = Verify(*bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.records_checked, 2u);
  EXPECT_EQ(report.signatures_verified, 2u);
}

TEST_F(VerifierTest, ReportRendersIssues) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  auto bundle = db.ExportForRecipient(*a);
  RecipientBundle broken = *bundle;
  broken.records.clear();
  VerificationReport report = Verify(broken);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kMissingRecords));
  EXPECT_NE(report.ToString().find("MissingRecords"), std::string::npos);
  EXPECT_FALSE(report.HasIssue(IssueKind::kBadSignature));
}

TEST_F(VerifierTest, EmptyBundleReportsMissingRecords) {
  RecipientBundle empty;
  empty.subject = 5;
  VerificationReport report = Verify(empty);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kMissingRecords));
  EXPECT_TRUE(report.HasIssue(IssueKind::kSubjectMismatch));
}

TEST_F(VerifierTest, MalformedRecordsFlagged) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);

  // Insert with inputs.
  RecipientBundle broken = *bundle;
  broken.records[0].inputs.push_back(broken.records[0].output);
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));

  // Update with no inputs.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kUpdate) rec.inputs.clear();
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));

  // Update whose input names a different object.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kUpdate) rec.inputs[0].object_id = 777;
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));
}

TEST_F(VerifierTest, SeqDisciplineEnforced) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(3)).ok());
  auto bundle = db.ExportForRecipient(*a);

  // Insert not at seq 0.
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    rec.seq_id += 5;  // shift the whole chain
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));

  // Gap in updates.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.seq_id == 2) rec.seq_id = 9;
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));

  // A second insert mid-chain.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.seq_id == 1) {
      rec.op = OperationType::kInsert;
      rec.inputs.clear();
    }
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));
}

TEST_F(VerifierTest, AggregateWithUnsortedInputsFlagged) {
  TrackedDatabase db;
  auto x = db.Insert(p1(), Value::Int(1));
  auto y = db.Insert(p1(), Value::Int(2));
  auto agg = db.Aggregate(p1(), {*x, *y}, Value::Int(0));
  auto bundle = db.ExportForRecipient(*agg);
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kAggregate) {
      std::swap(rec.inputs[0], rec.inputs[1]);
    }
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));
}

TEST_F(VerifierTest, AggregateSeqRuleEnforced) {
  TrackedDatabase db;
  auto x = db.Insert(p1(), Value::Int(1));
  auto agg = db.Aggregate(p1(), {*x}, Value::Int(0));
  auto bundle = db.ExportForRecipient(*agg);
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kAggregate) rec.seq_id = 7;
  }
  VerificationReport report = Verify(broken);
  EXPECT_TRUE(report.HasIssue(IssueKind::kSeqViolation));
}

TEST_F(VerifierTest, BootstrapChainsVerify) {
  // Chains that begin with an update (data predating collection) verify.
  TrackedDatabase db;
  ObjectId leaf = *db.bootstrap_tree().Insert(Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), leaf, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(leaf);
  ASSERT_TRUE(bundle.ok());
  EXPECT_TRUE(Verify(*bundle).ok());
}

TEST_F(VerifierTest, CompoundBundleWithInheritedRecordsVerifies) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto table = db.Insert(p1(), Value::String("t"), *root);
  auto row = db.Insert(p2(), Value::Int(0), *table);
  auto cell = db.Insert(p2(), Value::Int(5), *row);
  ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(6)).ok());
  ASSERT_TRUE(db.Delete(p1(), *cell).ok());

  auto bundle = db.ExportForRecipient(*root);
  ASSERT_TRUE(bundle.ok());
  VerificationReport report = Verify(*bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(VerifierTest, VerifierReportsAllIssuesNotJustFirst) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);
  RecipientBundle broken = *bundle;
  // Two independent problems: tampered data AND a tampered checksum.
  ASSERT_TRUE(broken.data.TamperValue(*a, Value::Int(99)).ok());
  broken.records[0].checksum[5] ^= 0xFF;
  VerificationReport report = Verify(broken);
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
  EXPECT_TRUE(report.HasIssue(IssueKind::kBadSignature));
  EXPECT_GE(report.issues.size(), 2u);
}

TEST_F(VerifierTest, IssueKindNamesAreStable) {
  EXPECT_EQ(IssueKindName(IssueKind::kDataHashMismatch), "DataHashMismatch");
  EXPECT_EQ(IssueKindName(IssueKind::kBadSignature), "BadSignature");
  EXPECT_EQ(IssueKindName(IssueKind::kUnknownParticipant),
            "UnknownParticipant");
  EXPECT_EQ(IssueKindName(IssueKind::kSnapshotMalformed),
            "SnapshotMalformed");
}

// The shipped snapshot keeps the subject as its root, but the child's
// parent is an id the snapshot does not hold, so check 1 cannot hash it.
TEST_F(VerifierTest, CorruptSnapshotFlagged) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto child = db.Insert(p1(), Value::Int(1), *root);
  ASSERT_TRUE(child.ok());
  auto bundle = db.ExportForRecipient(*root);
  ASSERT_TRUE(bundle.ok());

  // SubtreeSnapshot wire form: root id, node count, then each node's id,
  // parent id and canonical value.
  const ObjectId missing = std::max(*root, *child) + 1;
  Bytes raw;
  AppendVarint64(&raw, *root);
  AppendVarint64(&raw, 2);
  AppendVarint64(&raw, *root);
  AppendVarint64(&raw, storage::kInvalidObjectId);
  Value::String("db").CanonicalEncode(&raw);
  AppendVarint64(&raw, *child);
  AppendVarint64(&raw, missing);
  Value::Int(1).CanonicalEncode(&raw);
  auto snapshot = SubtreeSnapshot::Deserialize(raw);
  ASSERT_TRUE(snapshot.ok());

  RecipientBundle broken = *bundle;
  broken.data = *snapshot;
  VerificationReport report = Verify(broken);
  EXPECT_TRUE(report.HasIssue(IssueKind::kSnapshotMalformed))
      << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifierTest, DagBundleRoundTripThroughWireVerifies) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::String("a"));
  auto b = db.Insert(p2(), Value::String("b"));
  ASSERT_TRUE(db.Update(p1(), *a, Value::String("a2")).ok());
  auto c = db.Aggregate(p2(), {*a, *b}, Value::String("c"));
  ASSERT_TRUE(db.Update(p2(), *a, Value::String("a3")).ok());
  auto d = db.Aggregate(p1(), {*a, *c}, Value::String("d"));

  auto bundle = db.ExportForRecipient(*d);
  ASSERT_TRUE(bundle.ok());
  auto wire = bundle->Serialize();
  auto received = RecipientBundle::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  VerificationReport report = Verify(*received);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(VerifierTest, VerifyObjectChecksTheProvenanceObject) {
  TrackedDatabase db;
  auto x = db.Insert(p1(), Value::Int(1));
  auto y = db.Insert(p2(), Value::Int(2));
  auto agg = db.Aggregate(p1(), {*x, *y}, Value::Int(3));
  ASSERT_TRUE(agg.ok());
  ProvenanceVerifier verifier(&TestPki::Instance().registry());

  // The aggregate's own record plus both inputs' records.
  auto report = verifier.VerifyObject(db.OpenSnapshot(), *agg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_EQ(report->records_checked, 3u);
  EXPECT_EQ(report->signatures_verified, 3u);
  EXPECT_EQ(verifier.VerifyObject(db.OpenSnapshot(), 424242).status().code(),
            StatusCode::kNotFound);

  // Re-attribute x's only record to another object: no signature covers
  // an insert's object id, yet x's provenance object no longer has x.
  for (uint64_t i = 0; i < db.provenance().record_count(); ++i) {
    ProvenanceRecord* rec = db.mutable_provenance()->mutable_record(i);
    if (rec->output.object_id == *x) rec->output.object_id = 999;
  }
  auto moved = verifier.VerifyObject(db.OpenSnapshot(), *x);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(moved->HasIssue(IssueKind::kMissingRecords))
      << moved->ToString();
}

uint64_t MontgomeryContextCount() {
  return observability::GlobalMetrics()
      .counter("crypto.bignum.montgomery_contexts")
      ->value();
}

// A run builds one RSA verifier, and so one Montgomery context, per
// registered participant, however many chains it verifies and on however
// many threads; every chain shares them.
TEST_F(VerifierTest, OneMontgomeryContextPerParticipantPerRun) {
  const TestPki& pki = TestPki::Instance();
  TrackedDatabase db;
  for (size_t i = 0; i < 20; ++i) {
    auto object = db.Insert(pki.participant(i % TestPki::kNumParticipants),
                            Value::Int(static_cast<int64_t>(i)));
    ASSERT_TRUE(object.ok());
    ASSERT_TRUE(
        db.Update(pki.participant((i + 1) % TestPki::kNumParticipants),
                  *object, Value::Int(static_cast<int64_t>(i) + 100))
            .ok());
  }
  const StoreSnapshot snapshot = db.OpenSnapshot();
  ASSERT_GE(snapshot.AllChains().size(), 16u);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ProvenanceVerifier verifier(&pki.registry(), crypto::HashAlgorithm::kSha1,
                                ParallelismConfig{threads});
    uint64_t before = MontgomeryContextCount();
    VerificationReport verified = verifier.VerifyStore(snapshot);
    EXPECT_EQ(MontgomeryContextCount() - before, TestPki::kNumParticipants);
    EXPECT_TRUE(verified.ok()) << verified.ToString();

    before = MontgomeryContextCount();
    VerificationReport audited = verifier.Audit(snapshot, db.tree());
    EXPECT_EQ(MontgomeryContextCount() - before, TestPki::kNumParticipants);
    EXPECT_TRUE(audited.ok()) << audited.ToString();
  }
}

}  // namespace
}  // namespace provdb::provenance
