#include "provenance/tracked_database.h"

#include <gtest/gtest.h>

#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class TrackedDatabaseTest : public ::testing::Test {
 protected:
  const crypto::Participant& p1() { return TestPki::Instance().participant(0); }
  const crypto::Participant& p2() { return TestPki::Instance().participant(1); }
};

TEST_F(TrackedDatabaseTest, InsertEmitsSeqZeroInsertRecord) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(7));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(db.provenance().record_count(), 1u);
  const ProvenanceRecord& rec = db.provenance().record(0);
  EXPECT_EQ(rec.seq_id, 0u);
  EXPECT_EQ(rec.op, OperationType::kInsert);
  EXPECT_EQ(rec.participant, p1().id());
  EXPECT_TRUE(rec.inputs.empty());
  EXPECT_EQ(rec.output.object_id, *a);
  EXPECT_FALSE(rec.inherited);
  EXPECT_EQ(rec.checksum.size(), 64u);  // RSA-512 test keys
}

TEST_F(TrackedDatabaseTest, UpdateChainsSeqIds) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p2(), *a, Value::Int(2)).ok());
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(3)).ok());

  std::vector<uint64_t> chain = db.provenance().ChainOf(*a);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(db.provenance().record(chain[0]).seq_id, 0u);
  EXPECT_EQ(db.provenance().record(chain[1]).seq_id, 1u);
  EXPECT_EQ(db.provenance().record(chain[2]).seq_id, 2u);

  // Chain linkage: each update's input hash is the previous output hash.
  const ProvenanceRecord& u1 = db.provenance().record(chain[1]);
  const ProvenanceRecord& u2 = db.provenance().record(chain[2]);
  EXPECT_EQ(u1.inputs[0].state_hash,
            db.provenance().record(chain[0]).output.state_hash);
  EXPECT_EQ(u2.inputs[0].state_hash, u1.output.state_hash);
}

TEST_F(TrackedDatabaseTest, UpdateOfLeafEmitsInheritedAncestorRecords) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto table = db.Insert(p1(), Value::String("t"), *root);
  auto row = db.Insert(p1(), Value::Int(0), *table);
  auto cell = db.Insert(p1(), Value::Int(5), *row);

  uint64_t before = db.provenance().record_count();
  ASSERT_TRUE(db.Update(p2(), *cell, Value::Int(6)).ok());
  EXPECT_EQ(db.provenance().record_count() - before, 4u);  // cell + 3

  // Cell record is actual; the rest are inherited updates by the same
  // participant.
  auto cell_latest = db.provenance().LatestFor(*cell);
  EXPECT_FALSE((*cell_latest)->inherited);
  for (ObjectId anc : {*row, *table, *root}) {
    auto latest = db.provenance().LatestFor(anc);
    ASSERT_TRUE(latest.ok());
    EXPECT_TRUE((*latest)->inherited);
    EXPECT_EQ((*latest)->op, OperationType::kUpdate);
    EXPECT_EQ((*latest)->participant, p2().id());
  }
}

TEST_F(TrackedDatabaseTest, InsertUnderParentInheritsUpward) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  EXPECT_EQ(db.last_op_metrics().checksums, 1u);
  auto table = db.Insert(p1(), Value::String("t"), *root);
  EXPECT_EQ(db.last_op_metrics().checksums, 2u);  // insert + root inherit
  auto row = db.Insert(p1(), Value::Int(0), *table);
  EXPECT_EQ(db.last_op_metrics().checksums, 3u);
  (void)row;
}

TEST_F(TrackedDatabaseTest, DeleteEmitsOnlyInheritedRecords) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto leaf = db.Insert(p1(), Value::Int(1), *root);
  uint64_t before = db.provenance().record_count();
  ASSERT_TRUE(db.Delete(p2(), *leaf).ok());
  // Only the root's inherited record; the deleted object gets none (§5.2:
  // x checksums for a delete, x+1 for insert/update).
  EXPECT_EQ(db.provenance().record_count() - before, 1u);
  EXPECT_FALSE(db.tree().Contains(*leaf));
}

TEST_F(TrackedDatabaseTest, DeleteOfRootLeafEmitsNothing) {
  TrackedDatabase db;
  auto solo = db.Insert(p1(), Value::Int(1));
  uint64_t before = db.provenance().record_count();
  ASSERT_TRUE(db.Delete(p1(), *solo).ok());
  EXPECT_EQ(db.provenance().record_count(), before);
}

TEST_F(TrackedDatabaseTest, DeleteInteriorRejected) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  db.Insert(p1(), Value::Int(1), *root).value();
  EXPECT_FALSE(db.Delete(p1(), *root).ok());
}

TEST_F(TrackedDatabaseTest, AggregateSeqIsOnePlusMaxInputSeq) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));       // seq 0
  auto b = db.Insert(p1(), Value::Int(2));       // seq 0
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(3)).ok());  // a at seq 1
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(4)).ok());  // a at seq 2

  auto c = db.Aggregate(p2(), {*a, *b}, Value::String("agg"));
  ASSERT_TRUE(c.ok());
  auto rec = db.provenance().LatestFor(*c);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->seq_id, 3u);  // 1 + max(2, 0)
  EXPECT_EQ((*rec)->op, OperationType::kAggregate);
  ASSERT_EQ((*rec)->inputs.size(), 2u);
  // Inputs sorted by object id.
  EXPECT_LT((*rec)->inputs[0].object_id, (*rec)->inputs[1].object_id);
}

TEST_F(TrackedDatabaseTest, AggregateRecordsCurrentInputStates) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  auto b = db.Insert(p1(), Value::Int(2));
  crypto::Digest a_hash = *db.CurrentHash(*a);
  auto c = db.Aggregate(p2(), {*a, *b}, Value::String("agg"));
  ASSERT_TRUE(c.ok());
  auto rec = db.provenance().LatestFor(*c);
  EXPECT_EQ((*rec)->inputs[0].state_hash, a_hash);
  // Output hash matches the live aggregate subtree.
  EXPECT_EQ((*rec)->output.state_hash, *db.CurrentHash(*c));
}

TEST_F(TrackedDatabaseTest, AggregateDeduplicatesInputs) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  auto c = db.Aggregate(p2(), {*a, *a, *a}, Value::String("agg"));
  ASSERT_TRUE(c.ok());
  auto rec = db.provenance().LatestFor(*c);
  EXPECT_EQ((*rec)->inputs.size(), 1u);
}

TEST_F(TrackedDatabaseTest, UpdatesAfterAggregationChainFromAggregate) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  auto c = db.Aggregate(p2(), {*a}, Value::String("agg"));
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(db.Update(p1(), *c, Value::String("agg2")).ok());
  std::vector<uint64_t> chain = db.provenance().ChainOf(*c);
  ASSERT_EQ(chain.size(), 2u);
  const ProvenanceRecord& agg = db.provenance().record(chain[0]);
  const ProvenanceRecord& upd = db.provenance().record(chain[1]);
  EXPECT_EQ(upd.seq_id, agg.seq_id + 1);
  EXPECT_EQ(upd.inputs[0].state_hash, agg.output.state_hash);
}

TEST_F(TrackedDatabaseTest, BootstrapDataStartsChainsAtUpdate) {
  TrackedDatabase db;
  // Load initial data untracked (the experiment pattern, §5.1).
  storage::TreeStore& tree = db.bootstrap_tree();
  ObjectId root = *tree.Insert(Value::String("db"));
  ObjectId leaf = *tree.Insert(Value::Int(1), root);
  EXPECT_EQ(db.provenance().record_count(), 0u);

  ASSERT_TRUE(db.Update(p1(), leaf, Value::Int(2)).ok());
  std::vector<uint64_t> chain = db.provenance().ChainOf(leaf);
  ASSERT_EQ(chain.size(), 1u);
  const ProvenanceRecord& rec = db.provenance().record(chain[0]);
  EXPECT_EQ(rec.seq_id, 0u);
  EXPECT_EQ(rec.op, OperationType::kUpdate);
}

TEST_F(TrackedDatabaseTest, MetricsAccumulateAcrossOperations) {
  TrackedDatabase db;
  db.Insert(p1(), Value::Int(1)).value();
  OperationMetrics first = db.last_op_metrics();
  EXPECT_EQ(first.checksums, 1u);
  EXPECT_GT(first.sign_seconds, 0.0);
  EXPECT_GT(first.nodes_hashed, 0u);

  db.Insert(p1(), Value::Int(2)).value();
  EXPECT_EQ(db.cumulative_metrics().checksums, 2u);
  db.ResetMetrics();
  EXPECT_EQ(db.cumulative_metrics().checksums, 0u);
}

TEST_F(TrackedDatabaseTest, ValueSnapshotsStoredWhenEnabled) {
  TrackedDatabaseOptions opts;
  opts.store_value_snapshots = true;
  TrackedDatabase db(opts);
  ObjectId a = db.Insert(p1(), Value::Int(7)).value();
  const ProvenanceRecord& rec = db.provenance().record(0);
  ASSERT_TRUE(rec.has_output_snapshot);
  EXPECT_EQ(rec.output_snapshot, Value::Int(7));

  // An update's record carries the new value too; the inherited record
  // it causes on the parent carries none.
  ObjectId cell = db.Insert(p1(), Value::Int(8), a).value();
  ASSERT_TRUE(db.Update(p1(), cell, Value::Int(9)).ok());
  const ProvenanceRecord& update =
      db.provenance().record(db.provenance().ChainOf(cell).back());
  ASSERT_TRUE(update.has_output_snapshot);
  EXPECT_EQ(update.output_snapshot, Value::Int(9));
  const ProvenanceRecord& inherited =
      db.provenance().record(db.provenance().ChainOf(a).back());
  EXPECT_TRUE(inherited.inherited);
  EXPECT_FALSE(inherited.has_output_snapshot);

  // In a complex operation each direct target's record carries its
  // final value, and the inherited records of its ancestors carry none.
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  ObjectId added = db.Insert(p1(), Value::Int(10), a).value();
  ASSERT_TRUE(db.Update(p1(), added, Value::Int(11)).ok());
  ASSERT_TRUE(db.Update(p1(), cell, Value::Int(12)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
  const ProvenanceRecord& added_rec =
      db.provenance().record(db.provenance().ChainOf(added).back());
  EXPECT_EQ(added_rec.op, OperationType::kInsert);
  ASSERT_TRUE(added_rec.has_output_snapshot);
  EXPECT_EQ(added_rec.output_snapshot, Value::Int(11));
  const ProvenanceRecord& cell_rec =
      db.provenance().record(db.provenance().ChainOf(cell).back());
  ASSERT_TRUE(cell_rec.has_output_snapshot);
  EXPECT_EQ(cell_rec.output_snapshot, Value::Int(12));
  const ProvenanceRecord& ancestor =
      db.provenance().record(db.provenance().ChainOf(a).back());
  EXPECT_TRUE(ancestor.inherited);
  EXPECT_FALSE(ancestor.has_output_snapshot);
}

TEST_F(TrackedDatabaseTest, OpenRefusesAPipelineItCannotWriteThrough) {
  IngestOptions sharded;
  sharded.num_shards = 2;
  auto two_shards = IngestPipeline::OpenInMemory(sharded);
  ASSERT_TRUE(two_shards.ok());
  EXPECT_EQ(TrackedDatabase::Open(two_shards->get()).status().code(),
            StatusCode::kInvalidArgument);

  auto sha1 = IngestPipeline::OpenInMemory(IngestOptions());
  ASSERT_TRUE(sha1.ok());
  TrackedDatabaseOptions sha256;
  sha256.hash_algorithm = crypto::HashAlgorithm::kSha256;
  EXPECT_EQ(TrackedDatabase::Open(sha1->get(), sha256).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(TrackedDatabase::Open(sha1->get()).ok());
}

TEST_F(TrackedDatabaseTest, OperationsOnMissingObjectsFail) {
  TrackedDatabase db;
  EXPECT_FALSE(db.Update(p1(), 42, Value::Int(1)).ok());
  EXPECT_FALSE(db.Delete(p1(), 42).ok());
  EXPECT_FALSE(db.Aggregate(p1(), {42}, Value::Int(0)).ok());
  EXPECT_FALSE(db.Aggregate(p1(), {}, Value::Int(0)).ok());
  EXPECT_FALSE(db.Insert(p1(), Value::Int(1), 42).ok());
  EXPECT_EQ(db.provenance().record_count(), 0u);
}

// ---------------------------------------------------------------------
// Complex operations

TEST_F(TrackedDatabaseTest, ComplexOpLifecycleEnforced) {
  TrackedDatabase db;
  EXPECT_FALSE(db.EndComplexOperation().ok());  // none in progress
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  EXPECT_TRUE(db.in_complex_operation());
  EXPECT_FALSE(db.BeginComplexOperation(p1()).ok());  // nested
  EXPECT_FALSE(db.BeginComplexOperation(p2()).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
  EXPECT_FALSE(db.in_complex_operation());
}

TEST_F(TrackedDatabaseTest, ComplexOpRejectsOtherParticipants) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  EXPECT_FALSE(db.Update(p2(), *a, Value::Int(2)).ok());
  EXPECT_TRUE(db.Update(p1(), *a, Value::Int(3)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
}

TEST_F(TrackedDatabaseTest, ComplexOpAggregateRejected) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  EXPECT_FALSE(db.Aggregate(p1(), {*a}, Value::Int(0)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
}

TEST_F(TrackedDatabaseTest, ComplexOpBatchesBeforeAfterStates) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto cell = db.Insert(p1(), Value::Int(1), *root);

  crypto::Digest before_hash = *db.CurrentHash(*cell);
  ASSERT_TRUE(db.BeginComplexOperation(p2()).ok());
  ASSERT_TRUE(db.Update(p2(), *cell, Value::Int(2)).ok());
  ASSERT_TRUE(db.Update(p2(), *cell, Value::Int(3)).ok());
  ASSERT_TRUE(db.Update(p2(), *cell, Value::Int(4)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());

  // One record for the cell covering 1 -> 4 directly, plus the root's.
  EXPECT_EQ(db.last_op_metrics().checksums, 2u);
  auto latest = db.provenance().LatestFor(*cell);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ((*latest)->inputs[0].state_hash, before_hash);
  EXPECT_EQ((*latest)->output.state_hash, *db.CurrentHash(*cell));
}

TEST_F(TrackedDatabaseTest, ComplexOpInsertThenDeleteLeavesNoRecord) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  uint64_t before = db.provenance().record_count();

  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  auto temp = db.Insert(p1(), Value::Int(9), *root);
  ASSERT_TRUE(temp.ok());
  ASSERT_TRUE(db.Delete(p1(), *temp).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());

  // Only the root gets a record (its subtree was touched); the transient
  // object vanishes without provenance.
  EXPECT_EQ(db.provenance().record_count() - before, 1u);
  EXPECT_TRUE(db.provenance().ChainOf(*temp).empty());
}

TEST_F(TrackedDatabaseTest, ComplexOpInsertedObjectsGetInsertRecords) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  ASSERT_TRUE(db.BeginComplexOperation(p2()).ok());
  auto row = db.Insert(p2(), Value::Int(0), *root);
  auto cell = db.Insert(p2(), Value::Int(1), *row);
  ASSERT_TRUE(db.EndComplexOperation().ok());

  auto row_rec = db.provenance().LatestFor(*row);
  auto cell_rec = db.provenance().LatestFor(*cell);
  ASSERT_TRUE(row_rec.ok());
  ASSERT_TRUE(cell_rec.ok());
  EXPECT_EQ((*row_rec)->op, OperationType::kInsert);
  EXPECT_EQ((*cell_rec)->op, OperationType::kInsert);
  EXPECT_EQ((*row_rec)->seq_id, 0u);
  // The insert records carry the *end-of-operation* state (the row's hash
  // includes its cell).
  EXPECT_EQ((*row_rec)->output.state_hash, *db.CurrentHash(*row));
}

TEST_F(TrackedDatabaseTest, ComplexOpDeleteErasesChainState) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto leaf = db.Insert(p1(), Value::Int(1), *root);
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  ASSERT_TRUE(db.Delete(p1(), *leaf).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
  // Reusing the id is impossible (ids are never reused), and the deleted
  // object's chain is gone.
  EXPECT_FALSE(db.tree().Contains(*leaf));
}

TEST_F(TrackedDatabaseTest, ComplexOpSeqContinuesExistingChains) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto cell = db.Insert(p1(), Value::Int(1), *root);  // cell seq 0
  ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(2)).ok());  // seq 1

  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(3)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());

  auto latest = db.provenance().LatestFor(*cell);
  EXPECT_EQ((*latest)->seq_id, 2u);
}

TEST_F(TrackedDatabaseTest, ComplexOpDirectVsInheritedFlag) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto cell = db.Insert(p1(), Value::Int(1), *root);
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(2)).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
  EXPECT_FALSE((*db.provenance().LatestFor(*cell))->inherited);
  EXPECT_TRUE((*db.provenance().LatestFor(*root))->inherited);
}

TEST_F(TrackedDatabaseTest, ExportDuringComplexOpRejected) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.BeginComplexOperation(p1()).ok());
  EXPECT_FALSE(db.ExportForRecipient(*a).ok());
  ASSERT_TRUE(db.EndComplexOperation().ok());
  EXPECT_TRUE(db.ExportForRecipient(*a).ok());
}

TEST_F(TrackedDatabaseTest, BasicModeMatchesEconomicalRecordCounts) {
  for (HashingMode mode : {HashingMode::kBasic, HashingMode::kEconomical}) {
    TrackedDatabaseOptions opts;
    opts.hashing_mode = mode;
    TrackedDatabase db(opts);
    auto root = db.Insert(p1(), Value::String("db"));
    auto table = db.Insert(p1(), Value::String("t"), *root);
    auto row = db.Insert(p1(), Value::Int(0), *table);
    auto cell = db.Insert(p1(), Value::Int(1), *row);
    ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(2)).ok());
    ASSERT_TRUE(db.Delete(p1(), *cell).ok());
    // 1 + 2 + 3 + 4 inserts, 4 update, 3 delete records.
    EXPECT_EQ(db.provenance().record_count(), 17u)
        << HashingModeName(mode);
  }
}

}  // namespace
}  // namespace provdb::provenance
