#include "provenance/query.h"

#include <gtest/gtest.h>

#include "provenance/checkpoint.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class QueryTest : public ::testing::Test {
 protected:
  // Figure-2-shaped history: A, B evolve; C aggregates them; D aggregates
  // A (later version) and C.
  void SetUp() override {
    a_ = *db_.Insert(p(1), Value::String("a1"));
    b_ = *db_.Insert(p(1), Value::String("b1"));
    ASSERT_TRUE(db_.Update(p(2), b_, Value::String("b2")).ok());
    c_ = *db_.Aggregate(p(3), {a_, b_}, Value::String("c1"));
    ASSERT_TRUE(db_.Update(p(2), a_, Value::String("a2")).ok());
    d_ = *db_.Aggregate(p(1), {a_, c_}, Value::String("d1"));
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  TrackedDatabase db_;
  ObjectId a_, b_, c_, d_;
};

TEST_F(QueryTest, SummarizeLineageCountsEverything) {
  auto summary = SummarizeLineage(db_.OpenSnapshot(), d_);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->record_count, 6u);  // 2 ins, 2 upd, 2 agg
  EXPECT_EQ(summary->insert_count, 2u);
  EXPECT_EQ(summary->update_count, 2u);
  EXPECT_EQ(summary->aggregate_count, 2u);
  EXPECT_EQ(summary->participants.size(), 3u);
  // Contributing objects: A, B, C (not D itself).
  EXPECT_EQ(summary->contributing_objects,
            (std::set<ObjectId>{a_, b_, c_}));
  EXPECT_EQ(summary->max_seq_id, 3u);  // D: 1 + max(A@1, C@2)
  EXPECT_NE(summary->ToString().find("6 records"), std::string::npos);
}

TEST_F(QueryTest, SummarizeLineageOfLeafChain) {
  auto summary = SummarizeLineage(db_.OpenSnapshot(), a_);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->record_count, 2u);  // insert + update
  EXPECT_TRUE(summary->contributing_objects.empty());
}

TEST_F(QueryTest, SummarizeUnknownObjectFails) {
  EXPECT_FALSE(SummarizeLineage(db_.OpenSnapshot(), 999).ok());
}

TEST_F(QueryTest, RecordsByParticipant) {
  const StoreSnapshot snapshot = db_.OpenSnapshot();
  auto p2_records = RecordsByParticipant(snapshot, p(2).id());
  EXPECT_EQ(p2_records.size(), 2u);  // the two updates
  for (const ProvenanceRecord* rec : p2_records) {
    EXPECT_EQ(rec->op, OperationType::kUpdate);
  }
  EXPECT_TRUE(RecordsByParticipant(snapshot, 999).empty());
}

TEST_F(QueryTest, ParticipantTouchedFollowsTheDag) {
  // p3 only signed C's aggregation — which is part of D's history.
  auto touched = ParticipantTouched(db_.OpenSnapshot(), d_, p(3).id());
  ASSERT_TRUE(touched.ok());
  EXPECT_TRUE(*touched);
  // ...but p3 never touched A's own history.
  touched = ParticipantTouched(db_.OpenSnapshot(), a_, p(3).id());
  ASSERT_TRUE(touched.ok());
  EXPECT_FALSE(*touched);
}

TEST_F(QueryTest, HistorySliceSelectsSeqRange) {
  auto slice = HistorySlice(db_.OpenSnapshot(), a_, 1, 1);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 1u);
  EXPECT_EQ((*slice)[0].op, OperationType::kUpdate);

  slice = HistorySlice(db_.OpenSnapshot(), a_, 0, 100);
  EXPECT_EQ(slice->size(), 2u);

  EXPECT_FALSE(HistorySlice(db_.OpenSnapshot(), a_, 2, 1).ok());
  EXPECT_FALSE(HistorySlice(db_.OpenSnapshot(), 999, 0, 1).ok());
}

TEST_F(QueryTest, DirectSourcesOfAggregate) {
  auto sources = DirectSources(db_.OpenSnapshot(), d_);
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources->size(), 2u);
  EXPECT_EQ((*sources)[0].object_id, a_);
  EXPECT_EQ((*sources)[1].object_id, c_);
}

TEST_F(QueryTest, DirectSourcesOfNonAggregateIsEmpty) {
  auto sources = DirectSources(db_.OpenSnapshot(), a_);
  ASSERT_TRUE(sources.ok());
  EXPECT_TRUE(sources->empty());
  EXPECT_FALSE(DirectSources(db_.OpenSnapshot(), 999).ok());
}

// ---------------------------------------------------------------------
// Pruning (footnote 3) behavior.

TEST_F(QueryTest, PruneUnreferencedObject) {
  // A fresh object not feeding any aggregation can be pruned.
  ObjectId solo = *db_.Insert(p(1), Value::Int(7));
  ASSERT_TRUE(db_.Update(p(1), solo, Value::Int(8)).ok());
  uint64_t live_before = db_.mutable_provenance()->live_record_count();

  auto pruned = db_.mutable_provenance()->PruneObject(solo);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 2u);
  EXPECT_EQ(db_.provenance().live_record_count(), live_before - 2);
  EXPECT_TRUE(db_.provenance().ChainOf(solo).empty());
  EXPECT_FALSE(db_.provenance().LatestFor(solo).ok());
}

TEST_F(QueryTest, PruneAggregationInputRefused) {
  // A and B feed aggregations; pruning them would orphan C/D's proofs.
  auto status = db_.mutable_provenance()->PruneObject(a_);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db_.mutable_provenance()->PruneObject(b_).ok());
}

TEST_F(QueryTest, PruningUpdatesSpaceAccounting) {
  ObjectId solo = *db_.Insert(p(1), Value::Int(7));
  uint64_t bytes_before = db_.provenance().PaperSchemaBytes();
  db_.mutable_provenance()->PruneObject(solo).value();
  EXPECT_LT(db_.provenance().PaperSchemaBytes(), bytes_before);
}

TEST_F(QueryTest, PrunedRecordsExcludedFromPersistence) {
  ObjectId solo = *db_.Insert(p(1), Value::Int(7));
  db_.mutable_provenance()->PruneObject(solo).value();
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/provdb_query_pruned";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(CheckpointWriter::Write(env, dir,
                                      db_.OpenSnapshot().shard_view(0), 1,
                                      p(1).signer(), p(1).id())
                  .ok());
  crypto::RsaSignatureVerifier verifier(p(1).public_key());
  ShardedProvenanceStore restored(1);
  auto loaded = CheckpointReader::Load(env, CheckpointFileName(dir, 1),
                                       verifier, &restored.shard(0));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(restored.shard(0).record_count(),
            db_.provenance().live_record_count());
}

TEST_F(QueryTest, PruneIsIdempotentAndSafeOnUnknown) {
  auto r = db_.mutable_provenance()->PruneObject(424242);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0u);
}

TEST_F(QueryTest, OtherObjectsStillVerifyAfterPrune) {
  // Local chaining (§3.2): pruning one object's history never impairs
  // verification of others.
  ObjectId solo = *db_.Insert(p(1), Value::Int(7));
  db_.mutable_provenance()->PruneObject(solo).value();
  auto bundle = db_.ExportForRecipient(d_);
  ASSERT_TRUE(bundle.ok());
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  EXPECT_TRUE(verifier.Verify(*bundle).ok());
}

}  // namespace
}  // namespace provdb::provenance
