// Integration tests for aggregation over *compound* inputs (whole rows /
// tables rather than atomic cells) and for post-aggregation evolution of
// both the inputs and the aggregate copy — the scenarios §4's extension
// to compound objects exists for.

#include <gtest/gtest.h>

#include "provenance/query.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class CompoundAggregationTest : public ::testing::Test {
 protected:
  // Two source tables owned by different participants.
  void SetUp() override {
    table_a_ = *db_.Insert(p(1), Value::String("lab_A"));
    row_a_ = *db_.Insert(p(1), Value::Int(0), table_a_);
    cell_a_ = *db_.Insert(p(1), Value::Int(11), row_a_);

    table_b_ = *db_.Insert(p(2), Value::String("lab_B"));
    row_b_ = *db_.Insert(p(2), Value::Int(0), table_b_);
    cell_b_ = *db_.Insert(p(2), Value::Int(22), row_b_);
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  VerificationReport Verify(ObjectId subject) {
    auto bundle = db_.ExportForRecipient(subject);
    EXPECT_TRUE(bundle.ok());
    ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(*bundle);
  }

  TrackedDatabase db_;
  ObjectId table_a_, row_a_, cell_a_;
  ObjectId table_b_, row_b_, cell_b_;
};

TEST_F(CompoundAggregationTest, AggregateWholeTables) {
  auto merged =
      db_.Aggregate(p(3), {table_a_, table_b_}, Value::String("merged"));
  ASSERT_TRUE(merged.ok());
  // The merged object contains deep copies of both tables: 1 + 2*3 nodes.
  EXPECT_EQ(*db_.tree().SubtreeSize(*merged), 7u);
  VerificationReport report = Verify(*merged);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CompoundAggregationTest, AggregateNonRootInputs) {
  // Aggregating *rows* out of the middle of their tables — inputs need
  // not be roots.
  auto merged = db_.Aggregate(p(3), {row_a_, row_b_}, Value::String("rows"));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*db_.tree().SubtreeSize(*merged), 5u);
  // Originals still in place under their tables.
  EXPECT_EQ((*db_.tree().GetNode(row_a_))->parent, table_a_);
  VerificationReport report = Verify(*merged);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CompoundAggregationTest, InputsEvolveAfterAggregation) {
  auto merged =
      db_.Aggregate(p(3), {table_a_, table_b_}, Value::String("merged"));
  ASSERT_TRUE(merged.ok());
  crypto::Digest merged_hash_before = *db_.CurrentHash(*merged);

  // Updating the *source* after aggregation must not disturb the
  // aggregate or its provenance.
  ASSERT_TRUE(db_.Update(p(1), cell_a_, Value::Int(999)).ok());
  EXPECT_EQ(*db_.CurrentHash(*merged), merged_hash_before);
  EXPECT_TRUE(Verify(*merged).ok());
  EXPECT_TRUE(Verify(table_a_).ok());
}

TEST_F(CompoundAggregationTest, AggregateCopyEvolvesIndependently) {
  auto merged =
      db_.Aggregate(p(3), {table_a_, table_b_}, Value::String("merged"));
  ASSERT_TRUE(merged.ok());

  // Find the copied cell inside the aggregate and update it there.
  const storage::TreeNode* m = db_.tree().GetNode(*merged).value();
  ObjectId copy_table = m->children[0];
  ObjectId copy_row = db_.tree().GetNode(copy_table).value()->children[0];
  ObjectId copy_cell = db_.tree().GetNode(copy_row).value()->children[0];
  ASSERT_TRUE(db_.Update(p(3), copy_cell, Value::Int(-5)).ok());

  // The original is untouched; both histories verify.
  EXPECT_EQ((*db_.tree().GetNode(cell_a_))->value, Value::Int(11));
  VerificationReport merged_report = Verify(*merged);
  EXPECT_TRUE(merged_report.ok()) << merged_report.ToString();
  EXPECT_TRUE(Verify(table_a_).ok());

  // The copy's update chained through inheritance onto the aggregate's
  // record: merged's chain is [aggregate, inherited update].
  std::vector<uint64_t> chain = db_.provenance().ChainOf(*merged);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(db_.provenance().record(chain[0]).op, OperationType::kAggregate);
  EXPECT_TRUE(db_.provenance().record(chain[1]).inherited);
}

TEST_F(CompoundAggregationTest, NestedAggregationsOfCompounds) {
  auto level1 =
      db_.Aggregate(p(3), {table_a_, table_b_}, Value::String("l1"));
  ASSERT_TRUE(level1.ok());
  ASSERT_TRUE(db_.Update(p(2), cell_b_, Value::Int(23)).ok());
  auto level2 =
      db_.Aggregate(p(1), {*level1, table_b_}, Value::String("l2"));
  ASSERT_TRUE(level2.ok());

  VerificationReport report = Verify(*level2);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The level-2 provenance includes table_b's post-update state and
  // level-1's aggregation, which froze table_b's *pre-update* state.
  auto bundle = db_.ExportForRecipient(*level2);
  ASSERT_TRUE(bundle.ok());
  int table_b_records = 0;
  for (const auto& rec : bundle->records) {
    if (rec.output.object_id == table_b_) ++table_b_records;
  }
  // insert(table), inherited(row insert), inherited(cell insert),
  // inherited(cell update) = 4 records of table_b's chain included.
  EXPECT_EQ(table_b_records, 4);

  auto summary = SummarizeLineage(db_.OpenSnapshot(), *level2);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->aggregate_count, 2u);
  EXPECT_EQ(summary->participants.size(), 3u);
}

TEST_F(CompoundAggregationTest, EveryGranularityOfCompoundInputVerifies) {
  // Export/verify at cell, row, and table granularity of a source that
  // fed an aggregation.
  auto merged = db_.Aggregate(p(3), {table_a_}, Value::String("m"));
  ASSERT_TRUE(merged.ok());
  for (ObjectId subject : {cell_a_, row_a_, table_a_, *merged}) {
    VerificationReport report = Verify(subject);
    EXPECT_TRUE(report.ok()) << subject << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace provdb::provenance
