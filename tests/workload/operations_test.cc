#include "workload/operations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "provenance/query.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::workload {
namespace {

using provdb::testing::TestPki;
using provenance::ProvenanceRecord;
using provenance::TrackedDatabase;
using storage::ObjectId;

class OperationsTest : public ::testing::Test {
 protected:
  // A small synthetic table (4 attrs x 20 rows) inside a TrackedDatabase,
  // bootstrapped untracked like the paper's experiments.
  void SetUp() override {
    Rng rng(99);
    auto layout = BuildSyntheticDatabase(&db_.bootstrap_tree(),
                                         {{4, 20}}, &rng);
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
  }

  const crypto::Participant& participant() {
    return TestPki::Instance().participant(0);
  }

  TrackedDatabase db_;
  SyntheticLayout layout_;
};

TEST_F(OperationsTest, UpdateScriptTargetsDistinctCells) {
  Rng rng(1);
  auto script = MakeUpdateScript(layout_.tables[0], 12, 6, &rng);
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->ops.size(), 12u);
  std::set<std::pair<ObjectId, size_t>> cells;
  std::set<ObjectId> rows;
  for (const PrimitiveOp& op : script->ops) {
    EXPECT_EQ(op.kind, PrimitiveOp::Kind::kUpdateCell);
    EXPECT_TRUE(cells.insert({op.row, op.column}).second)
        << "duplicate cell target";
    rows.insert(op.row);
  }
  EXPECT_EQ(rows.size(), 6u);
}

TEST_F(OperationsTest, UpdateScriptValidatesParameters) {
  Rng rng(2);
  // More per-row updates than columns.
  EXPECT_FALSE(MakeUpdateScript(layout_.tables[0], 100, 2, &rng).ok());
  // More rows than the table has.
  EXPECT_FALSE(MakeUpdateScript(layout_.tables[0], 25, 25, &rng).ok());
  EXPECT_FALSE(MakeUpdateScript(layout_.tables[0], 0, 0, &rng).ok());
}

TEST_F(OperationsTest, DeleteScriptPicksDistinctRows) {
  Rng rng(3);
  auto script = MakeDeleteScript(layout_.tables[0], 5, &rng);
  ASSERT_TRUE(script.ok());
  std::set<ObjectId> rows;
  for (const PrimitiveOp& op : script->ops) {
    EXPECT_EQ(op.kind, PrimitiveOp::Kind::kDeleteRow);
    EXPECT_TRUE(rows.insert(op.row).second);
  }
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_FALSE(MakeDeleteScript(layout_.tables[0], 21, &rng).ok());
}

TEST_F(OperationsTest, MixedScriptDisjointTargetsAndShuffled) {
  Rng rng(4);
  auto script = MakeMixedScript(layout_.tables[0], 4, 3, 5, &rng);
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->ops.size(), 12u);
  std::set<ObjectId> deleted, updated;
  size_t inserts = 0;
  for (const PrimitiveOp& op : script->ops) {
    switch (op.kind) {
      case PrimitiveOp::Kind::kDeleteRow:
        deleted.insert(op.row);
        break;
      case PrimitiveOp::Kind::kUpdateCell:
        updated.insert(op.row);
        break;
      case PrimitiveOp::Kind::kInsertRow:
        ++inserts;
        break;
    }
  }
  EXPECT_EQ(deleted.size(), 4u);
  EXPECT_EQ(inserts, 3u);
  for (ObjectId row : updated) {
    EXPECT_EQ(deleted.count(row), 0u) << "update targets a deleted row";
  }
}

TEST_F(OperationsTest, MixedScriptRejectsOverlappingDemand) {
  Rng rng(5);
  EXPECT_FALSE(MakeMixedScript(layout_.tables[0], 15, 0, 10, &rng).ok());
}

TEST_F(OperationsTest, ExecuteUpdateScriptRecordCount) {
  Rng rng(6);
  auto script = MakeUpdateScript(layout_.tables[0], 8, 4, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  // 8 cells + 4 rows + table + root.
  EXPECT_EQ(db_.last_op_metrics().checksums, 14u);
}

TEST_F(OperationsTest, ExecuteDeleteScriptRecordCount) {
  Rng rng(7);
  auto script = MakeDeleteScript(layout_.tables[0], 3, &rng);
  ASSERT_TRUE(script.ok());
  size_t nodes_before = db_.tree().size();
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  // Rows and their cells are gone; only table + root survive as touched.
  EXPECT_EQ(db_.last_op_metrics().checksums, 2u);
  EXPECT_EQ(db_.tree().size(), nodes_before - 3 * 5);  // 3 rows x (1+4)
}

TEST_F(OperationsTest, ExecuteInsertScriptRecordCount) {
  Rng rng(8);
  auto script = MakeInsertScript(layout_.tables[0], 2, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  // 2 rows + 8 cells inserted, + table + root inherited.
  EXPECT_EQ(db_.last_op_metrics().checksums, 12u);
  EXPECT_EQ(db_.tree().size(), ExpectedNodeCount({{4, 20}}) + 2 * 5);
}

TEST_F(OperationsTest, ExecutedScriptsProduceVerifiableProvenance) {
  Rng rng(9);
  auto script = MakeMixedScript(layout_.tables[0], 2, 2, 4, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());

  auto bundle = db_.ExportForRecipient(layout_.root);
  ASSERT_TRUE(bundle.ok());
  provenance::ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(*bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(OperationsTest, SequentialComplexOperationsCompose) {
  Rng rng(10);
  for (int round = 0; round < 3; ++round) {
    auto script = MakeUpdateScript(layout_.tables[0], 4, 4, &rng);
    ASSERT_TRUE(script.ok());
    ASSERT_TRUE(
        ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  }
  auto bundle = db_.ExportForRecipient(layout_.root);
  ASSERT_TRUE(bundle.ok());
  provenance::ProvenanceVerifier verifier(&TestPki::Instance().registry());
  EXPECT_TRUE(verifier.Verify(*bundle).ok());
  // Root chain advanced once per complex operation.
  EXPECT_EQ(db_.provenance().ChainOf(layout_.root).size(), 3u);
}

// RelationalTest (its schema cases are in synthetic_test.cc): row
// operations run as complex operations keep the schema depth-4.

TEST(RelationalTest, DeleteRowRemovesRowAndCells) {
  TrackedDatabase db;
  Rng rng(20);
  auto layout = BuildSyntheticDatabase(&db.bootstrap_tree(), {{2, 2}}, &rng);
  ASSERT_TRUE(layout.ok());
  const SyntheticLayout::TableLayout& table = layout->tables[0];
  auto script = MakeDeleteScript(table, 1, &rng);
  ASSERT_TRUE(script.ok());
  const ObjectId doomed = script->ops[0].row;
  const ObjectId kept = doomed == table.rows[0] ? table.rows[1] : table.rows[0];
  const std::vector<ObjectId> cells = (*db.tree().GetNode(doomed))->children;
  const size_t before = db.tree().size();
  ASSERT_TRUE(ExecuteAsComplexOperation(
                  &db, TestPki::Instance().participant(0), *script, &rng)
                  .ok());

  EXPECT_EQ(db.tree().size(), before - 3);  // row + 2 cells
  EXPECT_FALSE(db.tree().Contains(doomed));
  for (ObjectId cell : cells) {
    EXPECT_FALSE(db.tree().Contains(cell));
  }
  EXPECT_EQ((*db.tree().GetNode(table.table_id))->children,
            std::vector<ObjectId>{kept});
}

TEST(RelationalTest, DepthFourStructure) {
  TrackedDatabase db;
  Rng rng(21);
  auto layout = BuildSyntheticDatabase(&db.bootstrap_tree(), {{2, 1}}, &rng);
  ASSERT_TRUE(layout.ok());
  const SyntheticLayout::TableLayout& table = layout->tables[0];
  auto script = MakeInsertScript(table, 1, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(ExecuteAsComplexOperation(
                  &db, TestPki::Instance().participant(0), *script, &rng)
                  .ok());

  // The inserted row sits beside the built one, its cells below it.
  const std::vector<ObjectId> rows =
      (*db.tree().GetNode(table.table_id))->children;
  ASSERT_EQ(rows.size(), 2u);
  const ObjectId inserted = rows[0] == table.rows[0] ? rows[1] : rows[0];
  EXPECT_EQ(*db.tree().DepthOf(layout->root), 0u);
  EXPECT_EQ(*db.tree().DepthOf(table.table_id), 1u);
  EXPECT_EQ(*db.tree().DepthOf(inserted), 2u);
  const std::vector<ObjectId> cells = (*db.tree().GetNode(inserted))->children;
  ASSERT_EQ(cells.size(), 2u);
  for (ObjectId cell : cells) {
    EXPECT_EQ(*db.tree().DepthOf(cell), 3u);
    EXPECT_TRUE((*db.tree().GetNode(cell))->is_leaf());
  }
}

// TrackedRelationalTest: row- and cell-level operations on the depth-4
// schema, each run as one complex operation (§4.4) and attributed to a
// participant, on OperationsTest's 4-attribute, 20-row table.
class TrackedRelationalTest : public OperationsTest {
 protected:
  const crypto::Participant& p(size_t i) {
    return TestPki::Instance().participant(i);
  }
  const SyntheticLayout::TableLayout& table() const {
    return layout_.tables[0];
  }

  ComplexOpScript Script(PrimitiveOp::Kind kind, ObjectId row = 0,
                         size_t column = 0) const {
    ComplexOpScript script;
    script.table = table().table_id;
    script.num_attributes = table().num_attributes;
    PrimitiveOp op;
    op.kind = kind;
    op.row = row;
    op.column = column;
    op.value = 7;
    script.ops.push_back(op);
    return script;
  }

  Status Run(size_t participant, const ComplexOpScript& script) {
    Rng rng(31);
    return ExecuteAsComplexOperation(&db_, p(participant), script, &rng);
  }

  /// The row of `table()` that is not among the bootstrapped rows.
  ObjectId InsertedRow() {
    for (ObjectId row : (*db_.tree().GetNode(table().table_id))->children) {
      if (std::find(table().rows.begin(), table().rows.end(), row) ==
          table().rows.end()) {
        return row;
      }
    }
    return storage::kInvalidObjectId;
  }

  provenance::VerificationReport VerifyDatabase() {
    auto bundle = db_.ExportForRecipient(layout_.root);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    provenance::ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(*bundle);
  }
};

TEST_F(TrackedRelationalTest, InsertRowIsOneComplexOperation) {
  const uint64_t before = db_.provenance().record_count();
  ASSERT_TRUE(Run(1, Script(PrimitiveOp::Kind::kInsertRow)).ok());
  // Row + 4 cells (inserts) + table + root (inherited) = 7 records.
  EXPECT_EQ(db_.provenance().record_count() - before, 7u);
  const ObjectId row = InsertedRow();
  ASSERT_NE(row, storage::kInvalidObjectId);
  std::vector<ObjectId> inserted = (*db_.tree().GetNode(row))->children;
  inserted.push_back(row);
  for (ObjectId id : inserted) {
    const ProvenanceRecord* latest = *db_.provenance().LatestFor(id);
    EXPECT_EQ(latest->op, provenance::OperationType::kInsert);
    EXPECT_FALSE(latest->inherited);
    EXPECT_EQ(latest->participant, p(1).id());
  }
  for (ObjectId id : {table().table_id, layout_.root}) {
    EXPECT_TRUE((*db_.provenance().LatestFor(id))->inherited);
  }
  EXPECT_TRUE(VerifyDatabase().ok());
}

TEST_F(TrackedRelationalTest, InsertRowArityChecked) {
  ASSERT_TRUE(Run(0, Script(PrimitiveOp::Kind::kInsertRow)).ok());
  const ObjectId row = InsertedRow();
  ASSERT_NE(row, storage::kInvalidObjectId);
  EXPECT_EQ((*db_.tree().GetNode(row))->children.size(),
            static_cast<size_t>(table().num_attributes));

  // A row for a table that does not exist fails, and the failure path
  // leaves no complex operation dangling.
  ComplexOpScript stray = Script(PrimitiveOp::Kind::kInsertRow);
  stray.table = 99999;
  EXPECT_FALSE(Run(0, stray).ok());
  EXPECT_FALSE(db_.in_complex_operation());
  EXPECT_TRUE(Run(0, Script(PrimitiveOp::Kind::kUpdateCell, row, 1)).ok());
}

TEST_F(TrackedRelationalTest, DeleteRowIsOneComplexOperation) {
  const ObjectId row = table().rows[3];
  const uint64_t before = db_.provenance().record_count();
  ASSERT_TRUE(Run(2, Script(PrimitiveOp::Kind::kDeleteRow, row)).ok());
  // Only table + root survive as touched, both inherited from the deleter.
  EXPECT_EQ(db_.provenance().record_count() - before, 2u);
  EXPECT_FALSE(db_.tree().Contains(row));
  for (ObjectId id : {table().table_id, layout_.root}) {
    const ProvenanceRecord* latest = *db_.provenance().LatestFor(id);
    EXPECT_TRUE(latest->inherited);
    EXPECT_EQ(latest->participant, p(2).id());
  }
  EXPECT_TRUE(VerifyDatabase().ok());
}

TEST_F(TrackedRelationalTest, MultiParticipantTrialScenario) {
  // A compressed clinical-trial flow: one participant enters rows, a
  // second corrects a cell, a third withdraws a row.
  Rng rng(32);
  auto enrol = MakeInsertScript(table(), 3, &rng);
  ASSERT_TRUE(enrol.ok());
  ASSERT_TRUE(Run(0, *enrol).ok());
  ASSERT_TRUE(Run(2, Script(PrimitiveOp::Kind::kUpdateCell, table().rows[1],
                            2))
                  .ok());
  ASSERT_TRUE(Run(1, Script(PrimitiveOp::Kind::kDeleteRow, table().rows[2]))
                  .ok());

  provenance::VerificationReport report = VerifyDatabase();
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Lineage over the whole database names all three participants.
  auto summary =
      provenance::SummarizeLineage(db_.OpenSnapshot(), layout_.root);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->participants,
            (std::set<crypto::ParticipantId>{p(0).id(), p(1).id(),
                                             p(2).id()}));
}

TEST_F(OperationsTest, PaperSetupCMixesSumTo500) {
  for (const MixSpec& mix : PaperSetupCMixes()) {
    EXPECT_EQ(mix.deletes + mix.inserts + mix.updates, 500u);
  }
  ASSERT_EQ(PaperSetupCMixes().size(), 4u);
  // Delete share strictly increases across the four mixes (Fig. 10's
  // x-axis ordering).
  const auto& mixes = PaperSetupCMixes();
  for (size_t i = 1; i < mixes.size(); ++i) {
    EXPECT_GT(mixes[i].deletes, mixes[i - 1].deletes);
  }
}

}  // namespace
}  // namespace provdb::workload
