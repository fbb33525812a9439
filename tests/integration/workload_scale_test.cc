// Reduced-scale dress rehearsal of the §5 experiment pipeline: builds a
// scaled-down synthetic database, runs one complex operation of every
// Setup B/C category, checks the record-count arithmetic the figures
// depend on, and verifies + audits the result end to end.

#include <gtest/gtest.h>

#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"
#include "workload/operations.h"
#include "workload/synthetic.h"

namespace provdb::workload {
namespace {

using provdb::testing::TestPki;
using provenance::TrackedDatabase;

// 1/100th of table 1: 8 attrs x 40 rows.
constexpr int kRows = 40;
constexpr int kAttrs = 8;

class WorkloadScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    auto layout =
        BuildSyntheticDatabase(&db_.bootstrap_tree(), {{kAttrs, kRows}}, &rng);
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
  }

  const crypto::Participant& participant() {
    return TestPki::Instance().participant(0);
  }

  void VerifyAndAudit() {
    auto bundle = db_.ExportForRecipient(layout_.root);
    ASSERT_TRUE(bundle.ok());
    provenance::ProvenanceVerifier verifier(&TestPki::Instance().registry());
    auto report = verifier.Verify(*bundle);
    EXPECT_TRUE(report.ok()) << report.ToString();

    auto audit = verifier.Audit(db_.OpenSnapshot(), db_.tree());
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  TrackedDatabase db_;
  SyntheticLayout layout_;
};

TEST_F(WorkloadScaleTest, SetupBDeleteArithmetic) {
  Rng rng(1);
  auto script = MakeDeleteScript(layout_.tables[0], 5, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  // x inherited checksums only: table + root (the per-delete §5.2 rule
  // collapses under batching to the surviving ancestors).
  EXPECT_EQ(db_.last_op_metrics().checksums, 2u);
  VerifyAndAudit();
}

TEST_F(WorkloadScaleTest, SetupBInsertArithmetic) {
  Rng rng(2);
  auto script = MakeInsertScript(layout_.tables[0], 5, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  // 5 rows + 5*8 cells + table + root.
  EXPECT_EQ(db_.last_op_metrics().checksums, 5u + 40u + 2u);
  VerifyAndAudit();
}

TEST_F(WorkloadScaleTest, SetupBUpdateArithmetic) {
  Rng rng(3);
  // 40 updates in 5 rows vs 40 updates in 40 rows: the Figure 8 contrast.
  auto concentrated = MakeUpdateScript(layout_.tables[0], 40, 5, &rng);
  ASSERT_TRUE(concentrated.ok());
  ASSERT_TRUE(ExecuteAsComplexOperation(&db_, participant(), *concentrated,
                                        &rng)
                  .ok());
  EXPECT_EQ(db_.last_op_metrics().checksums, 40u + 5u + 2u);

  auto spread = MakeUpdateScript(layout_.tables[0], 40, 40, &rng);
  ASSERT_TRUE(spread.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *spread, &rng).ok());
  EXPECT_EQ(db_.last_op_metrics().checksums, 40u + 40u + 2u);
  VerifyAndAudit();
}

TEST_F(WorkloadScaleTest, SetupCMixedOpsVerify) {
  Rng rng(4);
  auto script = MakeMixedScript(layout_.tables[0], 6, 4, 10, &rng);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *script, &rng).ok());
  VerifyAndAudit();
}

TEST_F(WorkloadScaleTest, RecordCountMonotoneInDeleteShare) {
  // The Figure 10/11 mechanism at test scale: more deletes, fewer records.
  uint64_t previous = UINT64_MAX;
  for (size_t deletes : {2u, 6u, 10u}) {
    TrackedDatabase db;
    Rng rng(5);
    auto layout =
        BuildSyntheticDatabase(&db.bootstrap_tree(), {{kAttrs, kRows}}, &rng);
    ASSERT_TRUE(layout.ok());
    auto script = MakeMixedScript(layout->tables[0], deletes, 12u - deletes,
                                  10, &rng);
    ASSERT_TRUE(script.ok());
    ASSERT_TRUE(
        ExecuteAsComplexOperation(&db, participant(), *script, &rng).ok());
    uint64_t records = db.provenance().record_count();
    EXPECT_LT(records, previous) << deletes;
    previous = records;
  }
}

TEST_F(WorkloadScaleTest, BasicModeProducesSameRecordsAtScale) {
  provenance::TrackedDatabaseOptions basic_opts;
  basic_opts.hashing_mode = provenance::HashingMode::kBasic;
  TrackedDatabase basic_db(basic_opts);
  Rng rng_a(6), rng_b(6);
  auto layout_basic = BuildSyntheticDatabase(&basic_db.bootstrap_tree(),
                                             {{kAttrs, kRows}}, &rng_a);
  ASSERT_TRUE(layout_basic.ok());

  TrackedDatabase econ_db;
  auto layout_econ = BuildSyntheticDatabase(&econ_db.bootstrap_tree(),
                                            {{kAttrs, kRows}}, &rng_b);
  ASSERT_TRUE(layout_econ.ok());

  Rng s1(7), s2(7);
  auto script1 = MakeUpdateScript(layout_basic->tables[0], 16, 8, &s1);
  auto script2 = MakeUpdateScript(layout_econ->tables[0], 16, 8, &s2);
  ASSERT_TRUE(script1.ok());
  ASSERT_TRUE(script2.ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&basic_db, participant(), *script1, &s1).ok());
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&econ_db, participant(), *script2, &s2).ok());

  ASSERT_EQ(basic_db.provenance().record_count(),
            econ_db.provenance().record_count());
  for (uint64_t i = 0; i < basic_db.provenance().record_count(); ++i) {
    EXPECT_EQ(basic_db.provenance().record(i).output.state_hash,
              econ_db.provenance().record(i).output.state_hash)
        << i;
  }
  // Basic hashed far more nodes for the same work.
  EXPECT_GT(basic_db.cumulative_metrics().nodes_hashed,
            econ_db.cumulative_metrics().nodes_hashed);
}

TEST_F(WorkloadScaleTest, SequentialSetupsComposeAndStayVerifiable) {
  Rng rng(8);
  // update, insert, delete — back to back on one database. (The update
  // script samples from the bootstrap layout, so it runs before rows are
  // deleted.)
  auto upd = MakeUpdateScript(layout_.tables[0], 10, 10, &rng);
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *upd, &rng).ok());
  auto ins = MakeInsertScript(layout_.tables[0], 3, &rng);
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *ins, &rng).ok());
  auto del = MakeDeleteScript(layout_.tables[0], 3, &rng);
  ASSERT_TRUE(
      ExecuteAsComplexOperation(&db_, participant(), *del, &rng).ok());
  VerifyAndAudit();
  // Root chain advanced exactly once per complex operation.
  EXPECT_EQ(db_.provenance().ChainOf(layout_.root).size(), 3u);
}

}  // namespace
}  // namespace provdb::workload
