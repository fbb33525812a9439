// Operation-path equivalence: a primitive called bare must run exactly as
// the same primitive wrapped in Begin/EndComplexOperation (§4.4's
// one-primitive case). A seeded sequence of inserts (under a random node
// and at root level), updates and leaf deletes (root-level leaves
// included) runs on two TrackedDatabases over the same bootstrap table,
// one calling each primitive bare and one wrapping it, in both hashing
// modes with value snapshots off and on. Every record must encode to the
// same bytes and every operation must hash the same number of nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "provenance/tracked_database.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::EncodedInCommitOrder;
using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

constexpr uint64_t kSeed = 0x0BE9A7405ull;
constexpr size_t kPrimitives = 80;

/// One table of 4 rows x 3 cells under a database root, plus two
/// root-level leaves; ids are allocated identically in every tree.
std::vector<ObjectId> LoadBootstrapTable(storage::TreeStore* tree) {
  ObjectId db = *tree->Insert(Value::String("db"));
  ObjectId table = *tree->Insert(Value::String("t"), db);
  std::vector<ObjectId> ids = {db, table};
  for (int r = 0; r < 4; ++r) {
    ObjectId row = *tree->Insert(Value::Int(r), table);
    ids.push_back(row);
    for (int c = 0; c < 3; ++c) {
      ids.push_back(*tree->Insert(Value::Int(10 * r + c), row));
    }
  }
  for (int i = 0; i < 2; ++i) {
    ids.push_back(*tree->Insert(Value::String("solo")));
  }
  return ids;
}

class TrackedDatabaseOperationPathTest
    : public ::testing::TestWithParam<std::tuple<HashingMode, bool>> {
 protected:
  TrackedDatabaseOptions Options() const {
    TrackedDatabaseOptions options;
    options.hashing_mode = std::get<0>(GetParam());
    options.store_value_snapshots = std::get<1>(GetParam());
    return options;
  }
};

TEST_P(TrackedDatabaseOperationPathTest, BarePrimitiveEqualsWrappedPrimitive) {
  TrackedDatabase bare(Options());
  TrackedDatabase wrapped(Options());
  std::vector<ObjectId> live = LoadBootstrapTable(&bare.bootstrap_tree());
  ASSERT_EQ(LoadBootstrapTable(&wrapped.bootstrap_tree()), live);

  // Runs one primitive on both databases: bare, and wrapped in a complex
  // operation of its own.
  auto run_both = [&](const crypto::Participant& p, auto primitive) {
    Status bare_status = primitive(bare);
    ASSERT_TRUE(wrapped.BeginComplexOperation(p).ok());
    Status wrapped_status = primitive(wrapped);
    ASSERT_TRUE(wrapped_status.ok()) << wrapped_status.ToString();
    ASSERT_TRUE(wrapped.EndComplexOperation().ok());
    ASSERT_TRUE(bare_status.ok()) << bare_status.ToString();
  };

  Rng rng(kSeed);
  size_t root_leaf_deletes = 0;
  size_t child_leaf_deletes = 0;
  for (size_t step = 0; step < kPrimitives; ++step) {
    const crypto::Participant& p =
        TestPki::Instance().participant(rng.NextBelow(3));
    const Value value = Value::Int(static_cast<int64_t>(rng.NextBelow(1000)));
    std::vector<ObjectId> leaves;
    std::vector<ObjectId> root_leaves;
    for (ObjectId id : live) {
      const storage::TreeNode* node = *bare.tree().GetNode(id);
      if (node->is_leaf()) {
        leaves.push_back(id);
        if (node->is_root()) root_leaves.push_back(id);
      }
    }
    const uint64_t kind = rng.NextBelow(100);
    bool root_leaf_delete = false;

    if (kind < 40) {
      // Insert under a random live node, or at root level.
      const ObjectId parent = rng.NextBool(0.4)
                                  ? storage::kInvalidObjectId
                                  : live[rng.NextBelow(live.size())];
      SCOPED_TRACE("step " + std::to_string(step) + ": insert under " +
                   std::to_string(parent));
      std::vector<ObjectId> ids;
      run_both(p, [&](TrackedDatabase& db) {
        Result<ObjectId> id = db.Insert(p, value, parent);
        if (id.ok()) ids.push_back(*id);
        return id.status();
      });
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(ids.size(), 2u);
      ASSERT_EQ(ids[0], ids[1]);
      live.push_back(ids[0]);
    } else if (kind < 75) {
      const ObjectId id = live[rng.NextBelow(live.size())];
      SCOPED_TRACE("step " + std::to_string(step) + ": update of " +
                   std::to_string(id));
      run_both(p, [&](TrackedDatabase& db) { return db.Update(p, id, value); });
      ASSERT_FALSE(HasFatalFailure());
    } else {
      // Leaf delete: a root-level leaf half the time when there is one.
      root_leaf_delete = !root_leaves.empty() && rng.NextBool(0.5);
      const std::vector<ObjectId>& pool =
          root_leaf_delete ? root_leaves : leaves;
      const ObjectId id = pool[rng.NextBelow(pool.size())];
      root_leaf_delete = (*bare.tree().GetNode(id))->is_root();
      SCOPED_TRACE("step " + std::to_string(step) + ": delete of " +
                   std::to_string(id));
      run_both(p, [&](TrackedDatabase& db) { return db.Delete(p, id); });
      ASSERT_FALSE(HasFatalFailure());
      live.erase(std::find(live.begin(), live.end(), id));
      ++(root_leaf_delete ? root_leaf_deletes : child_leaf_deletes);
    }

    const OperationMetrics& bare_op = bare.last_op_metrics();
    const OperationMetrics& wrapped_op = wrapped.last_op_metrics();
    EXPECT_EQ(bare_op.nodes_hashed, wrapped_op.nodes_hashed)
        << "step " << step;
    EXPECT_EQ(bare_op.checksums, wrapped_op.checksums) << "step " << step;
    if (root_leaf_delete) {
      EXPECT_EQ(bare_op.nodes_hashed, 0u) << "step " << step;
      EXPECT_EQ(wrapped_op.nodes_hashed, 0u) << "step " << step;
    }
  }
  EXPECT_GT(root_leaf_deletes, 0u) << "the seed never deleted a root leaf";
  EXPECT_GT(child_leaf_deletes, 0u) << "the seed never deleted a child leaf";

  const std::vector<Bytes> bare_records =
      EncodedInCommitOrder(bare.OpenSnapshot().shard_view(0));
  const std::vector<Bytes> wrapped_records =
      EncodedInCommitOrder(wrapped.OpenSnapshot().shard_view(0));
  ASSERT_EQ(bare_records.size(), wrapped_records.size());
  EXPECT_GT(bare_records.size(), kPrimitives);
  for (size_t i = 0; i < bare_records.size(); ++i) {
    EXPECT_EQ(bare_records[i], wrapped_records[i]) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSnapshots, TrackedDatabaseOperationPathTest,
    ::testing::Combine(::testing::Values(HashingMode::kBasic,
                                         HashingMode::kEconomical),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(HashingModeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_snapshots" : "_no_snapshots");
    });

}  // namespace
}  // namespace provdb::provenance
