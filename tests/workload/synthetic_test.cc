#include "workload/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace provdb::workload {
namespace {

using storage::ObjectId;
using storage::TreeStore;
using storage::Value;

TEST(SyntheticTest, PaperTableSpecsMatchTable1a) {
  const auto& specs = PaperTableSpecs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].num_attributes, 8);
  EXPECT_EQ(specs[0].num_rows, 4000);
  EXPECT_EQ(specs[1].num_attributes, 9);
  EXPECT_EQ(specs[1].num_rows, 3000);
  EXPECT_EQ(specs[2].num_attributes, 10);
  EXPECT_EQ(specs[2].num_rows, 2000);
  EXPECT_EQ(specs[3].num_attributes, 5);
  EXPECT_EQ(specs[3].num_rows, 5000);
}

TEST(SyntheticTest, NodeCountsMatchTable1b) {
  const auto& specs = PaperTableSpecs();
  // Cumulative combinations from Table 1(b). The paper prints 36002,
  // 66000, 88004, 118006; exact arithmetic gives 36002, 66003, 88004,
  // 118005 (the paper's 2nd and 4th entries carry small slips).
  EXPECT_EQ(ExpectedNodeCount({specs[0]}), 36002u);
  EXPECT_EQ(ExpectedNodeCount({specs[0], specs[1]}), 66003u);
  EXPECT_EQ(ExpectedNodeCount({specs[0], specs[1], specs[2]}), 88004u);
  EXPECT_EQ(ExpectedNodeCount(specs), 118005u);
}

TEST(SyntheticTest, BuiltDatabaseMatchesExpectedCounts) {
  Rng rng(1);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(
      &tree, {{3, 10}, {2, 5}}, &rng);
  ASSERT_TRUE(layout.ok());
  // 1 root + 2 tables + 15 rows + (30 + 10) cells.
  EXPECT_EQ(tree.size(), ExpectedNodeCount({{3, 10}, {2, 5}}));
  EXPECT_EQ(tree.size(), 58u);
  ASSERT_EQ(layout->tables.size(), 2u);
  EXPECT_EQ(layout->tables[0].rows.size(), 10u);
  EXPECT_EQ(layout->tables[1].rows.size(), 5u);
  EXPECT_EQ(layout->tables[0].num_attributes, 3);
}

TEST(SyntheticTest, DepthFourStructure) {
  Rng rng(2);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{2, 3}}, &rng);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(*tree.DepthOf(layout->root), 0u);
  EXPECT_EQ(*tree.DepthOf(layout->tables[0].table_id), 1u);
  ObjectId row = layout->tables[0].rows[0];
  EXPECT_EQ(*tree.DepthOf(row), 2u);
  auto cell = CellIdOf(tree, row, 0);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(*tree.DepthOf(*cell), 3u);
}

TEST(SyntheticTest, AllCellsAreIntegers) {
  Rng rng(3);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{4, 6}}, &rng);
  ASSERT_TRUE(layout.ok());
  for (ObjectId row : layout->tables[0].rows) {
    for (size_t c = 0; c < 4; ++c) {
      auto cell = CellIdOf(tree, row, c);
      ASSERT_TRUE(cell.ok());
      EXPECT_EQ((*tree.GetNode(*cell))->value.type(),
                storage::ValueType::kInt);
    }
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  TreeStore t1, t2;
  Rng rng1(42), rng2(42);
  BuildSyntheticDatabase(&t1, {{3, 4}}, &rng1).value();
  auto layout2 = BuildSyntheticDatabase(&t2, {{3, 4}}, &rng2);
  ASSERT_TRUE(layout2.ok());
  // Same seeds -> identical values at identical positions.
  for (ObjectId row : layout2->tables[0].rows) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ((*t1.GetNode(*CellIdOf(t1, row, c)))->value,
                (*t2.GetNode(*CellIdOf(t2, row, c)))->value);
    }
  }
}

TEST(SyntheticTest, CellIdOfBoundsChecked) {
  Rng rng(4);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{2, 2}}, &rng);
  ObjectId row = layout->tables[0].rows[0];
  EXPECT_TRUE(CellIdOf(tree, row, 1).ok());
  EXPECT_FALSE(CellIdOf(tree, row, 2).ok());
  EXPECT_FALSE(CellIdOf(tree, 99999, 0).ok());
}

// RelationalTest: the paper's depth-4 relational schema (§5.1), database
// root → tables → rows → cells, as BuildSyntheticDatabase lays it out.
// Its row operations under provenance are in operations_test.cc.

TEST(RelationalTest, FreshDatabaseHasOnlyRoot) {
  Rng rng(5);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {}, &rng);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(layout->tables.empty());
  auto root = tree.GetNode(layout->root);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->value, Value::String("synthetic_db"));
  EXPECT_TRUE((*root)->is_leaf());
}

TEST(RelationalTest, CreateTableAddsNodeUnderRoot) {
  Rng rng(6);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{2, 0}}, &rng);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_EQ(layout->tables.size(), 1u);
  const SyntheticLayout::TableLayout& table = layout->tables[0];
  auto node = tree.GetNode(table.table_id);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->parent, layout->root);
  EXPECT_EQ((*node)->value, Value::String("table1"));
  EXPECT_EQ(table.num_attributes, 2);
  EXPECT_TRUE(table.rows.empty());
}

TEST(RelationalTest, EmptySchemaFails) {
  Rng rng(7);
  TreeStore tree;
  EXPECT_EQ(BuildSyntheticDatabase(&tree, {{0, 3}}, &rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BuildSyntheticDatabase(&tree, {{2, 1}, {2, -1}}, &rng).status().code(),
      StatusCode::kInvalidArgument);
  // Refused before any node is built.
  EXPECT_EQ(tree.size(), 0u);
}

TEST(RelationalTest, InsertRowCreatesRowAndCells) {
  Rng rng(8);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{2, 1}}, &rng);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(tree.size(), 5u);  // root + table + row + 2 cells
  const ObjectId row = layout->tables[0].rows[0];
  EXPECT_EQ((*tree.GetNode(row))->children.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    auto cell = CellIdOf(tree, row, c);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ((*tree.GetNode(*cell))->parent, row);
    EXPECT_TRUE((*tree.GetNode(*cell))->is_leaf());
  }
}

TEST(RelationalTest, UpdateCell) {
  Rng rng(9);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{2, 2}}, &rng);
  ASSERT_TRUE(layout.ok());
  const ObjectId row = layout->tables[0].rows[1];
  const Value untouched = (*tree.GetNode(*CellIdOf(tree, row, 0)))->value;
  ASSERT_TRUE(tree.Update(*CellIdOf(tree, row, 1), Value::Int(45)).ok());
  EXPECT_EQ((*tree.GetNode(*CellIdOf(tree, row, 1)))->value, Value::Int(45));
  EXPECT_EQ((*tree.GetNode(*CellIdOf(tree, row, 0)))->value, untouched);
  EXPECT_FALSE(CellIdOf(tree, row, 5).ok());
  EXPECT_FALSE(CellIdOf(tree, 99999, 0).ok());
}

TEST(RelationalTest, RowsOfListsAscending) {
  Rng rng(10);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{1, 5}}, &rng);
  ASSERT_TRUE(layout.ok());
  const std::vector<ObjectId>& rows = layout->tables[0].rows;
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
  EXPECT_EQ((*tree.GetNode(layout->tables[0].table_id))->children, rows);
}

TEST(RelationalTest, RowOrdinalsStoredAsRowValues) {
  Rng rng(11);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{1, 3}, {2, 2}}, &rng);
  ASSERT_TRUE(layout.ok());
  for (const SyntheticLayout::TableLayout& table : layout->tables) {
    for (size_t r = 0; r < table.rows.size(); ++r) {
      EXPECT_EQ((*tree.GetNode(table.rows[r]))->value,
                Value::Int(static_cast<int64_t>(r)));
    }
  }
}

TEST(RelationalTest, MultipleTablesShareRoot) {
  Rng rng(12);
  TreeStore tree;
  auto layout = BuildSyntheticDatabase(&tree, {{1, 1}, {3, 2}}, &rng);
  ASSERT_TRUE(layout.ok());
  ASSERT_EQ(layout->tables.size(), 2u);
  const ObjectId t1 = layout->tables[0].table_id;
  const ObjectId t2 = layout->tables[1].table_id;
  EXPECT_NE(t1, t2);
  EXPECT_EQ((*tree.GetNode(layout->root))->children,
            (std::vector<ObjectId>{t1, t2}));
  EXPECT_EQ((*tree.GetNode(t2))->value, Value::String("table2"));
}

}  // namespace
}  // namespace provdb::workload
