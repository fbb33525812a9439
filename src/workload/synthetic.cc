#include "workload/synthetic.h"

#include <string>

namespace provdb::workload {

const std::vector<SyntheticTableSpec>& PaperTableSpecs() {
  static const std::vector<SyntheticTableSpec> specs = {
      {8, 4000},
      {9, 3000},
      {10, 2000},
      {5, 5000},
  };
  return specs;
}

size_t ExpectedNodeCount(const std::vector<SyntheticTableSpec>& specs) {
  size_t count = 1;  // database root
  for (const SyntheticTableSpec& spec : specs) {
    count += 1;                                      // table node
    count += static_cast<size_t>(spec.num_rows);     // row nodes
    count += static_cast<size_t>(spec.num_rows) *
             static_cast<size_t>(spec.num_attributes);  // cells
  }
  return count;
}

Result<SyntheticLayout> BuildSyntheticDatabase(
    storage::TreeStore* tree, const std::vector<SyntheticTableSpec>& specs,
    Rng* rng) {
  for (const SyntheticTableSpec& spec : specs) {
    if (spec.num_attributes < 1 || spec.num_rows < 0) {
      return Status::InvalidArgument(
          "a table needs at least one attribute and no negative row count");
    }
  }
  SyntheticLayout layout;
  PROVDB_ASSIGN_OR_RETURN(layout.root,
                          tree->Insert(storage::Value::String("synthetic_db")));
  for (size_t t = 0; t < specs.size(); ++t) {
    const SyntheticTableSpec& spec = specs[t];
    SyntheticLayout::TableLayout table;
    table.num_attributes = spec.num_attributes;
    PROVDB_ASSIGN_OR_RETURN(
        table.table_id,
        tree->Insert(storage::Value::String("table" + std::to_string(t + 1)),
                     layout.root));
    table.rows.reserve(spec.num_rows);
    for (int r = 0; r < spec.num_rows; ++r) {
      PROVDB_ASSIGN_OR_RETURN(
          storage::ObjectId row,
          tree->Insert(storage::Value::Int(r), table.table_id));
      for (int c = 0; c < spec.num_attributes; ++c) {
        PROVDB_RETURN_IF_ERROR(
            tree->Insert(storage::Value::Int(static_cast<int64_t>(
                             rng->NextBelow(1000000))),
                         row)
                .status());
      }
      table.rows.push_back(row);
    }
    layout.tables.push_back(std::move(table));
  }
  return layout;
}

Result<storage::ObjectId> CellIdOf(const storage::TreeStore& tree,
                                   storage::ObjectId row, size_t column) {
  PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node, tree.GetNode(row));
  if (column >= node->children.size()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for row " + std::to_string(row));
  }
  return node->children[column];
}

}  // namespace provdb::workload
