#ifndef PROVDB_WORKLOAD_SYNTHETIC_H_
#define PROVDB_WORKLOAD_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "storage/tree_store.h"

namespace provdb::workload {

/// One synthetic table, per Table 1(a) of the paper (all attributes are
/// integers).
struct SyntheticTableSpec {
  int num_attributes = 0;
  int num_rows = 0;
};

/// The paper's four synthetic tables (Table 1(a)):
///   #1: 8 attrs x 4000 rows     #2: 9 attrs x 3000 rows
///   #3: 10 attrs x 2000 rows    #4: 5 attrs x 5000 rows
const std::vector<SyntheticTableSpec>& PaperTableSpecs();

/// Number of tree nodes a database built from `specs` occupies:
/// 1 root + tables + rows + cells. For the paper's four cumulative
/// combinations this yields 36002 / 66003 / 88004 / 118005. (The paper's
/// Table 1(b) prints 36002 / 66000 / 88004 / 118006 — the 2nd and 4th
/// entries appear to carry +-2 arithmetic slips; see EXPERIMENTS.md.)
size_t ExpectedNodeCount(const std::vector<SyntheticTableSpec>& specs);

/// Object-id map of a built synthetic database, used by operation scripts
/// to address rows and cells.
struct SyntheticLayout {
  storage::ObjectId root = storage::kInvalidObjectId;

  struct TableLayout {
    storage::ObjectId table_id = storage::kInvalidObjectId;
    std::vector<storage::ObjectId> rows;
    int num_attributes = 0;
  };
  std::vector<TableLayout> tables;
};

/// Builds a depth-4 synthetic database (root → tables → rows → integer
/// cells) directly into `tree` (untracked: this is the initial state that
/// exists before provenance collection begins, as in §5). Cell values are
/// drawn from `rng`, so a fixed seed reproduces the same database. A
/// table needs at least one attribute and no negative row count; a spec
/// list breaking that is refused before anything is built.
Result<SyntheticLayout> BuildSyntheticDatabase(
    storage::TreeStore* tree, const std::vector<SyntheticTableSpec>& specs,
    Rng* rng);

/// Cell object id at (row, column) — columns indexed 0-based in the
/// ascending-child-id order.
Result<storage::ObjectId> CellIdOf(const storage::TreeStore& tree,
                                   storage::ObjectId row, size_t column);

}  // namespace provdb::workload

#endif  // PROVDB_WORKLOAD_SYNTHETIC_H_
