#ifndef PROVDB_PROVENANCE_CHAIN_INDEX_H_
#define PROVDB_PROVENANCE_CHAIN_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/epoch.h"
#include "provenance/record.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// One link of a copy-on-write chain: the cons cell holding an object's
/// newest record, pointing back at the rest of its chain. Append shares
/// the entire existing list (records for different epochs of the store
/// alias the same cells), which is what lets a pinned snapshot keep
/// reading a chain while the writer extends it.
struct ChainNode : EpochRetired {
  const ProvenanceRecord* record = nullptr;
  /// The record's stable index in its shard store (ascending along the
  /// chain, so `prev->index < index` always holds).
  uint64_t index = 0;
  const ChainNode* prev = nullptr;
  /// Cells in this list including this one — lets readers size chain
  /// materialization without a second walk.
  uint64_t length = 0;
};

/// 16-way radix trie keyed by object id, four bits per level starting at
/// the low nibble. Every node records the store's publish tick it was
/// born at. The writer never mutates a node a published root can reach:
/// an insert updates in place only the nodes born at the current tick
/// (created since the store's last publish), and path-copies the older
/// ones it passes, retiring the originals through the store's epoch
/// domain, so readers pinned on an older root keep a consistent view.
/// A batch therefore copies each touched path once, and a store that
/// has not published yet copies nothing. All operations are static over
/// an explicit root — the same code serves the writer's working root and
/// the published roots inside snapshots.
class ChainIndex {
 public:
  /// Terminal entry: an object's chain head. A leaf with a null head is
  /// a prune tombstone (the object had a chain and it was dropped).
  struct Leaf : EpochRetired {
    storage::ObjectId key = storage::kInvalidObjectId;
    const ChainNode* head = nullptr;
    uint64_t born = 0;  // publish tick of its creation
  };

  /// Interior node. Children are tagged pointers: 0 = empty, low bit
  /// set = Leaf*, otherwise Node*. (All nodes are heap-allocated and
  /// therefore at least 8-aligned, so the low bit is free for the tag.)
  struct Node : EpochRetired {
    uintptr_t child[16] = {};
    uint64_t born = 0;  // publish tick of its creation
  };

  /// The leaf for `key`, or null. Safe on any root, including null.
  static const Leaf* Find(const Node* root, storage::ObjectId key);

  /// Points `key`'s leaf at `head` (null for a prune tombstone), adding
  /// the leaf when the key is new, and returns the new root (never
  /// null). `tick` is the store's current publish tick: nodes and leaves
  /// born at it are updated in place, older ones on the path are copied
  /// (born at `tick`) and retired through `domain`. A replaced leaf's
  /// chain cells are NOT retired — `head` links to them (append) or the
  /// caller retires them itself (prune tombstone).
  static Node* Insert(Node* root, storage::ObjectId key, const ChainNode* head,
                      uint64_t tick, EpochDomain& domain);

  /// Visits every leaf under `root` (tombstones included). Order is
  /// radix order of the reversed-nibble key — deterministic but not
  /// sorted; callers wanting id order collect into an ordered map.
  template <typename Fn>
  static void ForEachLeaf(const Node* root, Fn&& fn) {
    if (root == nullptr) {
      return;
    }
    for (uintptr_t entry : root->child) {
      if (entry == 0) {
        continue;
      }
      if (IsLeaf(entry)) {
        fn(*AsLeaf(entry));
      } else {
        ForEachLeaf(AsNode(entry), fn);
      }
    }
  }

  /// Frees the whole trie — interior nodes, leaves, and every chain
  /// cell reachable from a leaf head. Only for store destruction, when
  /// no reader can hold the root; retired (replaced) nodes are not
  /// reachable here and are freed by their epoch domain instead.
  static void FreeAll(const Node* root);

 private:
  static bool IsLeaf(uintptr_t entry) { return (entry & 1u) != 0; }
  static const Leaf* AsLeaf(uintptr_t entry) {
    return reinterpret_cast<const Leaf*>(entry & ~uintptr_t{1});
  }
  static const Node* AsNode(uintptr_t entry) {
    return reinterpret_cast<const Node*>(entry);
  }
  static uintptr_t Tag(const Leaf* leaf) {
    return reinterpret_cast<uintptr_t>(leaf) | uintptr_t{1};
  }
  static uintptr_t Tag(const Node* node) {
    return reinterpret_cast<uintptr_t>(node);
  }
  static size_t NibbleAt(storage::ObjectId key, unsigned shift) {
    return static_cast<size_t>((key >> shift) & 0xF);
  }

  /// `node` itself when born at `tick`, else a copy born at `tick`
  /// (a fresh node for null), with the original retired.
  static Node* Writable(const Node* node, uint64_t tick, EpochDomain& domain);
  static Leaf* NewLeaf(storage::ObjectId key, const ChainNode* head,
                       uint64_t tick);
  static Node* BuildSplit(const Leaf* existing, Leaf* fresh, unsigned shift,
                          uint64_t tick);
};

/// The DAG closure of provenance extraction (§3, Figure 2), shared by the
/// writer and by snapshots: every cell of each seed object's chain plus,
/// transitively, each aggregation input's chain up to the record that
/// produced the recorded input state. `head_of` gives an object's newest
/// cell, or null when it has no live chain (unknown, pruned, or bootstrap
/// data). The cells come back unordered; each caller sorts them into its
/// own linear extension of the seqID order.
std::vector<const ChainNode*> CollectClosure(
    const std::function<const ChainNode*(storage::ObjectId)>& head_of,
    const std::vector<storage::ObjectId>& seeds);

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_CHAIN_INDEX_H_
