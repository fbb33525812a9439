#include "provenance/chain_index.h"

#include <unordered_set>

namespace provdb::provenance {

const ChainIndex::Leaf* ChainIndex::Find(const Node* root,
                                         storage::ObjectId key) {
  const Node* node = root;
  unsigned shift = 0;
  while (node != nullptr) {
    uintptr_t entry = node->child[NibbleAt(key, shift)];
    if (entry == 0) {
      return nullptr;
    }
    if (IsLeaf(entry)) {
      const Leaf* leaf = AsLeaf(entry);
      return leaf->key == key ? leaf : nullptr;
    }
    node = AsNode(entry);
    shift += 4;
  }
  return nullptr;
}

ChainIndex::Leaf* ChainIndex::NewLeaf(storage::ObjectId key,
                                      const ChainNode* head, uint64_t tick) {
  Leaf* leaf = new Leaf;
  leaf->key = key;
  leaf->head = head;
  leaf->born = tick;
  return leaf;
}

ChainIndex::Node* ChainIndex::Writable(const Node* node, uint64_t tick,
                                       EpochDomain& domain) {
  if (node != nullptr && node->born == tick) {
    // Born since the last publish: no published root reaches it.
    return const_cast<Node*>(node);
  }
  Node* copy = new Node;
  copy->born = tick;
  if (node != nullptr) {
    for (size_t i = 0; i < 16; ++i) {
      copy->child[i] = node->child[i];
    }
    // Unlinked from the writer's trie; readers pinned on an older root
    // still reach it.
    domain.Retire(const_cast<Node*>(node));
  }
  return copy;
}

ChainIndex::Node* ChainIndex::BuildSplit(const Leaf* existing, Leaf* fresh,
                                         unsigned shift, uint64_t tick) {
  // Two distinct keys: descend until their nibbles diverge (guaranteed
  // within 64/4 = 16 levels), then hang both leaves off that node.
  Node* node = new Node;
  node->born = tick;
  size_t a = NibbleAt(existing->key, shift);
  size_t b = NibbleAt(fresh->key, shift);
  if (a != b) {
    node->child[a] = Tag(existing);
    node->child[b] = Tag(fresh);
  } else {
    node->child[a] = Tag(BuildSplit(existing, fresh, shift + 4, tick));
  }
  return node;
}

ChainIndex::Node* ChainIndex::Insert(Node* root, storage::ObjectId key,
                                     const ChainNode* head, uint64_t tick,
                                     EpochDomain& domain) {
  Node* const new_root = Writable(root, tick, domain);
  Node* node = new_root;
  for (unsigned shift = 0;; shift += 4) {
    uintptr_t& slot = node->child[NibbleAt(key, shift)];
    if (slot == 0) {
      slot = Tag(NewLeaf(key, head, tick));
      return new_root;
    }
    if (IsLeaf(slot)) {
      const Leaf* existing = AsLeaf(slot);
      if (existing->key != key) {
        slot = Tag(BuildSplit(existing, NewLeaf(key, head, tick), shift + 4,
                              tick));
      } else if (existing->born == tick) {
        const_cast<Leaf*>(existing)->head = head;
      } else {
        // The old leaf stays readable from older roots; its chain cells
        // stay alive (see header).
        slot = Tag(NewLeaf(key, head, tick));
        domain.Retire(const_cast<Leaf*>(existing));
      }
      return new_root;
    }
    Node* child = Writable(AsNode(slot), tick, domain);
    slot = Tag(child);
    node = child;
  }
}

void ChainIndex::FreeAll(const Node* root) {
  if (root == nullptr) {
    return;
  }
  for (uintptr_t entry : root->child) {
    if (entry == 0) {
      continue;
    }
    if (IsLeaf(entry)) {
      const Leaf* leaf = AsLeaf(entry);
      const ChainNode* cell = leaf->head;
      while (cell != nullptr) {
        const ChainNode* prev = cell->prev;
        delete cell;
        cell = prev;
      }
      delete leaf;
    } else {
      FreeAll(AsNode(entry));
    }
  }
  delete root;
}

std::vector<const ChainNode*> CollectClosure(
    const std::function<const ChainNode*(storage::ObjectId)>& head_of,
    const std::vector<storage::ObjectId>& seeds) {
  std::unordered_set<const ChainNode*> included;
  std::vector<const ChainNode*> out;
  // Work items are prefix ends: include the chain up to and including
  // that cell.
  std::vector<const ChainNode*> work;
  for (storage::ObjectId seed : seeds) {
    if (const ChainNode* head = head_of(seed)) {
      work.push_back(head);
    }
  }
  while (!work.empty()) {
    const ChainNode* end = work.back();
    work.pop_back();
    // Included cells always form a prefix of their chain, so the walk
    // back stops at the first one already included (shared history).
    for (const ChainNode* cell = end;
         cell != nullptr && included.insert(cell).second; cell = cell->prev) {
      out.push_back(cell);
      const ProvenanceRecord& rec = *cell->record;
      if (rec.op != OperationType::kAggregate) {
        continue;
      }
      // Follow each aggregation input back to the record that produced
      // the exact input state: the latest one whose output state equals
      // the recorded input state.
      for (const ObjectState& input : rec.inputs) {
        for (const ChainNode* cand = head_of(input.object_id);
             cand != nullptr; cand = cand->prev) {
          if (cand->record->output.state_hash == input.state_hash &&
              cand->record->seq_id < rec.seq_id) {
            work.push_back(cand);
            break;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace provdb::provenance
