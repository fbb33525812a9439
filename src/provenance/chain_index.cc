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

void ChainIndex::RetireOrDelete(EpochRetired* node, EpochDomain* domain) {
  if (domain != nullptr) {
    domain->Retire(node);
  } else {
    delete node;
  }
}

ChainIndex::Node* ChainIndex::BuildSplit(const Leaf* existing, Leaf* fresh,
                                         unsigned shift) {
  // Two distinct keys: descend until their nibbles diverge (guaranteed
  // within 64/4 = 16 levels), then hang both leaves off that node.
  Node* node = new Node;
  size_t a = NibbleAt(existing->key, shift);
  size_t b = NibbleAt(fresh->key, shift);
  if (a != b) {
    node->child[a] = Tag(existing);
    node->child[b] = Tag(fresh);
  } else {
    node->child[a] = Tag(BuildSplit(existing, fresh, shift + 4));
  }
  return node;
}

const ChainIndex::Node* ChainIndex::InsertRec(const Node* node, Leaf* leaf,
                                              unsigned shift,
                                              EpochDomain* domain) {
  Node* copy = new Node;
  if (node != nullptr) {
    for (size_t i = 0; i < 16; ++i) {
      copy->child[i] = node->child[i];
    }
  }
  const size_t idx = NibbleAt(leaf->key, shift);
  const uintptr_t entry = copy->child[idx];
  if (entry == 0) {
    copy->child[idx] = Tag(leaf);
  } else if (IsLeaf(entry)) {
    const Leaf* existing = AsLeaf(entry);
    if (existing->key == leaf->key) {
      copy->child[idx] = Tag(leaf);
      // The old leaf is unlinked from the new version; readers pinned on
      // an older root still reach it. Its chain cells stay alive — the
      // new leaf links to them or the caller retires them (see header).
      RetireOrDelete(const_cast<Leaf*>(existing), domain);
    } else {
      copy->child[idx] = Tag(BuildSplit(existing, leaf, shift + 4));
    }
  } else {
    copy->child[idx] =
        Tag(InsertRec(AsNode(entry), leaf, shift + 4, domain));
    RetireOrDelete(const_cast<Node*>(AsNode(entry)), domain);
  }
  return copy;
}

const ChainIndex::Node* ChainIndex::Insert(const Node* root, Leaf* leaf,
                                           EpochDomain* domain) {
  const Node* new_root = InsertRec(root, leaf, 0, domain);
  if (root != nullptr) {
    RetireOrDelete(const_cast<Node*>(root), domain);
  }
  return new_root;
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
