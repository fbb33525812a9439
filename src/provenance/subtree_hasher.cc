#include "provenance/subtree_hasher.h"

#include <utility>
#include <vector>

#include "common/varint.h"

namespace provdb::provenance {

crypto::Digest HashTreeNode(crypto::HashAlgorithm alg, storage::ObjectId id,
                            const storage::Value& value,
                            const std::vector<crypto::Digest>& child_hashes) {
  Bytes preimage;
  preimage.reserve(16 + value.ApproximateSize() +
                   child_hashes.size() * crypto::Digest::kMaxSize);
  AppendByte(&preimage, child_hashes.empty() ? kLeafNodeTag : kInteriorNodeTag);
  AppendVarint64(&preimage, id);
  value.CanonicalEncode(&preimage);
  for (const crypto::Digest& child : child_hashes) {
    AppendBytes(&preimage, child.view());
  }
  return crypto::HashBytes(alg, preimage);
}

SubtreeHasher::SubtreeHasher(const storage::TreeStore* tree,
                             crypto::HashAlgorithm alg)
    : tree_(tree),
      alg_(alg),
      nodes_hashed_total_(
          observability::GlobalMetrics().counter("hash.nodes_hashed")),
      subtree_calls_(
          observability::GlobalMetrics().counter("hash.subtree.calls")) {}

crypto::Digest SubtreeHasher::HashNode(
    storage::ObjectId id, const storage::Value& value,
    const std::vector<crypto::Digest>& child_hashes) const {
  nodes_hashed_.fetch_add(1, std::memory_order_relaxed);
  nodes_hashed_total_->Increment();
  return HashTreeNode(alg_, id, value, child_hashes);
}

crypto::Digest SubtreeHasher::HashAtomic(storage::ObjectId id,
                                         const storage::Value& value) const {
  return HashNode(id, value, {});
}

Result<crypto::Digest> SubtreeHasher::HashSubtreeBasicInto(
    storage::ObjectId root,
    std::unordered_map<storage::ObjectId, crypto::Digest>* digests) const {
  subtree_calls_->Increment();
  PROVDB_RETURN_IF_ERROR(tree_->GetNode(root).status());

  // Iterative post-order: children hashed before their parent.
  struct Frame {
    storage::ObjectId id;
    size_t next_child = 0;
    std::vector<crypto::Digest> child_hashes;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0, {}});
  crypto::Digest result;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const storage::TreeNode& node = *tree_->GetNode(frame.id).value();
    if (frame.next_child < node.children.size()) {
      storage::ObjectId child = node.children[frame.next_child++];
      stack.push_back({child, 0, {}});
      continue;
    }
    crypto::Digest digest = HashNode(node.id, node.value, frame.child_hashes);
    if (digests != nullptr) {
      (*digests)[frame.id] = digest;
    }
    stack.pop_back();
    if (stack.empty()) {
      result = digest;
    } else {
      stack.back().child_hashes.push_back(digest);
    }
  }
  return result;
}

Result<crypto::Digest> SubtreeHasher::HashSubtreeBasic(
    storage::ObjectId root, ThreadPool* pool) const {
  PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node,
                          tree_->GetNode(root));
  // One walk per child subtree; node->children is sorted ascending and
  // the fan-out returns digests in that order, so the combined digest is
  // the sequential walk's.
  std::vector<Result<crypto::Digest>> walks = OrderedFanOut(
      pool, node->children,
      [this](storage::ObjectId child) { return HashSubtreeBasic(child); });
  std::vector<crypto::Digest> child_hashes;
  child_hashes.reserve(walks.size());
  for (Result<crypto::Digest>& digest : walks) {
    PROVDB_RETURN_IF_ERROR(digest.status());
    child_hashes.push_back(std::move(digest).value());
  }
  return HashNode(node->id, node->value, child_hashes);
}

EconomicalHasher::EconomicalHasher(const storage::TreeStore* tree,
                                   crypto::HashAlgorithm alg)
    : tree_(tree),
      base_(tree, alg),
      memo_hits_(observability::GlobalMetrics().counter("hash.memo_hits")) {}

Result<crypto::Digest> EconomicalHasher::HashSubtree(storage::ObjectId root) {
  PROVDB_RETURN_IF_ERROR(tree_->GetNode(root).status());

  struct Frame {
    storage::ObjectId id;
    size_t next_child = 0;
    std::vector<crypto::Digest> child_hashes;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0, {}});
  crypto::Digest result;

  auto deliver = [&](const crypto::Digest& digest) {
    if (stack.empty()) {
      result = digest;
    } else {
      stack.back().child_hashes.push_back(digest);
    }
  };

  // Special case: the root itself may be clean in the cache.
  {
    auto it = cache_.find(root);
    if (it != cache_.end() && !it->second.dirty) {
      memo_hits_->Increment();
      return it->second.digest;
    }
  }

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const storage::TreeNode& node = *tree_->GetNode(frame.id).value();
    if (frame.next_child < node.children.size()) {
      storage::ObjectId child = node.children[frame.next_child++];
      auto it = cache_.find(child);
      if (it != cache_.end() && !it->second.dirty) {
        memo_hits_->Increment();
        frame.child_hashes.push_back(it->second.digest);  // reuse, no walk
      } else {
        stack.push_back({child, 0, {}});
      }
      continue;
    }
    crypto::Digest digest =
        base_.HashNode(node.id, node.value, frame.child_hashes);
    cache_[frame.id] = Entry{digest, /*dirty=*/false};
    stack.pop_back();
    deliver(digest);
  }
  return result;
}

void EconomicalHasher::Invalidate(storage::ObjectId id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second.dirty = true;
  }
  for (storage::ObjectId ancestor : tree_->AncestorsOf(id)) {
    auto anc_it = cache_.find(ancestor);
    if (anc_it != cache_.end()) {
      if (anc_it->second.dirty) {
        break;  // already-dirty ancestor implies the rest are dirty too
      }
      anc_it->second.dirty = true;
    }
  }
}

void EconomicalHasher::Forget(storage::ObjectId id) { cache_.erase(id); }

Result<crypto::Digest> EconomicalHasher::CachedDigest(
    storage::ObjectId id) const {
  auto it = cache_.find(id);
  if (it == cache_.end() || it->second.dirty) {
    return Status::NotFound("no clean cached digest for object " +
                            std::to_string(id));
  }
  return it->second.digest;
}

}  // namespace provdb::provenance
