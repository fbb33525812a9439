#include "provenance/tracked_database.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"

namespace provdb::provenance {

std::string_view HashingModeName(HashingMode mode) {
  switch (mode) {
    case HashingMode::kBasic:
      return "basic";
    case HashingMode::kEconomical:
      return "economical";
  }
  return "unknown";
}

void OperationMetrics::Accumulate(const OperationMetrics& other) {
  hash_seconds += other.hash_seconds;
  sign_seconds += other.sign_seconds;
  store_seconds += other.store_seconds;
  checksums += other.checksums;
  nodes_hashed += other.nodes_hashed;
}

namespace {

std::unique_ptr<IngestPipeline> OpenOwnedPipeline(
    crypto::HashAlgorithm hash_algorithm) {
  IngestOptions options;
  options.hash_algorithm = hash_algorithm;
  // One batch per operation: every operation drains at its end, and a
  // threshold flush inside it would only publish part of the operation
  // (and costs tracked_mixed throughput, docs/BENCHMARKS.md).
  options.max_batch_records = std::numeric_limits<size_t>::max();
  options.max_batch_bytes = std::numeric_limits<uint64_t>::max();
  // One shard, sequential signing, no checkpoint policy: OpenInMemory
  // cannot refuse these options.
  return IngestPipeline::OpenInMemory(options).value();
}

}  // namespace

TrackedDatabase::TrackedDatabase(TrackedDatabaseOptions options)
    : TrackedDatabase(options, OpenOwnedPipeline(options.hash_algorithm),
                      nullptr) {}

TrackedDatabase::TrackedDatabase(
    TrackedDatabaseOptions options,
    std::unique_ptr<IngestPipeline> owned_pipeline, IngestPipeline* pipeline)
    : options_(options),
      owned_pipeline_(std::move(owned_pipeline)),
      pipeline_(owned_pipeline_ != nullptr ? owned_pipeline_.get()
                                           : pipeline),
      store_(&pipeline_->mutable_store()->shard(0)),
      basic_hasher_(&tree_, options.hash_algorithm),
      economical_hasher_(&tree_, options.hash_algorithm),
      finished_(Totals()) {}

Result<std::unique_ptr<TrackedDatabase>> TrackedDatabase::Open(
    IngestPipeline* pipeline, TrackedDatabaseOptions options) {
  if (pipeline->options().num_shards != 1) {
    return Status::InvalidArgument(
        "TrackedDatabase needs a one-shard ingest pipeline");
  }
  if (pipeline->options().hash_algorithm != options.hash_algorithm) {
    return Status::InvalidArgument(
        "the ingest pipeline's hash algorithm differs from the database's");
  }
  return std::unique_ptr<TrackedDatabase>(
      new TrackedDatabase(options, nullptr, pipeline));
}

storage::TreeStore& TrackedDatabase::bootstrap_tree() { return tree_; }

Result<crypto::Digest> TrackedDatabase::ComputeHash(storage::ObjectId id,
                                                    OperationMetrics* metrics) {
  Stopwatch watch;
  Result<crypto::Digest> result = Status::Internal("unreachable");
  uint64_t nodes_before;
  if (options_.hashing_mode == HashingMode::kBasic) {
    nodes_before = basic_hasher_.nodes_hashed();
    result = basic_hasher_.HashSubtreeBasic(id);
    metrics->nodes_hashed += basic_hasher_.nodes_hashed() - nodes_before;
  } else {
    nodes_before = economical_hasher_.nodes_hashed();
    result = economical_hasher_.HashSubtree(id);
    metrics->nodes_hashed += economical_hasher_.nodes_hashed() - nodes_before;
  }
  metrics->hash_seconds += watch.ElapsedSeconds();
  return result;
}

Status TrackedDatabase::ComputeAllHashes(
    storage::ObjectId root,
    std::unordered_map<storage::ObjectId, crypto::Digest>* out,
    OperationMetrics* metrics) {
  Stopwatch watch;
  struct Frame {
    storage::ObjectId id;
    size_t next_child = 0;
    std::vector<crypto::Digest> child_hashes;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0, {}});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node,
                            tree_.GetNode(frame.id));
    if (frame.next_child < node->children.size()) {
      stack.push_back({node->children[frame.next_child++], 0, {}});
      continue;
    }
    crypto::Digest digest =
        basic_hasher_.HashNode(node->id, node->value, frame.child_hashes);
    ++metrics->nodes_hashed;
    (*out)[frame.id] = digest;
    stack.pop_back();
    if (!stack.empty()) {
      stack.back().child_hashes.push_back(digest);
    }
  }
  metrics->hash_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

void TrackedDatabase::InvalidatePath(storage::ObjectId id) {
  if (options_.hashing_mode == HashingMode::kEconomical) {
    economical_hasher_.Invalidate(id);
  }
}

Status TrackedDatabase::EmitRecord(const crypto::Participant& p,
                                   OperationType op, bool inherited,
                                   storage::ObjectId id,
                                   const crypto::Digest* pre_hash,
                                   const crypto::Digest& post_hash,
                                   const storage::Value* snapshot) {
  IngestRequest request;
  request.op = op;
  request.object = id;
  request.post_hash = post_hash;
  if (pre_hash != nullptr) {
    request.has_pre_hash = true;
    request.pre_hash = *pre_hash;
  }
  request.inherited = inherited;
  if (snapshot != nullptr) {
    request.has_output_snapshot = true;
    request.output_snapshot = *snapshot;
  }
  request.participant = &p;
  return Submit(request);
}

Status TrackedDatabase::Submit(const IngestRequest& request) {
  Status submitted = pipeline_->Submit(request);
  if (!submitted.ok()) {
    // The operation fails here, but the records it already submitted
    // stand: they commit now, not with the next operation. The drain's
    // own status adds nothing — on a poisoned pipeline it is the poison
    // the submit returned.
    (void)pipeline_->Drain();
  }
  return submitted;
}

// ---------------------------------------------------------------------
// Primitive operations

Result<storage::ObjectId> TrackedDatabase::Insert(const crypto::Participant& p,
                                                  const storage::Value& value,
                                                  storage::ObjectId parent) {
  if (complex_ != nullptr) {
    if (complex_->participant->id() != p.id()) {
      return Status::FailedPrecondition(
          "complex operation belongs to another participant");
    }
    if (parent != storage::kInvalidObjectId) {
      PROVDB_RETURN_IF_ERROR(CapturePreHashes(parent));
    }
    PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id, tree_.Insert(value, parent));
    InvalidatePath(id);
    complex_->inserted.insert(id);
    complex_->touched.insert(id);
    complex_->direct.insert(id);
    for (storage::ObjectId anc : tree_.AncestorsOf(id)) {
      complex_->touched.insert(anc);
    }
    return id;
  }

  OperationMetrics metrics;
  std::vector<storage::ObjectId> ancestors;
  std::vector<crypto::Digest> ancestor_pre;
  if (parent != storage::kInvalidObjectId) {
    PROVDB_RETURN_IF_ERROR(tree_.GetNode(parent).status());
    ancestors.push_back(parent);
    for (storage::ObjectId anc : tree_.AncestorsOf(parent)) {
      ancestors.push_back(anc);
    }
    if (options_.hashing_mode == HashingMode::kBasic) {
      std::unordered_map<storage::ObjectId, crypto::Digest> all;
      PROVDB_RETURN_IF_ERROR(
          ComputeAllHashes(ancestors.back(), &all, &metrics));
      for (storage::ObjectId anc : ancestors) {
        ancestor_pre.push_back(all.at(anc));
      }
    } else {
      for (storage::ObjectId anc : ancestors) {
        PROVDB_ASSIGN_OR_RETURN(crypto::Digest d, ComputeHash(anc, &metrics));
        ancestor_pre.push_back(d);
      }
    }
  }

  PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id, tree_.Insert(value, parent));
  InvalidatePath(id);

  // Post-state hashes: the new object and every ancestor.
  crypto::Digest self_post;
  std::vector<crypto::Digest> ancestor_post(ancestors.size());
  if (options_.hashing_mode == HashingMode::kBasic && !ancestors.empty()) {
    std::unordered_map<storage::ObjectId, crypto::Digest> all;
    PROVDB_RETURN_IF_ERROR(ComputeAllHashes(ancestors.back(), &all, &metrics));
    self_post = all.at(id);
    for (size_t i = 0; i < ancestors.size(); ++i) {
      ancestor_post[i] = all.at(ancestors[i]);
    }
  } else {
    PROVDB_ASSIGN_OR_RETURN(self_post, ComputeHash(id, &metrics));
    for (size_t i = 0; i < ancestors.size(); ++i) {
      PROVDB_ASSIGN_OR_RETURN(ancestor_post[i],
                              ComputeHash(ancestors[i], &metrics));
    }
  }

  const storage::Value* snapshot =
      options_.store_value_snapshots ? &value : nullptr;
  PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kInsert,
                                    /*inherited=*/false, id, nullptr,
                                    self_post, snapshot));
  for (size_t i = 0; i < ancestors.size(); ++i) {
    PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kUpdate,
                                      /*inherited=*/true, ancestors[i],
                                      &ancestor_pre[i], ancestor_post[i],
                                      nullptr));
  }
  PROVDB_RETURN_IF_ERROR(FinishOperation(metrics));
  return id;
}

Status TrackedDatabase::Update(const crypto::Participant& p,
                               storage::ObjectId id,
                               const storage::Value& value) {
  PROVDB_RETURN_IF_ERROR(tree_.GetNode(id).status());
  if (complex_ != nullptr) {
    if (complex_->participant->id() != p.id()) {
      return Status::FailedPrecondition(
          "complex operation belongs to another participant");
    }
    PROVDB_RETURN_IF_ERROR(CapturePreHashes(id));
    PROVDB_RETURN_IF_ERROR(tree_.Update(id, value));
    InvalidatePath(id);
    complex_->touched.insert(id);
    complex_->direct.insert(id);
    for (storage::ObjectId anc : tree_.AncestorsOf(id)) {
      complex_->touched.insert(anc);
    }
    return Status::OK();
  }

  OperationMetrics metrics;
  std::vector<storage::ObjectId> ancestors = tree_.AncestorsOf(id);

  crypto::Digest self_pre;
  std::vector<crypto::Digest> ancestor_pre(ancestors.size());
  PROVDB_ASSIGN_OR_RETURN(storage::ObjectId tree_root, tree_.RootOf(id));
  if (options_.hashing_mode == HashingMode::kBasic) {
    std::unordered_map<storage::ObjectId, crypto::Digest> all;
    PROVDB_RETURN_IF_ERROR(ComputeAllHashes(tree_root, &all, &metrics));
    self_pre = all.at(id);
    for (size_t i = 0; i < ancestors.size(); ++i) {
      ancestor_pre[i] = all.at(ancestors[i]);
    }
  } else {
    // Hash the whole tree once (mostly cache hits when warm), then read
    // the needed digests.
    PROVDB_RETURN_IF_ERROR(ComputeHash(tree_root, &metrics).status());
    PROVDB_ASSIGN_OR_RETURN(self_pre, economical_hasher_.CachedDigest(id));
    for (size_t i = 0; i < ancestors.size(); ++i) {
      PROVDB_ASSIGN_OR_RETURN(ancestor_pre[i],
                              economical_hasher_.CachedDigest(ancestors[i]));
    }
  }

  PROVDB_RETURN_IF_ERROR(tree_.Update(id, value));
  InvalidatePath(id);

  crypto::Digest self_post;
  std::vector<crypto::Digest> ancestor_post(ancestors.size());
  if (options_.hashing_mode == HashingMode::kBasic) {
    std::unordered_map<storage::ObjectId, crypto::Digest> all;
    PROVDB_RETURN_IF_ERROR(ComputeAllHashes(tree_root, &all, &metrics));
    self_post = all.at(id);
    for (size_t i = 0; i < ancestors.size(); ++i) {
      ancestor_post[i] = all.at(ancestors[i]);
    }
  } else {
    PROVDB_RETURN_IF_ERROR(ComputeHash(tree_root, &metrics).status());
    PROVDB_ASSIGN_OR_RETURN(self_post, economical_hasher_.CachedDigest(id));
    for (size_t i = 0; i < ancestors.size(); ++i) {
      PROVDB_ASSIGN_OR_RETURN(ancestor_post[i],
                              economical_hasher_.CachedDigest(ancestors[i]));
    }
  }

  const storage::Value* snapshot =
      options_.store_value_snapshots ? &value : nullptr;
  PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kUpdate,
                                    /*inherited=*/false, id, &self_pre,
                                    self_post, snapshot));
  for (size_t i = 0; i < ancestors.size(); ++i) {
    PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kUpdate,
                                      /*inherited=*/true, ancestors[i],
                                      &ancestor_pre[i], ancestor_post[i],
                                      nullptr));
  }
  return FinishOperation(metrics);
}

Status TrackedDatabase::Delete(const crypto::Participant& p,
                               storage::ObjectId id) {
  PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node, tree_.GetNode(id));
  if (!node->is_leaf()) {
    return Status::FailedPrecondition(
        "only leaf objects can be deleted by the primitive Delete");
  }
  if (complex_ != nullptr) {
    if (complex_->participant->id() != p.id()) {
      return Status::FailedPrecondition(
          "complex operation belongs to another participant");
    }
    PROVDB_RETURN_IF_ERROR(CapturePreHashes(id));
    storage::ObjectId parent = node->parent;
    std::vector<storage::ObjectId> ancestors = tree_.AncestorsOf(id);
    PROVDB_RETURN_IF_ERROR(tree_.Delete(id));
    if (options_.hashing_mode == HashingMode::kEconomical) {
      economical_hasher_.Forget(id);
      if (parent != storage::kInvalidObjectId) {
        economical_hasher_.Invalidate(parent);
      }
    }
    complex_->deleted.insert(id);
    complex_->inserted.erase(id);
    complex_->touched.erase(id);
    complex_->direct.erase(id);
    for (storage::ObjectId anc : ancestors) {
      complex_->touched.insert(anc);
    }
    return Status::OK();
  }

  OperationMetrics metrics;
  std::vector<storage::ObjectId> ancestors = tree_.AncestorsOf(id);
  storage::ObjectId parent = node->parent;

  std::vector<crypto::Digest> ancestor_pre(ancestors.size());
  if (!ancestors.empty()) {
    if (options_.hashing_mode == HashingMode::kBasic) {
      std::unordered_map<storage::ObjectId, crypto::Digest> all;
      PROVDB_RETURN_IF_ERROR(
          ComputeAllHashes(ancestors.back(), &all, &metrics));
      for (size_t i = 0; i < ancestors.size(); ++i) {
        ancestor_pre[i] = all.at(ancestors[i]);
      }
    } else {
      PROVDB_RETURN_IF_ERROR(
          ComputeHash(ancestors.back(), &metrics).status());
      for (size_t i = 0; i < ancestors.size(); ++i) {
        PROVDB_ASSIGN_OR_RETURN(ancestor_pre[i],
                                economical_hasher_.CachedDigest(ancestors[i]));
      }
    }
  }

  PROVDB_RETURN_IF_ERROR(tree_.Delete(id));
  if (options_.hashing_mode == HashingMode::kEconomical) {
    economical_hasher_.Forget(id);
    if (parent != storage::kInvalidObjectId) {
      economical_hasher_.Invalidate(parent);
    }
  }

  std::vector<crypto::Digest> ancestor_post(ancestors.size());
  if (!ancestors.empty()) {
    if (options_.hashing_mode == HashingMode::kBasic) {
      std::unordered_map<storage::ObjectId, crypto::Digest> all;
      PROVDB_RETURN_IF_ERROR(
          ComputeAllHashes(ancestors.back(), &all, &metrics));
      for (size_t i = 0; i < ancestors.size(); ++i) {
        ancestor_post[i] = all.at(ancestors[i]);
      }
    } else {
      PROVDB_RETURN_IF_ERROR(
          ComputeHash(ancestors.back(), &metrics).status());
      for (size_t i = 0; i < ancestors.size(); ++i) {
        PROVDB_ASSIGN_OR_RETURN(ancestor_post[i],
                                economical_hasher_.CachedDigest(ancestors[i]));
      }
    }
  }

  for (size_t i = 0; i < ancestors.size(); ++i) {
    PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kUpdate,
                                      /*inherited=*/true, ancestors[i],
                                      &ancestor_pre[i], ancestor_post[i],
                                      nullptr));
  }
  return FinishOperation(metrics);
}

Result<storage::ObjectId> TrackedDatabase::Aggregate(
    const crypto::Participant& p,
    const std::vector<storage::ObjectId>& inputs,
    const storage::Value& root_value) {
  if (complex_ != nullptr) {
    return Status::FailedPrecondition(
        "Aggregate is not allowed inside a complex operation");
  }
  if (inputs.empty()) {
    return Status::InvalidArgument("aggregate requires at least one input");
  }
  OperationMetrics metrics;

  // Sort inputs into the global total order (required by the checksum
  // formula, §3).
  std::vector<storage::ObjectId> sorted_inputs = inputs;
  std::sort(sorted_inputs.begin(), sorted_inputs.end());
  sorted_inputs.erase(
      std::unique(sorted_inputs.begin(), sorted_inputs.end()),
      sorted_inputs.end());

  IngestRequest request;
  request.op = OperationType::kAggregate;
  SeqId max_seq = 0;
  for (storage::ObjectId in : sorted_inputs) {
    PROVDB_RETURN_IF_ERROR(tree_.GetNode(in).status());
    PROVDB_ASSIGN_OR_RETURN(crypto::Digest h, ComputeHash(in, &metrics));
    request.inputs.push_back(ObjectState{in, h});
    // The store is exact here: it has one shard, and every operation
    // drained its records into it. Untracked inputs have no checksum.
    Result<const ProvenanceRecord*> latest = store_->LatestFor(in);
    request.input_prev_checksums.push_back(
        latest.ok() ? (*latest)->checksum : Bytes());
    if (latest.ok() && (*latest)->seq_id > max_seq) {
      max_seq = (*latest)->seq_id;
    }
  }

  PROVDB_ASSIGN_OR_RETURN(storage::ObjectId out_id,
                          tree_.Aggregate(sorted_inputs, root_value));
  PROVDB_ASSIGN_OR_RETURN(request.post_hash, ComputeHash(out_id, &metrics));
  request.object = out_id;
  request.aggregate_seq = max_seq + 1;
  request.participant = &p;
  PROVDB_RETURN_IF_ERROR(Submit(request));
  PROVDB_RETURN_IF_ERROR(FinishOperation(metrics));
  return out_id;
}

// ---------------------------------------------------------------------
// Complex operations

Status TrackedDatabase::BeginComplexOperation(const crypto::Participant& p) {
  if (complex_ != nullptr) {
    return Status::FailedPrecondition(
        "a complex operation is already in progress");
  }
  complex_ = std::make_unique<ComplexState>();
  complex_->participant = &p;
  return Status::OK();
}

Status TrackedDatabase::CapturePreHashes(storage::ObjectId id) {
  std::vector<storage::ObjectId> targets;
  targets.push_back(id);
  for (storage::ObjectId anc : tree_.AncestorsOf(id)) {
    targets.push_back(anc);
  }

  if (options_.hashing_mode == HashingMode::kBasic) {
    PROVDB_ASSIGN_OR_RETURN(storage::ObjectId root, tree_.RootOf(id));
    if (complex_->basic_pre_walked_roots.insert(root).second) {
      // First touch of this tree: one full input walk (§4.3's Basic cost).
      PROVDB_RETURN_IF_ERROR(ComputeAllHashes(
          root, &complex_->basic_pre_pool, &complex_->metrics));
    }
    for (storage::ObjectId t : targets) {
      if (complex_->pre_hashes.count(t) > 0 ||
          complex_->inserted.count(t) > 0) {
        continue;
      }
      auto it = complex_->basic_pre_pool.find(t);
      if (it != complex_->basic_pre_pool.end()) {
        complex_->pre_hashes.emplace(t, it->second);
      }
    }
    return Status::OK();
  }

  for (storage::ObjectId t : targets) {
    if (complex_->pre_hashes.count(t) > 0 || complex_->inserted.count(t) > 0) {
      continue;
    }
    PROVDB_ASSIGN_OR_RETURN(crypto::Digest d,
                            ComputeHash(t, &complex_->metrics));
    complex_->pre_hashes.emplace(t, d);
  }
  return Status::OK();
}

Status TrackedDatabase::EndComplexOperation() {
  if (complex_ == nullptr) {
    return Status::FailedPrecondition("no complex operation in progress");
  }
  ComplexState& state = *complex_;
  const crypto::Participant& p = *state.participant;

  // The record set: every surviving touched or inserted object.
  std::vector<storage::ObjectId> subjects;
  for (storage::ObjectId id : state.touched) {
    if (state.deleted.count(id) == 0 && tree_.Contains(id)) {
      subjects.push_back(id);
    }
  }

  // Deepest objects first: the actual records precede the inherited ones
  // they cause, mirroring the conceptual §4.2 collection order.
  std::vector<std::pair<size_t, storage::ObjectId>> keyed;
  keyed.reserve(subjects.size());
  for (storage::ObjectId id : subjects) {
    PROVDB_ASSIGN_OR_RETURN(size_t depth, tree_.DepthOf(id));
    keyed.emplace_back(depth, id);
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // Output-state hashes: refresh each affected tree once, then read off.
  std::unordered_map<storage::ObjectId, crypto::Digest> post;
  if (options_.hashing_mode == HashingMode::kBasic) {
    std::set<storage::ObjectId> roots;
    for (const auto& [depth, id] : keyed) {
      PROVDB_ASSIGN_OR_RETURN(storage::ObjectId root, tree_.RootOf(id));
      roots.insert(root);
    }
    for (storage::ObjectId root : roots) {
      PROVDB_RETURN_IF_ERROR(ComputeAllHashes(root, &post, &state.metrics));
    }
  } else {
    std::set<storage::ObjectId> roots;
    for (const auto& [depth, id] : keyed) {
      PROVDB_ASSIGN_OR_RETURN(storage::ObjectId root, tree_.RootOf(id));
      roots.insert(root);
    }
    for (storage::ObjectId root : roots) {
      PROVDB_RETURN_IF_ERROR(ComputeHash(root, &state.metrics).status());
    }
    for (const auto& [depth, id] : keyed) {
      PROVDB_ASSIGN_OR_RETURN(crypto::Digest d,
                              economical_hasher_.CachedDigest(id));
      post.emplace(id, d);
    }
  }

  for (const auto& [depth, id] : keyed) {
    bool was_inserted = state.inserted.count(id) > 0;
    bool is_direct = state.direct.count(id) > 0;
    const crypto::Digest& post_hash = post.at(id);
    if (was_inserted) {
      PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kInsert,
                                        /*inherited=*/!is_direct, id, nullptr,
                                        post_hash, nullptr));
    } else {
      auto pre_it = state.pre_hashes.find(id);
      const crypto::Digest* pre =
          pre_it != state.pre_hashes.end() ? &pre_it->second : nullptr;
      PROVDB_RETURN_IF_ERROR(EmitRecord(p, OperationType::kUpdate,
                                        /*inherited=*/!is_direct, id, pre,
                                        post_hash, nullptr));
    }
  }

  OperationMetrics metrics = state.metrics;
  complex_.reset();
  return FinishOperation(metrics);
}

// ---------------------------------------------------------------------
// Introspection

Result<crypto::Digest> TrackedDatabase::CurrentHash(storage::ObjectId id) {
  OperationMetrics scratch;
  return ComputeHash(id, &scratch);
}

Result<RecipientBundle> TrackedDatabase::ExportForRecipient(
    storage::ObjectId id) {
  if (complex_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot export during a complex operation");
  }
  RecipientBundle bundle;
  bundle.subject = id;
  PROVDB_ASSIGN_OR_RETURN(bundle.data, SubtreeSnapshot::Capture(tree_, id));
  PROVDB_ASSIGN_OR_RETURN(bundle.records,
                          provenance().ExtractProvenance(id));
  return bundle;
}

Result<RecipientBundle> TrackedDatabase::ExportForRecipientDeep(
    storage::ObjectId id) {
  if (complex_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot export during a complex operation");
  }
  RecipientBundle bundle;
  bundle.subject = id;
  PROVDB_ASSIGN_OR_RETURN(bundle.data, SubtreeSnapshot::Capture(tree_, id));
  std::vector<storage::ObjectId> descendants;
  for (const SubtreeSnapshot::Node& node : bundle.data.nodes()) {
    if (node.id != id) {
      descendants.push_back(node.id);
    }
  }
  PROVDB_ASSIGN_OR_RETURN(bundle.records,
                          provenance().ExtractProvenanceDeep(id, descendants));
  return bundle;
}

TrackedDatabase::PipelineTotals TrackedDatabase::Totals() const {
  return PipelineTotals{pipeline_->committed(), pipeline_->sign_seconds(),
                        pipeline_->store_seconds()};
}

Status TrackedDatabase::FinishOperation(OperationMetrics metrics) {
  PROVDB_RETURN_IF_ERROR(pipeline_->Drain());
  const PipelineTotals now = Totals();
  metrics.sign_seconds += now.sign_seconds - finished_.sign_seconds;
  metrics.store_seconds += now.store_seconds - finished_.store_seconds;
  metrics.checksums += now.committed - finished_.committed;
  finished_ = now;
  last_metrics_ = metrics;
  cumulative_metrics_.Accumulate(metrics);
  return Status::OK();
}

StoreSnapshot TrackedDatabase::OpenSnapshot() {
  pipeline_->mutable_store()->PublishAll();
  return pipeline_->OpenSnapshot();
}

void TrackedDatabase::ResetMetrics() {
  last_metrics_ = OperationMetrics{};
  cumulative_metrics_ = OperationMetrics{};
}

}  // namespace provdb::provenance
