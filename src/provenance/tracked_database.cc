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

Result<crypto::Digest> TrackedDatabase::ComputeHash(
    storage::ObjectId id, OperationMetrics* metrics,
    std::unordered_map<storage::ObjectId, crypto::Digest>* digests) {
  Stopwatch watch;
  Result<crypto::Digest> result = Status::Internal("unreachable");
  uint64_t nodes_before;
  if (options_.hashing_mode == HashingMode::kBasic) {
    nodes_before = basic_hasher_.nodes_hashed();
    result = basic_hasher_.HashSubtreeBasicInto(id, digests);
    metrics->nodes_hashed += basic_hasher_.nodes_hashed() - nodes_before;
  } else {
    nodes_before = economical_hasher_.nodes_hashed();
    result = economical_hasher_.HashSubtree(id);
    metrics->nodes_hashed += economical_hasher_.nodes_hashed() - nodes_before;
  }
  metrics->hash_seconds += watch.ElapsedSeconds();
  return result;
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
// Primitive operations: each body runs inside a complex operation

Status TrackedDatabase::RunPrimitive(const crypto::Participant& p,
                                     const std::function<Status()>& body) {
  if (complex_ != nullptr) {
    if (complex_->participant->id() != p.id()) {
      return Status::FailedPrecondition(
          "complex operation belongs to another participant");
    }
    return body();
  }
  PROVDB_RETURN_IF_ERROR(BeginComplexOperation(p));
  Status done = body();
  if (!done.ok()) {
    // A body fails before it mutates the tree: there is nothing to record.
    complex_.reset();
    return done;
  }
  return EndComplexOperation();
}

void TrackedDatabase::MarkChanged(storage::ObjectId id) {
  InvalidatePath(id);
  complex_->direct.insert(id);
  complex_->touched.insert(id);
  for (storage::ObjectId anc : tree_.AncestorsOf(id)) {
    complex_->touched.insert(anc);
  }
}

Result<storage::ObjectId> TrackedDatabase::Insert(const crypto::Participant& p,
                                                  const storage::Value& value,
                                                  storage::ObjectId parent) {
  storage::ObjectId id = storage::kInvalidObjectId;
  Status done = RunPrimitive(p, [&]() -> Status {
    if (parent != storage::kInvalidObjectId) {
      PROVDB_RETURN_IF_ERROR(tree_.GetNode(parent).status());
      PROVDB_RETURN_IF_ERROR(CapturePreHashes(parent));
    }
    PROVDB_ASSIGN_OR_RETURN(id, tree_.Insert(value, parent));
    complex_->inserted.insert(id);
    MarkChanged(id);
    return Status::OK();
  });
  if (!done.ok()) {
    return done;
  }
  return id;
}

Status TrackedDatabase::Update(const crypto::Participant& p,
                               storage::ObjectId id,
                               const storage::Value& value) {
  return RunPrimitive(p, [&]() -> Status {
    PROVDB_RETURN_IF_ERROR(tree_.GetNode(id).status());
    PROVDB_RETURN_IF_ERROR(CapturePreHashes(id));
    PROVDB_RETURN_IF_ERROR(tree_.Update(id, value));
    MarkChanged(id);
    return Status::OK();
  });
}

Status TrackedDatabase::Delete(const crypto::Participant& p,
                               storage::ObjectId id) {
  return RunPrimitive(p, [&]() -> Status {
    PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node, tree_.GetNode(id));
    if (!node->is_leaf()) {
      return Status::FailedPrecondition(
          "only leaf objects can be deleted by the primitive Delete");
    }
    // The deleted object gets no record, so only its ancestors' input
    // states are needed: a root-level leaf is deleted without hashing.
    const storage::ObjectId parent = node->parent;
    if (parent != storage::kInvalidObjectId) {
      PROVDB_RETURN_IF_ERROR(CapturePreHashes(parent));
    }
    std::vector<storage::ObjectId> ancestors = tree_.AncestorsOf(id);
    PROVDB_RETURN_IF_ERROR(tree_.Delete(id));
    economical_hasher_.Forget(id);  // Basic mode leaves its cache empty
    if (parent != storage::kInvalidObjectId) {
      InvalidatePath(parent);
    }
    complex_->deleted.insert(id);
    complex_->inserted.erase(id);
    complex_->touched.erase(id);
    complex_->direct.erase(id);
    complex_->touched.insert(ancestors.begin(), ancestors.end());
    return Status::OK();
  });
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
  ComplexState& state = *complex_;
  std::vector<storage::ObjectId> targets = tree_.AncestorsOf(id);
  targets.insert(targets.begin(), id);
  auto captured = [&state](storage::ObjectId t) {
    return state.pre_hashes.count(t) > 0 || state.inserted.count(t) > 0;
  };

  if (options_.hashing_mode == HashingMode::kBasic) {
    PROVDB_ASSIGN_OR_RETURN(storage::ObjectId root, tree_.RootOf(id));
    if (state.basic_pre_walked_roots.insert(root).second) {
      // First touch of this tree: one full input walk (§4.3's Basic cost).
      PROVDB_RETURN_IF_ERROR(
          ComputeHash(root, &state.metrics, &state.basic_pre_pool).status());
    }
    for (storage::ObjectId t : targets) {
      auto it = state.basic_pre_pool.find(t);
      if (!captured(t) && it != state.basic_pre_pool.end()) {
        state.pre_hashes.emplace(t, it->second);
      }
    }
    return Status::OK();
  }

  for (storage::ObjectId t : targets) {
    if (!captured(t)) {
      PROVDB_ASSIGN_OR_RETURN(crypto::Digest d, ComputeHash(t, &state.metrics));
      state.pre_hashes.emplace(t, d);
    }
  }
  return Status::OK();
}

Status TrackedDatabase::EndComplexOperation() {
  if (complex_ == nullptr) {
    return Status::FailedPrecondition("no complex operation in progress");
  }
  // Closed before anything is submitted: an operation whose record is
  // refused must not stay open for the next primitive to join.
  const std::unique_ptr<ComplexState> closed = std::move(complex_);
  ComplexState& state = *closed;

  // The record set: every surviving touched or inserted object, deepest
  // first, so the actual records precede the inherited ones they cause,
  // mirroring the conceptual §4.2 collection order.
  std::vector<std::pair<size_t, storage::ObjectId>> keyed;
  std::set<storage::ObjectId> roots;
  for (storage::ObjectId id : state.touched) {
    if (state.deleted.count(id) > 0 || !tree_.Contains(id)) {
      continue;
    }
    PROVDB_ASSIGN_OR_RETURN(size_t depth, tree_.DepthOf(id));
    keyed.emplace_back(depth, id);
    PROVDB_ASSIGN_OR_RETURN(storage::ObjectId root, tree_.RootOf(id));
    roots.insert(root);
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // Output-state hashes: refresh each affected tree once, then read off.
  std::unordered_map<storage::ObjectId, crypto::Digest> post;
  for (storage::ObjectId root : roots) {
    PROVDB_RETURN_IF_ERROR(ComputeHash(root, &state.metrics, &post).status());
  }
  if (options_.hashing_mode == HashingMode::kEconomical) {
    for (const auto& [depth, id] : keyed) {
      PROVDB_ASSIGN_OR_RETURN(post[id], economical_hasher_.CachedDigest(id));
    }
  }

  for (const auto& [depth, id] : keyed) {
    const bool is_direct = state.direct.count(id) > 0;
    // Inserted objects have no input state: capture skips them.
    auto pre_it = state.pre_hashes.find(id);
    const crypto::Digest* pre =
        pre_it != state.pre_hashes.end() ? &pre_it->second : nullptr;
    const storage::Value* snapshot = nullptr;
    if (is_direct && options_.store_value_snapshots) {
      PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node,
                              tree_.GetNode(id));
      snapshot = &node->value;
    }
    PROVDB_RETURN_IF_ERROR(EmitRecord(
        *state.participant,
        state.inserted.count(id) > 0 ? OperationType::kInsert
                                     : OperationType::kUpdate,
        /*inherited=*/!is_direct, id, pre, post.at(id), snapshot));
  }
  return FinishOperation(state.metrics);
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
