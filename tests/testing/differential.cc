#include "testing/differential.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "provenance/serialization.h"
#include "provenance/snapshot.h"
#include "provenance/verifier.h"

namespace provdb::testing {

using provenance::BuildSignedIngestRecord;
using provenance::IngestRequest;
using provenance::ObjectState;
using provenance::OperationType;
using provenance::ProvenanceRecord;

IngestWorkloadBuilder::IngestWorkloadBuilder(crypto::HashAlgorithm alg)
    : alg_(alg),
      pki_(&TestPki::InstanceFor(alg)),
      engine_(alg),
      hasher_(&tree_, alg) {}

Status IngestWorkloadBuilder::Apply(IngestRequest request) {
  PROVDB_ASSIGN_OR_RETURN(
      ProvenanceRecord record,
      BuildSignedIngestRecord(engine_, chains_.Get(request.object), request));
  const storage::ObjectId id = record.output.object_id;
  const provenance::SeqId seq = record.seq_id;
  Bytes checksum = record.checksum;
  PROVDB_RETURN_IF_ERROR(
      reference_.shard(0).AddRecord(std::move(record)).status());
  chains_.Set(id, seq, std::move(checksum));
  requests_.push_back(std::move(request));
  return Status::OK();
}

Result<storage::ObjectId> IngestWorkloadBuilder::Insert(
    size_t participant_idx, const storage::Value& value) {
  PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id, tree_.Insert(value));
  PROVDB_ASSIGN_OR_RETURN(crypto::Digest hash, hasher_.HashSubtreeBasic(id));
  IngestRequest request;
  request.op = OperationType::kInsert;
  request.object = id;
  request.post_hash = hash;
  request.participant = &pki_->participant(participant_idx);
  PROVDB_RETURN_IF_ERROR(Apply(std::move(request)));
  tracked_.push_back(id);
  return id;
}

Result<storage::ObjectId> IngestWorkloadBuilder::AddBootstrapObject(
    const storage::Value& value) {
  return tree_.Insert(value);
}

Status IngestWorkloadBuilder::Update(storage::ObjectId id,
                                     size_t participant_idx,
                                     const storage::Value& value) {
  const bool first_record = !chains_.Get(id).exists;
  PROVDB_ASSIGN_OR_RETURN(crypto::Digest pre, hasher_.HashSubtreeBasic(id));
  PROVDB_RETURN_IF_ERROR(tree_.Update(id, value));
  PROVDB_ASSIGN_OR_RETURN(crypto::Digest post, hasher_.HashSubtreeBasic(id));
  IngestRequest request;
  request.op = OperationType::kUpdate;
  request.object = id;
  request.has_pre_hash = true;
  request.pre_hash = pre;
  request.post_hash = post;
  request.participant = &pki_->participant(participant_idx);
  PROVDB_RETURN_IF_ERROR(Apply(std::move(request)));
  if (first_record) {
    tracked_.push_back(id);
  }
  return Status::OK();
}

Result<storage::ObjectId> IngestWorkloadBuilder::Aggregate(
    const std::vector<storage::ObjectId>& inputs, size_t participant_idx,
    const storage::Value& root_value) {
  if (inputs.empty()) {
    return Status::InvalidArgument("aggregate requires at least one input");
  }
  std::vector<storage::ObjectId> sorted = inputs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  IngestRequest request;
  request.op = OperationType::kAggregate;
  provenance::SeqId max_seq = 0;
  for (storage::ObjectId in : sorted) {
    PROVDB_RETURN_IF_ERROR(tree_.GetNode(in).status());
    PROVDB_ASSIGN_OR_RETURN(crypto::Digest h, hasher_.HashSubtreeBasic(in));
    request.inputs.push_back(ObjectState{in, h});
    provenance::LocalChainState::Tail tail = chains_.Get(in);
    request.input_prev_checksums.push_back(tail.checksum);
    if (tail.exists && tail.seq_id > max_seq) {
      max_seq = tail.seq_id;
    }
  }
  PROVDB_ASSIGN_OR_RETURN(storage::ObjectId out_id,
                          tree_.Aggregate(sorted, root_value));
  PROVDB_ASSIGN_OR_RETURN(crypto::Digest out_hash,
                          hasher_.HashSubtreeBasic(out_id));
  request.object = out_id;
  request.post_hash = out_hash;
  request.aggregate_seq = max_seq + 1;
  request.participant = &pki_->participant(participant_idx);
  PROVDB_RETURN_IF_ERROR(Apply(std::move(request)));
  tracked_.push_back(out_id);
  return out_id;
}

Status RandomDifferentialWorkload(IngestWorkloadBuilder* builder,
                                  uint64_t seed,
                                  const DifferentialWorkloadOptions& options) {
  Rng rng(seed);
  const size_t participants = TestPki::kNumParticipants;

  auto random_value = [&]() -> storage::Value {
    switch (rng.NextBelow(3)) {
      case 0:
        return storage::Value::Int(rng.NextInRange(-1000, 1000));
      case 1:
        return storage::Value::String(rng.NextString(1 + rng.NextBelow(12)));
      default: {
        Bytes blob;
        rng.NextBytes(&blob, 1 + rng.NextBelow(16));
        return storage::Value::Blob(std::move(blob));
      }
    }
  };

  // Objects eligible as update victims / aggregate inputs, in creation
  // order. A quadratically-skewed pick keeps early objects hot, so long
  // chains (and thus cross-batch chain continuation) actually occur.
  std::vector<storage::ObjectId> live;
  auto skewed_pick = [&]() -> storage::ObjectId {
    double d = rng.NextDouble();
    size_t idx = static_cast<size_t>(d * d * static_cast<double>(live.size()));
    if (idx >= live.size()) idx = live.size() - 1;
    return live[idx];
  };

  for (size_t i = 0; i < options.bootstrap_objects; ++i) {
    PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id,
                            builder->AddBootstrapObject(random_value()));
    live.push_back(id);
  }

  for (size_t op = 0; op < options.num_ops; ++op) {
    const size_t p = rng.NextBelow(participants);
    const double r = rng.NextDouble();
    if (live.empty() || r < options.insert_weight) {
      PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id,
                              builder->Insert(p, random_value()));
      live.push_back(id);
    } else if (live.size() < 2 ||
               r < options.insert_weight + options.update_weight) {
      PROVDB_RETURN_IF_ERROR(builder->Update(skewed_pick(), p,
                                             random_value()));
    } else {
      const size_t want = 2 + rng.NextBelow(3);
      std::vector<storage::ObjectId> inputs;
      for (size_t k = 0; k < want; ++k) {
        storage::ObjectId candidate = skewed_pick();
        // Only tracked inputs: aggregating an untracked object that is
        // updated later leaves an input state the verifier can never
        // resolve to a record (see IsTracked).
        if (builder->IsTracked(candidate)) {
          inputs.push_back(candidate);
        }
      }
      std::sort(inputs.begin(), inputs.end());
      inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
      if (inputs.size() < 2) {
        // Degenerate pick; fall back to an update so aggregates stay
        // genuinely multi-input.
        PROVDB_RETURN_IF_ERROR(builder->Update(skewed_pick(), p,
                                               random_value()));
        continue;
      }
      PROVDB_ASSIGN_OR_RETURN(storage::ObjectId id,
                              builder->Aggregate(inputs, p, random_value()));
      live.push_back(id);
    }
  }
  return Status::OK();
}

Status WipeIngestRoot(storage::Env* env, const std::string& root) {
  auto entries = env->ListDir(root);
  if (!entries.ok()) return Status::OK();  // nothing there yet
  for (const std::string& entry : *entries) {
    if (entry.rfind("shard-", 0) != 0) continue;
    const std::string dir = root + "/" + entry;
    PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            env->ListDir(dir));
    for (const std::string& f : files) {
      PROVDB_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + f));
    }
  }
  return Status::OK();
}

Result<DurableTrackedDatabase> OpenDurableTrackedDatabase(
    storage::Env* env, const std::string& root,
    const provenance::IngestOptions& options) {
  DurableTrackedDatabase durable;
  PROVDB_ASSIGN_OR_RETURN(durable.pipeline,
                          provenance::IngestPipeline::Open(env, root, options));
  PROVDB_ASSIGN_OR_RETURN(
      durable.db, provenance::TrackedDatabase::Open(durable.pipeline.get()));
  return durable;
}

Result<provenance::ShardedProvenanceStore> RecoverOneShard(
    storage::Env* env, const std::string& root,
    storage::WalRecoveryReport* report,
    const crypto::RsaSignatureVerifier* checkpoint_verifier) {
  std::vector<storage::WalRecoveryReport> reports;
  PROVDB_ASSIGN_OR_RETURN(
      provenance::ShardedProvenanceStore store,
      provenance::ShardedProvenanceStore::Recover(env, root, 1, &reports,
                                                  checkpoint_verifier));
  if (report != nullptr) *report = reports[0];
  return store;
}

std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
ChainsByIndex(const provenance::ProvenanceStore& store) {
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>> chains;
  for (uint64_t i = 0; i < store.record_count(); ++i) {
    if (store.is_pruned(i)) continue;
    const ProvenanceRecord& rec = store.record(i);
    chains[rec.output.object_id].push_back(&rec);
  }
  return chains;
}

void SortByObjectAndSeq(std::vector<ProvenanceRecord>* records) {
  std::sort(records->begin(), records->end(),
            [](const ProvenanceRecord& a, const ProvenanceRecord& b) {
              if (a.output.object_id != b.output.object_id) {
                return a.output.object_id < b.output.object_id;
              }
              return a.seq_id < b.seq_id;
            });
}

Result<provenance::ShardedProvenanceStore> OneShardCopy(
    const provenance::ProvenanceStore& store) {
  provenance::ShardedProvenanceStore sharded(1);
  for (uint64_t i = 0; i < store.record_count(); ++i) {
    if (store.is_pruned(i)) continue;
    PROVDB_RETURN_IF_ERROR(
        sharded.shard(0).AddRecord(store.record(i)).status());
  }
  sharded.PublishAll();
  return sharded;
}

std::vector<Bytes> EncodedInCommitOrder(
    const provenance::StoreReadView& view) {
  std::vector<const provenance::ChainNode*> cells;
  view.ForEachChain([&](storage::ObjectId, const provenance::ChainNode* head) {
    for (const provenance::ChainNode* cell = head; cell != nullptr;
         cell = cell->prev) {
      cells.push_back(cell);
    }
  });
  std::sort(cells.begin(), cells.end(),
            [](const provenance::ChainNode* a, const provenance::ChainNode* b) {
              return a->index < b->index;
            });
  std::vector<Bytes> out;
  out.reserve(cells.size());
  for (const provenance::ChainNode* cell : cells) {
    out.push_back(provenance::EncodeRecord(*cell->record));
  }
  return out;
}

Status CheckSnapshotIsBatchPrefix(const provenance::StoreSnapshot& snapshot,
                                  const IngestWorkloadBuilder& builder,
                                  size_t max_batch_records,
                                  size_t drain_every) {
  const size_t num_shards = snapshot.num_shards();
  const std::vector<IngestRequest>& requests = builder.requests();
  const provenance::ProvenanceStore& reference = builder.reference_store();

  // Request i produced reference record i (the builder applies them in
  // submission order), so each shard's durable prefix is a prefix of
  // that shard's subsequence of reference record indices. Replaying the
  // pipeline's flush triggers over the same stream yields every record
  // count a shard can publish: a batch reaching the threshold, a Drain
  // flushing a non-empty batch, and the final drain.
  std::vector<std::vector<uint64_t>> shard_seq(num_shards);
  std::vector<std::set<uint64_t>> boundaries(num_shards, {0});
  std::vector<uint64_t> pending(num_shards, 0);
  auto flush = [&](size_t s) {
    if (pending[s] > 0) {
      boundaries[s].insert(shard_seq[s].size());
      pending[s] = 0;
    }
  };
  for (uint64_t i = 0; i < requests.size(); ++i) {
    const size_t s = ShardIndex(requests[i].object, num_shards);
    shard_seq[s].push_back(i);
    if (++pending[s] == max_batch_records) {
      flush(s);
    }
    if (drain_every > 0 && (i + 1) % drain_every == 0) {
      for (size_t d = 0; d < num_shards; ++d) flush(d);
    }
  }
  for (size_t s = 0; s < num_shards; ++s) flush(s);

  // Per-shard: boundary-count legality, then byte-identical chains.
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
      expected_all;
  for (size_t s = 0; s < num_shards; ++s) {
    const provenance::StoreReadView& view = snapshot.shard_view(s);
    const uint64_t n = view.record_count();
    if (n > shard_seq[s].size()) {
      return Status::Internal("shard " + std::to_string(s) + " cut at " +
                              std::to_string(n) + " records but only " +
                              std::to_string(shard_seq[s].size()) +
                              " were ever routed to it");
    }
    if (boundaries[s].count(n) == 0) {
      return Status::Internal(
          "shard " + std::to_string(s) + " cut at " + std::to_string(n) +
          " records, which is not a group-commit batch boundary (batch " +
          "size " + std::to_string(max_batch_records) + ", drain every " +
          std::to_string(drain_every) + " submits)");
    }

    std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
        expected;
    for (uint64_t k = 0; k < n; ++k) {
      const ProvenanceRecord& rec = reference.record(shard_seq[s][k]);
      expected[rec.output.object_id].push_back(&rec);
      expected_all[rec.output.object_id].push_back(&rec);
    }
    std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>> actual;
    view.AppendChains(&actual);
    if (actual.size() != expected.size()) {
      return Status::Internal("shard " + std::to_string(s) + " cut has " +
                              std::to_string(actual.size()) +
                              " chains, expected " +
                              std::to_string(expected.size()));
    }
    for (const auto& [object, chain] : expected) {
      auto it = actual.find(object);
      if (it == actual.end()) {
        return Status::Internal("shard " + std::to_string(s) +
                                " cut is missing the chain of object " +
                                std::to_string(object));
      }
      if (it->second.size() != chain.size()) {
        return Status::Internal(
            "object " + std::to_string(object) + " has " +
            std::to_string(it->second.size()) + " records in the cut, " +
            std::to_string(chain.size()) + " in the reference prefix");
      }
      for (size_t i = 0; i < chain.size(); ++i) {
        if (provenance::EncodeRecord(*it->second[i]) !=
            provenance::EncodeRecord(*chain[i])) {
          return Status::Internal(
              "record " + std::to_string(i) + " of object " +
              std::to_string(object) +
              " differs between the cut and the reference prefix");
        }
      }
    }
  }

  // The report over the cut must be byte-identical to the report over a
  // quiesced store stopped at the same per-shard prefixes. A cut may
  // legitimately leave a cross-shard aggregate input unresolved — but
  // then the quiesced replay of that exact prefix reports it too.
  provenance::ChecksumEngine engine(builder.algorithm());
  provenance::VerificationReport expected_report;
  provenance::VerifyRecordChains(builder.registry(), engine, expected_all,
                                 &expected_report);
  provenance::VerificationReport cut_report;
  provenance::VerifyRecordChains(builder.registry(), engine,
                                 snapshot.AllChains(), &cut_report);
  if (cut_report.ToString() != expected_report.ToString()) {
    return Status::Internal(
        "verification report over the cut differs from the quiesced "
        "replay of the same prefix:\n--- cut ---\n" +
        cut_report.ToString() + "\n--- quiesced ---\n" +
        expected_report.ToString());
  }
  return Status::OK();
}

Result<ConcurrentAuditStats> RunConcurrentAuditDifferential(
    storage::Env* env, const std::string& root,
    const IngestWorkloadBuilder& builder, provenance::IngestOptions options,
    size_t drain_every) {
  // Only the record-count threshold may fire, or cuts could land on
  // byte/time boundaries CheckSnapshotIsBatchPrefix cannot predict.
  options.max_batch_bytes = 1ull << 30;
  options.flush_interval_seconds = 0;
  PROVDB_RETURN_IF_ERROR(WipeIngestRoot(env, root));
  PROVDB_ASSIGN_OR_RETURN(
      std::unique_ptr<provenance::IngestPipeline> pipeline,
      provenance::IngestPipeline::Open(env, root, options));

  // Writer on a pool task (R03: no raw threads); auditor on this thread.
  std::atomic<bool> done{false};
  ThreadPool pool(1);
  provenance::IngestPipeline* live = pipeline.get();
  const std::vector<IngestRequest>* requests = &builder.requests();
  std::future<Status> writer =
      pool.Submit([live, requests, drain_every, &done]() -> Status {
        Status status = SubmitWithDrainCadence(live, *requests, drain_every);
        if (status.ok()) {
          status = live->Drain();
        }
        done.store(true, std::memory_order_release);
        return status;
      });

  ConcurrentAuditStats stats;
  std::set<uint64_t> cut_sizes;
  Status cut_check = Status::OK();
  while (!done.load(std::memory_order_acquire)) {
    provenance::StoreSnapshot snapshot = live->OpenSnapshot();
    cut_check = CheckSnapshotIsBatchPrefix(
        snapshot, builder, options.max_batch_records, drain_every);
    ++stats.snapshots_checked;
    if (snapshot.record_count() > 0) {
      ++stats.nonempty_snapshots;
    }
    cut_sizes.insert(snapshot.record_count());
    if (!cut_check.ok()) {
      break;
    }
  }
  Status writer_status = writer.get();
  PROVDB_RETURN_IF_ERROR(writer_status);
  PROVDB_RETURN_IF_ERROR(cut_check);

  // Quiesced epilogue: the final cut is the whole workload, and it still
  // validates as a (complete) prefix.
  provenance::StoreSnapshot final_cut = pipeline->OpenSnapshot();
  if (final_cut.record_count() != builder.requests().size()) {
    return Status::Internal(
        "drained pipeline published " +
        std::to_string(final_cut.record_count()) + " records, expected " +
        std::to_string(builder.requests().size()));
  }
  PROVDB_RETURN_IF_ERROR(CheckSnapshotIsBatchPrefix(
      final_cut, builder, options.max_batch_records, drain_every));
  cut_sizes.insert(final_cut.record_count());
  ++stats.snapshots_checked;
  ++stats.nonempty_snapshots;
  stats.distinct_cuts = cut_sizes.size();
  PROVDB_RETURN_IF_ERROR(pipeline->Close());
  return stats;
}

Status SubmitWithDrainCadence(provenance::IngestPipeline* pipeline,
                              const std::vector<IngestRequest>& requests,
                              size_t drain_every) {
  for (size_t i = 0; i < requests.size(); ++i) {
    PROVDB_RETURN_IF_ERROR(pipeline->Submit(requests[i]));
    if (drain_every > 0 && (i + 1) % drain_every == 0) {
      PROVDB_RETURN_IF_ERROR(pipeline->Drain());
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<provenance::IngestPipeline>> ReplayThroughPipeline(
    storage::Env* env, const std::string& root_dir,
    const std::vector<provenance::IngestRequest>& requests,
    provenance::IngestOptions options, size_t drain_every) {
  PROVDB_ASSIGN_OR_RETURN(
      std::unique_ptr<provenance::IngestPipeline> pipeline,
      provenance::IngestPipeline::Open(env, root_dir, options));
  PROVDB_RETURN_IF_ERROR(
      SubmitWithDrainCadence(pipeline.get(), requests, drain_every));
  PROVDB_RETURN_IF_ERROR(pipeline->Close());
  return pipeline;
}

}  // namespace provdb::testing
