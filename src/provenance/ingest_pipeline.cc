#include "provenance/ingest_pipeline.h"

#include <cstdio>
#include <future>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "observability/trace.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"

namespace provdb::provenance {
namespace {

/// Rough WAL footprint of a request's eventual record frame, for the
/// max_batch_bytes threshold: fixed framing plus an RSA-1024 checksum,
/// plus every digest the record will carry. Only a flush heuristic —
/// exactness is not required, monotonicity is.
uint64_t EstimateRequestBytes(const IngestRequest& request) {
  uint64_t bytes = 160 + request.post_hash.size();
  if (request.has_pre_hash) {
    bytes += request.pre_hash.size();
  }
  for (size_t i = 0; i < request.inputs.size(); ++i) {
    bytes += 8 + request.inputs[i].state_hash.size();
  }
  return bytes;
}

Status ValidateRequest(const IngestRequest& request) {
  if (request.participant == nullptr) {
    return Status::InvalidArgument("ingest request has no participant");
  }
  if (request.object == storage::kInvalidObjectId) {
    return Status::InvalidArgument("ingest request has no output object");
  }
  if (request.op == OperationType::kAggregate) {
    if (request.inputs.empty()) {
      return Status::InvalidArgument("aggregate requires at least one input");
    }
    if (request.input_prev_checksums.size() != request.inputs.size()) {
      return Status::InvalidArgument(
          "aggregate prev-checksum count does not match its inputs");
    }
    for (size_t i = 1; i < request.inputs.size(); ++i) {
      if (request.inputs[i].object_id <= request.inputs[i - 1].object_id) {
        return Status::InvalidArgument(
            "aggregate inputs must be strictly ascending by object id");
      }
    }
  } else if (!request.inputs.empty() ||
             !request.input_prev_checksums.empty()) {
    // Insert has no inputs; an update's single input is derived from the
    // request's own object and pre-hash, never supplied explicitly.
    return Status::InvalidArgument(
        "only aggregate requests carry explicit inputs");
  }
  return Status::OK();
}

/// The seq id `request` gets on top of its object's chain, whose newest
/// seq id is `tail` (empty when the object has no chain). Inserts and
/// aggregates start a chain, so onto an existing one they are refused.
Result<SeqId> NextSeqId(const IngestRequest& request,
                        std::optional<SeqId> tail) {
  switch (request.op) {
    case OperationType::kInsert:
      if (tail) {
        return Status::FailedPrecondition(
            "insert for object " + std::to_string(request.object) +
            " which already has a chain");
      }
      return SeqId{0};
    case OperationType::kUpdate:
      // Bootstrap objects (no chain yet) start at seq 0.
      return tail ? *tail + 1 : 0;
    case OperationType::kAggregate:
      if (tail) {
        return Status::FailedPrecondition(
            "aggregate output object " + std::to_string(request.object) +
            " already has a chain");
      }
      return request.aggregate_seq;
  }
  return Status::InvalidArgument("unknown ingest operation");
}

Status CheckOptions(const IngestOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ingest pipeline needs at least 1 shard");
  }
  if (options.max_batch_records == 0) {
    return Status::InvalidArgument("max_batch_records must be at least 1");
  }
  return Status::OK();
}

/// Runs `task(0)` .. `task(n - 1)` and returns their statuses by index.
/// With a pool and more than one task they fan out across it and only
/// this (calling) thread waits on the futures, since a pool task must
/// never wait on its own pool; otherwise they run inline, in order.
template <typename Fn>
std::vector<Status> RunTasks(ThreadPool* pool, size_t n, const Fn& task) {
  std::vector<Status> statuses(n, Status::OK());
  if (pool == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) {
      statuses[i] = task(i);
    }
    return statuses;
  }
  std::vector<std::future<Status>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(pool->Submit([&task, i] { return task(i); }));
  }
  for (size_t i = 0; i < n; ++i) {
    statuses[i] = futures[i].get();
  }
  return statuses;
}

}  // namespace

// ---------------------------------------------------------------------------
// BuildSignedIngestRecord
// ---------------------------------------------------------------------------

Result<ProvenanceRecord> BuildSignedIngestRecord(
    const ChecksumEngine& engine, const LocalChainState::Tail& tail,
    const IngestRequest& request) {
  PROVDB_RETURN_IF_ERROR(ValidateRequest(request));

  ProvenanceRecord record;
  record.participant = request.participant->id();
  record.op = request.op;
  record.inherited = request.inherited;
  record.output = ObjectState{request.object, request.post_hash};
  if (request.has_output_snapshot) {
    record.output_snapshot = request.output_snapshot;
    record.has_output_snapshot = true;
  }

  Bytes payload;
  switch (request.op) {
    case OperationType::kInsert: {
      if (tail.exists) {
        return Status::FailedPrecondition(
            "insert for object " + std::to_string(request.object) +
            " which already has a chain");
      }
      record.seq_id = 0;
      payload = engine.BuildInsertPayload(request.post_hash);
      break;
    }
    case OperationType::kUpdate: {
      // Bootstrap objects (no chain yet) start at seq 0 with an empty
      // previous-checksum slot, matching TrackedDatabase::EmitRecord.
      record.seq_id = tail.exists ? tail.seq_id + 1 : 0;
      crypto::Digest in_hash =
          request.has_pre_hash ? request.pre_hash : crypto::Digest();
      record.inputs.push_back(ObjectState{request.object, in_hash});
      payload = engine.BuildUpdatePayload(in_hash, request.post_hash,
                                          tail.checksum);
      break;
    }
    case OperationType::kAggregate: {
      if (tail.exists) {
        return Status::FailedPrecondition(
            "aggregate output object " + std::to_string(request.object) +
            " already has a chain");
      }
      std::vector<crypto::Digest> input_hashes;
      input_hashes.reserve(request.inputs.size());
      for (size_t i = 0; i < request.inputs.size(); ++i) {
        input_hashes.push_back(request.inputs[i].state_hash);
      }
      record.seq_id = request.aggregate_seq;
      record.inputs = request.inputs;
      payload = engine.BuildAggregatePayload(input_hashes, request.post_hash,
                                             request.input_prev_checksums);
      break;
    }
  }

  PROVDB_ASSIGN_OR_RETURN(
      record.checksum,
      engine.SignPayload(request.participant->signer(), payload));
  return record;
}

// ---------------------------------------------------------------------------
// ShardedProvenanceStore
// ---------------------------------------------------------------------------

ShardedProvenanceStore::ShardedProvenanceStore(size_t num_shards)
    : domain_(std::make_unique<EpochDomain>()),
      shards_(num_shards == 0 ? 1 : num_shards) {
  AttachDomains();
}

void ShardedProvenanceStore::AttachDomains() {
  for (ProvenanceStore& shard : shards_) {
    shard.AttachEpochDomain(domain_.get());
  }
}

StoreSnapshot ShardedProvenanceStore::OpenSnapshot() const {
  // Pin first, then load each shard's published version: the pin
  // guarantees nothing loaded afterwards is reclaimed while the
  // snapshot lives.
  EpochDomain::Guard guard = domain_->Pin();
  std::vector<StoreReadView> views;
  views.reserve(shards_.size());
  for (const ProvenanceStore& shard : shards_) {
    views.emplace_back(shard.published_version());
  }
  return StoreSnapshot(std::move(guard), std::move(views));
}

void ShardedProvenanceStore::PublishAll() {
  for (ProvenanceStore& shard : shards_) {
    shard.PublishSnapshot();
  }
  domain_->Collect();
}

std::string ShardedProvenanceStore::ShardDirName(const std::string& root,
                                                 size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03zu", index);
  return root + "/" + buf;
}

Result<ShardedProvenanceStore> ShardedProvenanceStore::Recover(
    storage::Env* env, const std::string& root, size_t num_shards,
    std::vector<storage::WalRecoveryReport>* reports,
    const crypto::SignatureVerifier* checkpoint_verifier) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  ShardedProvenanceStore store(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const std::string dir = ShardDirName(root, i);
    storage::WalRecoveryReport report;
    if (env->FileExists(dir)) {
      PROVDB_ASSIGN_OR_RETURN(
          store.shards_[i],
          ProvenanceStore::RecoverFromWal(env, dir, &report,
                                          checkpoint_verifier));
    }
    // A missing directory is an empty shard: the crash may have hit
    // before this shard received its first batch.
    if (reports != nullptr) {
      reports->push_back(report);
    }
  }
  // Recovery built the shards domainless (RecoverFromWal returns
  // standalone stores); re-attach and publish so snapshots opened right
  // after recovery already see the recovered (durable) state.
  store.AttachDomains();
  store.PublishAll();
  return store;
}

uint64_t ShardedProvenanceStore::record_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += shards_[i].record_count();
  }
  return total;
}

uint64_t ShardedProvenanceStore::live_record_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += shards_[i].live_record_count();
  }
  return total;
}

// ---------------------------------------------------------------------------
// IngestPipeline
// ---------------------------------------------------------------------------

IngestPipeline::IngestPipeline(storage::Env* env, std::string root_dir,
                               IngestOptions options,
                               ShardedProvenanceStore store)
    : env_(env),
      root_dir_(std::move(root_dir)),
      options_(options),
      engine_(options.hash_algorithm),
      store_(std::make_unique<ShardedProvenanceStore>(std::move(store))),
      submitted_(observability::GlobalMetrics().counter("ingest.submitted")),
      committed_(observability::GlobalMetrics().counter("ingest.committed")),
      batches_(observability::GlobalMetrics().counter("ingest.batches")),
      batch_bytes_(
          observability::GlobalMetrics().counter("ingest.batch_bytes")),
      sign_tasks_(
          observability::GlobalMetrics().counter("ingest.sign_tasks")),
      pending_(observability::GlobalMetrics().gauge("ingest.pending")),
      flush_latency_(observability::GlobalMetrics().histogram(
          "ingest.flush.latency_us")),
      drain_latency_(observability::GlobalMetrics().histogram(
          "ingest.drain.latency_us")) {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < store_->num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!options_.signing.sequential()) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.signing.num_threads));
  }
}

// No Close in the destructor: like WalWriter, destruction without Close
// models a crash (nothing un-synced becomes durable), which the
// fault-injection sweep relies on. Clean shutdown is explicit Close().
IngestPipeline::~IngestPipeline() = default;

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::Open(
    storage::Env* env, const std::string& root_dir, IngestOptions options,
    std::vector<storage::WalRecoveryReport>* recovery_reports) {
  PROVDB_RETURN_IF_ERROR(CheckOptions(options));
  PROVDB_RETURN_IF_ERROR(env->CreateDir(root_dir));
  std::vector<storage::WalRecoveryReport> reports;
  PROVDB_ASSIGN_OR_RETURN(
      ShardedProvenanceStore recovered,
      ShardedProvenanceStore::Recover(env, root_dir, options.num_shards,
                                      &reports,
                                      options.checkpoint.verifier));

  std::unique_ptr<IngestPipeline> pipeline(
      new IngestPipeline(env, root_dir, options, std::move(recovered)));
  {
    // The pipeline is not yet published, but shards_ is guarded by mu_,
    // so seed it under the (uncontended) lock to keep the analysis exact.
    MutexLock lock(&pipeline->mu_);
    for (size_t i = 0; i < options.num_shards; ++i) {
      Shard& shard = *pipeline->shards_[i];
      // The recovered horizon flows into the writer so fresh segments are
      // numbered past GC'd history and never resurrect a deleted index.
      storage::WalOptions wal_options = options.wal;
      wal_options.checkpoint_horizon = reports[i].checkpoint_horizon;
      PROVDB_ASSIGN_OR_RETURN(
          shard.wal,
          storage::WalWriter::Open(
              env, ShardedProvenanceStore::ShardDirName(root_dir, i),
              wal_options));
      // Seed every chain tail from the recovered records so reopened
      // chains continue exactly where the durable log left them.
      const ProvenanceStore& store = pipeline->store_->shard(i);
      for (uint64_t r = 0; r < store.record_count(); ++r) {
        if (store.is_pruned(r)) continue;
        const ProvenanceRecord& rec = store.record(r);
        shard.chains.Set(rec.output.object_id, rec.seq_id, rec.checksum);
      }
    }
  }
  if (recovery_reports != nullptr) {
    for (size_t i = 0; i < reports.size(); ++i) {
      recovery_reports->push_back(reports[i]);
    }
  }
  return pipeline;
}

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::OpenInMemory(
    IngestOptions options) {
  PROVDB_RETURN_IF_ERROR(CheckOptions(options));
  if (options.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "a memory-only ingest pipeline has no WAL to checkpoint");
  }
  return std::unique_ptr<IngestPipeline>(new IngestPipeline(
      nullptr, "", options, ShardedProvenanceStore(options.num_shards)));
}

const storage::WalWriter* IngestPipeline::shard_wal(size_t index) const {
  MutexLock lock(&mu_);
  const Shard& shard = *shards_[index];
  return shard.wal ? &*shard.wal : nullptr;
}

Status IngestPipeline::Submit(const IngestRequest& request, SeqId* seq_id) {
  MutexLock lock(&mu_);
  if (!failed_.ok()) return failed_;
  if (closed_) {
    return Status::FailedPrecondition("submit to closed ingest pipeline");
  }
  PROVDB_RETURN_IF_ERROR(ValidateRequest(request));

  const size_t index =
      ShardedProvenanceStore::ShardOf(request.object, shards_.size());
  Shard* shard = shards_[index].get();
  // The chain tail counts pending requests: a second insert of an object
  // still in the batch is refused here, not at its flush.
  std::optional<SeqId> tail;
  auto pending = shard->pending_seqs.find(request.object);
  if (pending != shard->pending_seqs.end()) {
    tail = pending->second;
  } else if (const auto committed = shard->chains.Get(request.object);
             committed.exists) {
    tail = committed.seq_id;
  }
  PROVDB_ASSIGN_OR_RETURN(SeqId seq, NextSeqId(request, tail));
  if (seq_id != nullptr) *seq_id = seq;
  shard->pending_seqs[request.object] = seq;
  shard->pending.push_back(request);
  shard->pending_bytes += EstimateRequestBytes(request);
  ++submitted_count_;
  submitted_->Increment();
  pending_->Add(1);

  const bool threshold =
      options_.sync_every_record ||
      shard->pending.size() >= options_.max_batch_records ||
      shard->pending_bytes >= options_.max_batch_bytes ||
      (options_.flush_interval_seconds > 0 &&
       shard->since_flush.ElapsedSeconds() >=
           options_.flush_interval_seconds);
  if (threshold) {
    Status s = FlushLocked({index});
    if (!s.ok()) {
      failed_ = s;
      return failed_;
    }
  }
  return Status::OK();
}

Status IngestPipeline::FlushLocked(const std::vector<size_t>& indices) {
  // One shard's share of the round. Pool tasks reach the shard only
  // through this struct, never through the guarded shards_ vector.
  struct ShardFlush {
    Shard* shard = nullptr;
    ProvenanceStore* store = nullptr;
    std::vector<IngestRequest> batch;
    std::vector<ProvenanceRecord> records;
    uint64_t bytes = 0;
    Status status = Status::OK();
  };
  std::vector<ShardFlush> flushes;
  flushes.reserve(indices.size());
  for (size_t index : indices) {
    Shard* shard = shards_[index].get();
    if (shard->pending.empty()) {
      shard->since_flush.Restart();
      continue;
    }
    ShardFlush flush;
    flush.shard = shard;
    flush.store = &store_->shard(index);
    flush.batch = std::move(shard->pending);
    flush.records.resize(flush.batch.size());
    shard->pending.clear();
    shard->pending_seqs.clear();
    shard->pending_bytes = 0;
    pending_->Sub(static_cast<int64_t>(flush.batch.size()));
    flushes.push_back(std::move(flush));
  }
  if (flushes.empty()) {
    return Status::OK();
  }
  observability::ScopedLatencyTimer timer(flush_latency_);
  observability::TraceSpan span("ingest.flush");

  // Step 1, sign: group every batch by output object, preserving
  // first-appearance order. Records of one object must sign sequentially
  // against the running chain tail; distinct objects' groups are
  // independent (§3.2), across shards too, and fan out together.
  struct SignGroup {
    ShardFlush* flush;
    std::vector<size_t> members;
  };
  std::vector<SignGroup> groups;
  for (ShardFlush& flush : flushes) {
    std::unordered_map<storage::ObjectId, size_t> group_of;
    for (size_t i = 0; i < flush.batch.size(); ++i) {
      auto [it, inserted] =
          group_of.emplace(flush.batch[i].object, groups.size());
      if (inserted) {
        groups.push_back(SignGroup{&flush, {}});
      }
      groups[it->second].members.push_back(i);
    }
  }
  auto sign_group = [this, &groups](size_t g) -> Status {
    ShardFlush& flush = *groups[g].flush;
    LocalChainState::Tail tail =
        flush.shard->chains.Get(flush.batch[groups[g].members[0]].object);
    for (size_t idx : groups[g].members) {
      PROVDB_ASSIGN_OR_RETURN(
          ProvenanceRecord rec,
          BuildSignedIngestRecord(engine_, tail, flush.batch[idx]));
      tail = LocalChainState::Tail{rec.seq_id, rec.checksum, true};
      flush.records[idx] = std::move(rec);
    }
    return Status::OK();
  };
  Stopwatch step_watch;
  const std::vector<Status> signed_groups =
      RunTasks(pool_.get(), groups.size(), sign_group);
  sign_seconds_ += step_watch.ElapsedSeconds();
  if (pool_ != nullptr && groups.size() > 1) {
    sign_tasks_->Add(groups.size());
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].flush->status.ok()) {
      groups[g].flush->status = signed_groups[g];
    }
  }

  // Step 2, write ahead: each signed shard appends its frames and issues
  // the batch's single durability point, one pool task per shard so the
  // fsyncs overlap. (sync_every_record flushes at every Submit, so its
  // batches hold one record: this is its per-record append and sync.) A
  // memory-only pipeline has nothing to write ahead.
  auto write_ahead = [&flushes](size_t i) -> Status {
    ShardFlush& flush = flushes[i];
    PROVDB_RETURN_IF_ERROR(flush.status);
    std::optional<storage::WalWriter>& wal = flush.shard->wal;
    if (!wal) return Status::OK();
    for (const ProvenanceRecord& rec : flush.records) {
      Bytes entry = EncodeWalRecordEntry(rec);
      flush.bytes += entry.size();
      PROVDB_RETURN_IF_ERROR(wal->Append(entry));
    }
    return wal->Sync();
  };
  step_watch.Restart();
  const std::vector<Status> synced =
      RunTasks(pool_.get(), flushes.size(), write_ahead);

  // Step 3, commit and publish, on this thread in shard order: the epoch
  // domain's Retire/Advance/Collect must stay serialized, and a shard
  // whose batch failed to sign or sync commits nothing, so on every
  // shard synced_records == committed. Each publish is an epoch tick
  // after that shard's fsync + commit; a concurrent snapshot therefore
  // sees an exact prefix of every shard's durable batches.
  Status first_error = Status::OK();
  for (size_t i = 0; i < flushes.size(); ++i) {
    ShardFlush& flush = flushes[i];
    flush.status = synced[i];
    for (size_t r = 0; flush.status.ok() && r < flush.records.size(); ++r) {
      ProvenanceRecord& rec = flush.records[r];
      const storage::ObjectId id = rec.output.object_id;
      const SeqId seq = rec.seq_id;
      Bytes checksum = rec.checksum;
      flush.status = flush.store->AddRecord(std::move(rec)).status();
      if (flush.status.ok()) {
        flush.shard->chains.Set(id, seq, std::move(checksum));
        ++committed_count_;
        committed_->Increment();
      }
    }
    if (!flush.status.ok()) {
      if (first_error.ok()) first_error = flush.status;
      continue;
    }
    batches_->Increment();
    batch_bytes_->Add(flush.bytes);
    flush.shard->since_flush.Restart();
    flush.shard->records_since_checkpoint += flush.records.size();
    flush.shard->bytes_since_checkpoint += flush.bytes;
    // PublishSnapshot is allocation-free (preallocated version skeleton).
    flush.store->PublishSnapshot();
  }
  // Frees only superseded nodes no pinned reader can reach.
  store_->epoch_domain()->Collect();
  store_seconds_ += step_watch.ElapsedSeconds();
  PROVDB_RETURN_IF_ERROR(first_error);

  // Step 4, seal every shard whose checkpoint policy fired, one after
  // another: each seal buffers a whole-shard image, so sealing them
  // concurrently would multiply peak memory.
  const CheckpointPolicy& policy = options_.checkpoint;
  for (ShardFlush& flush : flushes) {
    const Shard& shard = *flush.shard;
    if (policy.enabled() &&
        ((policy.every_records > 0 &&
          shard.records_since_checkpoint >= policy.every_records) ||
         (policy.every_bytes > 0 &&
          shard.bytes_since_checkpoint >= policy.every_bytes))) {
      PROVDB_RETURN_IF_ERROR(CheckpointShardLocked(flush.shard, flush.store));
    }
  }
  return Status::OK();
}

Status IngestPipeline::CheckpointShardLocked(Shard* shard,
                                             ProvenanceStore* store) {
  // Ordering is the crash-safety argument (DESIGN.md §13): roll first so
  // the horizon is a closed segment, seal the snapshot (tmp + rename,
  // atomic), and only then delete covered segments and stale checkpoints.
  // A crash after the roll costs an extra segment; after the seal,
  // recovery already prefers the new checkpoint and skips the not-yet-
  // deleted history; mid-GC, the survivors sit behind the horizon and
  // are skipped too.
  storage::WalWriter& wal = *shard->wal;
  PROVDB_ASSIGN_OR_RETURN(uint64_t horizon, wal.RollSegment());
  if (horizon <= wal.checkpoint_horizon()) {
    // Nothing durable past the last checkpoint; the existing seal stands.
    shard->records_since_checkpoint = 0;
    shard->bytes_since_checkpoint = 0;
    return Status::OK();
  }
  const std::string& dir = wal.dir();
  PROVDB_RETURN_IF_ERROR(CheckpointWriter::Write(
      env_, dir, *store, horizon, *options_.checkpoint.signer,
      options_.checkpoint.sealer_id, options_.hash_algorithm));
  PROVDB_RETURN_IF_ERROR(RemoveStaleCheckpoints(env_, dir, horizon));
  PROVDB_RETURN_IF_ERROR(wal.GarbageCollect(horizon));
  shard->records_since_checkpoint = 0;
  shard->bytes_since_checkpoint = 0;
  ++shard->checkpoints;
  return Status::OK();
}

Status IngestPipeline::CheckpointNow() {
  MutexLock lock(&mu_);
  if (!failed_.ok()) return failed_;
  if (closed_) {
    return Status::FailedPrecondition("checkpoint on closed ingest pipeline");
  }
  if (env_ == nullptr) {
    return Status::FailedPrecondition(
        "a memory-only ingest pipeline has no WAL to checkpoint");
  }
  if (options_.checkpoint.signer == nullptr) {
    return Status::FailedPrecondition(
        "ingest pipeline has no checkpoint signer configured");
  }
  PROVDB_RETURN_IF_ERROR(DrainLocked());
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = CheckpointShardLocked(shards_[i].get(), &store_->shard(i));
    if (!s.ok()) {
      failed_ = s;
      return failed_;
    }
  }
  return Status::OK();
}

Result<size_t> IngestPipeline::Prune(storage::ObjectId id) {
  MutexLock lock(&mu_);
  return PruneLocked(id);
}

Result<size_t> IngestPipeline::PruneLocked(storage::ObjectId id) {
  if (closed_) {
    return Status::FailedPrecondition("prune on closed ingest pipeline");
  }
  PROVDB_RETURN_IF_ERROR(DrainLocked());
  const size_t index = ShardedProvenanceStore::ShardOf(id, shards_.size());
  Shard* shard = shards_[index].get();
  ProvenanceStore* store = &store_->shard(index);
  // Refused before anything is logged: recovery replays every marker and
  // fails on a prune the store refuses, so a refused marker on disk
  // would leave the directory unrecoverable.
  PROVDB_RETURN_IF_ERROR(store->CheckPrunable(id));
  if (!store->LatestFor(id).ok()) return size_t{0};  // no chain: no marker
  if (shard->wal) {
    // Write-ahead, like a batch: the marker is durable before the store
    // forgets the records, so recovery replays the prune instead of
    // resurrecting pruned history.
    Status logged = shard->wal->Append(EncodeWalPruneEntry(id));
    if (logged.ok()) logged = shard->wal->Sync();
    if (!logged.ok()) {
      failed_ = logged;
      return failed_;
    }
  }
  PROVDB_ASSIGN_OR_RETURN(size_t dropped, store->PruneObject(id));
  // As a reopen would: recovery seeds no tail from pruned records.
  shard->chains.Erase(id);
  store->PublishSnapshot();
  store_->epoch_domain()->Collect();
  return dropped;
}

Status IngestPipeline::Drain() {
  MutexLock lock(&mu_);
  return DrainLocked();
}

Status IngestPipeline::DrainLocked() {
  if (!failed_.ok()) return failed_;
  if (closed_) return Status::OK();
  observability::ScopedLatencyTimer timer(drain_latency_);
  observability::TraceSpan span("ingest.drain");
  std::vector<size_t> every_shard(shards_.size());
  std::iota(every_shard.begin(), every_shard.end(), size_t{0});
  Status s = FlushLocked(every_shard);
  if (!s.ok()) {
    failed_ = s;
  }
  return s;
}

Status IngestPipeline::Close() {
  MutexLock lock(&mu_);
  if (closed_) return Status::OK();
  Status drain = failed_.ok() ? DrainLocked() : failed_;
  Status close_status = Status::OK();
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::optional<storage::WalWriter>& wal = shards_[i]->wal;
    if (!wal) continue;
    Status c = wal->Close();
    wal.reset();
    if (close_status.ok()) close_status = c;
  }
  closed_ = true;
  if (!drain.ok()) return drain;
  return close_status;
}

}  // namespace provdb::provenance
