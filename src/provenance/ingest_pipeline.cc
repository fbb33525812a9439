#include "provenance/ingest_pipeline.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/varint.h"
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
/// The one copy of this rule: Submit checks a request against its lane's
/// tail with it, and BuildSignedIngestRecord numbers the signed record.
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

/// Records accepted and not yet committed beyond which Submit waits:
/// 2 x num_shards x max_batch_records, saturating, so lifted thresholds
/// (TrackedDatabase's) mean no bound rather than a wrapped one.
uint64_t InflightBound(const IngestOptions& options) {
  const uint64_t shards = options.num_shards;
  const uint64_t records = options.max_batch_records;
  if (records > UINT64_MAX / 2 / shards) return UINT64_MAX;
  return 2 * shards * records;
}

/// Runs `task` on `pool`, or inline on the calling thread when there is
/// none (a sequential pipeline): the same steps either way.
template <typename Fn>
void Dispatch(ThreadPool* pool, Fn&& task) {
  if (pool == nullptr) {
    task();
    return;
  }
  (void)pool->Submit(std::forward<Fn>(task));
}

/// Refills the empty shard `store` from the WAL directory `dir`: the
/// newest sealed checkpoint, if any, then the WAL suffix past its
/// horizon (see ShardedProvenanceStore::Recover).
Status RecoverShard(storage::Env* env, const std::string& dir,
                    const crypto::RsaSignatureVerifier* checkpoint_verifier,
                    ProvenanceStore* store,
                    storage::WalRecoveryReport* report) {
  storage::WalReaderOptions reader_options;
  uint64_t checkpoint_records = 0;
  Result<uint64_t> latest = LatestCheckpointHorizon(env, dir);
  if (latest.ok()) {
    if (checkpoint_verifier == nullptr) {
      return Status::FailedPrecondition(
          "a sealed checkpoint exists in " + dir +
          " but no verifier was supplied to check its seal");
    }
    PROVDB_ASSIGN_OR_RETURN(
        CheckpointManifest manifest,
        CheckpointReader::Load(env, CheckpointFileName(dir, latest.value()),
                               *checkpoint_verifier, store));
    reader_options.checkpoint_horizon = manifest.wal_horizon;
    checkpoint_records = manifest.live_records;
  } else if (latest.status().code() != StatusCode::kNotFound) {
    return latest.status();
  }

  PROVDB_ASSIGN_OR_RETURN(storage::WalReader reader,
                          storage::WalReader::Open(env, dir, reader_options));
  *report = reader.report();
  report->checkpoint_horizon = reader_options.checkpoint_horizon;
  report->checkpoint_records = checkpoint_records;
  // Replay typed WAL entries: appends re-add, prune markers re-prune, so
  // the store converges to the pre-crash state instead of resurrecting
  // pruned history.
  for (ByteView payload : reader.payloads()) {
    if (payload.empty()) {
      return Status::Corruption("empty WAL entry");
    }
    switch (payload[0]) {
      case static_cast<uint8_t>(WalEntryType::kRecord): {
        PROVDB_ASSIGN_OR_RETURN(ProvenanceRecord rec,
                                DecodeRecord(payload.subview(1)));
        PROVDB_RETURN_IF_ERROR(store->AddRecord(std::move(rec)).status());
        break;
      }
      case static_cast<uint8_t>(WalEntryType::kPrune): {
        VarintReader entry(payload.subview(1));
        PROVDB_ASSIGN_OR_RETURN(uint64_t id, entry.ReadVarint64());
        PROVDB_RETURN_IF_ERROR(store->PruneObject(id).status());
        break;
      }
      default:
        return Status::Corruption("unknown WAL entry type " +
                                  std::to_string(payload[0]));
    }
  }
  return Status::OK();
}

/// Refuses a root written with more than `num_shards` shards: its shard
/// directories past the count would go unread, and their history would
/// be lost. An empty one holds no history.
Status CheckNoShardPast(storage::Env* env, const std::string& root,
                        size_t num_shards) {
  if (!env->FileExists(root)) return Status::OK();
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                          env->ListDir(root));
  const std::string prefix = "shard-";
  for (const std::string& entry : entries) {
    if (entry.size() <= prefix.size() || entry.rfind(prefix, 0) != 0) {
      continue;
    }
    size_t index = 0;
    bool numbered = true;
    for (size_t i = prefix.size(); i < entry.size() && numbered; ++i) {
      numbered = entry[i] >= '0' && entry[i] <= '9';
      index = index * 10 + static_cast<size_t>(entry[i] - '0');
    }
    if (!numbered || index < num_shards) continue;
    PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            env->ListDir(root + "/" + entry));
    if (!files.empty()) {
      return Status::FailedPrecondition(
          root + "/" + entry + " lies past the " +
          std::to_string(num_shards) +
          " shards recovery was asked for: the root was written with "
          "more shards");
    }
  }
  return Status::OK();
}

/// Refuses a recovered chain on a shard its object does not route to: the
/// root was written with another shard count, and the object's next
/// record would start a second chain on its own shard.
Status CheckRouting(const ShardedProvenanceStore& store) {
  const size_t num_shards = store.num_shards();
  const StoreSnapshot snapshot = store.OpenSnapshot();
  for (size_t i = 0; i < num_shards; ++i) {
    std::optional<storage::ObjectId> misrouted;
    snapshot.shard_view(i).ForEachChain(
        [&](storage::ObjectId id, const ChainNode*) {
          if (!misrouted && ShardIndex(id, num_shards) != i) misrouted = id;
        });
    if (misrouted) {
      return Status::FailedPrecondition(
          "object " + std::to_string(*misrouted) + " recovered on shard " +
          std::to_string(i) + " of " + std::to_string(num_shards) +
          " routes to another: the root was written with another shard "
          "count");
    }
  }
  return Status::OK();
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
  PROVDB_ASSIGN_OR_RETURN(
      record.seq_id,
      NextSeqId(request, tail.exists ? std::optional<SeqId>(tail.seq_id)
                                     : std::nullopt));
  record.participant = request.participant->id();
  record.op = request.op;
  record.inherited = request.inherited;
  record.output = ObjectState{request.object, request.post_hash};
  if (request.has_output_snapshot) {
    record.output_snapshot = request.output_snapshot;
    record.has_output_snapshot = true;
  }

  // An update's one input is its own object before the operation; a
  // bootstrap object (no chain yet) signs an empty previous checksum,
  // matching the verifier's reading of a chain's first record.
  std::vector<ByteView> prev_checksums;
  if (request.op == OperationType::kUpdate) {
    record.inputs.push_back(ObjectState{
        request.object,
        request.has_pre_hash ? request.pre_hash : crypto::Digest()});
    prev_checksums.push_back(tail.checksum);
  } else if (request.op == OperationType::kAggregate) {
    record.inputs = request.inputs;
    prev_checksums.assign(request.input_prev_checksums.begin(),
                          request.input_prev_checksums.end());
  }

  PROVDB_ASSIGN_OR_RETURN(
      record.checksum,
      engine.SignPayload(request.participant->signer(), record.op,
                         engine.BuildPayload(record, prev_checksums)));
  return record;
}

// ---------------------------------------------------------------------------
// ShardedProvenanceStore
// ---------------------------------------------------------------------------

ShardedProvenanceStore::ShardedProvenanceStore(size_t num_shards)
    : domain_(std::make_unique<EpochDomain>()) {
  shards_.resize(num_shards == 0 ? 1 : num_shards);
  for (std::unique_ptr<ProvenanceStore>& shard : shards_) {
    shard = std::make_unique<ProvenanceStore>(*domain_);
  }
}

StoreSnapshot ShardedProvenanceStore::OpenSnapshot() const {
  // Pin first, then load each shard's published version: the pin
  // guarantees nothing loaded afterwards is reclaimed while the
  // snapshot lives.
  EpochDomain::Guard guard = domain_->Pin();
  std::vector<StoreReadView> views;
  views.reserve(shards_.size());
  for (const std::unique_ptr<ProvenanceStore>& shard : shards_) {
    views.emplace_back(shard->published_version());
  }
  return StoreSnapshot(std::move(guard), std::move(views));
}

void ShardedProvenanceStore::PublishAll() {
  for (const std::unique_ptr<ProvenanceStore>& shard : shards_) {
    shard->PublishSnapshot();
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
    const crypto::RsaSignatureVerifier* checkpoint_verifier) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  PROVDB_RETURN_IF_ERROR(CheckNoShardPast(env, root, num_shards));
  ShardedProvenanceStore store(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const std::string dir = ShardDirName(root, i);
    storage::WalRecoveryReport report;
    // A missing directory is an empty shard: the crash may have hit
    // before this shard received its first batch.
    if (env->FileExists(dir)) {
      PROVDB_RETURN_IF_ERROR(RecoverShard(env, dir, checkpoint_verifier,
                                          &store.shard(i), &report));
    }
    if (reports != nullptr) {
      reports->push_back(report);
    }
  }
  // One publish, so snapshots opened right after recovery already see
  // the recovered (durable) state. Until it, every index node was born
  // at tick 0 and the refill copied and retired none.
  store.PublishAll();
  PROVDB_RETURN_IF_ERROR(CheckRouting(store));
  return store;
}

uint64_t ShardedProvenanceStore::record_count() const {
  uint64_t total = 0;
  for (const std::unique_ptr<ProvenanceStore>& shard : shards_) {
    total += shard->record_count();
  }
  return total;
}

uint64_t ShardedProvenanceStore::live_record_count() const {
  uint64_t total = 0;
  for (const std::unique_ptr<ProvenanceStore>& shard : shards_) {
    total += shard->live_record_count();
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
      max_inflight_(InflightBound(options)),
      store_(std::make_unique<ShardedProvenanceStore>(std::move(store))),
      submitted_(observability::GlobalMetrics().counter("ingest.submitted")),
      committed_(observability::GlobalMetrics().counter("ingest.committed")),
      batches_(observability::GlobalMetrics().counter("ingest.batches")),
      batch_bytes_(
          observability::GlobalMetrics().counter("ingest.batch_bytes")),
      write_aheads_(
          observability::GlobalMetrics().counter("ingest.write_aheads")),
      sign_tasks_(
          observability::GlobalMetrics().counter("ingest.sign_tasks")),
      submit_waits_(
          observability::GlobalMetrics().counter("ingest.submit_waits")),
      pending_(observability::GlobalMetrics().gauge("ingest.pending")),
      seals_inflight_(
          observability::GlobalMetrics().gauge("ingest.seals_inflight")),
      flush_latency_(observability::GlobalMetrics().histogram(
          "ingest.flush.latency_us")),
      drain_latency_(observability::GlobalMetrics().histogram(
          "ingest.drain.latency_us")) {
  const size_t num_shards = store_->num_shards();
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
  {
    MutexLock work(&work_mu_);
    lanes_.resize(num_shards);
    signed_tails_.resize(num_shards);
    sync_results_.assign(num_shards, Status::OK());
  }
  if (!options_.signing.sequential()) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.signing.num_threads));
    if (env_ != nullptr) {
      io_pool_ = std::make_unique<ThreadPool>(num_shards);
    }
    if (options_.checkpoint.enabled()) {
      sealer_ = std::make_unique<ThreadPool>(1);
    }
  }
}

// No Close here: like WalWriter, destruction without Close models a
// crash (nothing un-synced becomes durable), which the fault-injection
// sweeps rely on. Clean shutdown is explicit Close(). The pools are
// joined first, since their tasks reach into the members below. The
// signing threads exit last: glibc hands the malloc arena of the thread
// that exited last to the next thread that allocates, which is a signing
// thread of the next pipeline — the one that needs the memory their
// records freed.
IngestPipeline::~IngestPipeline() {
  {
    MutexLock work(&work_mu_);
    abandoned_ = true;
    wake_ = nullptr;
  }
  for (ThreadPool* pool : {sealer_.get(), io_pool_.get(), pool_.get()}) {
    if (pool != nullptr) pool->Shutdown();
  }
}

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
    // The pipeline is not yet published, but its shards and tails are
    // guarded, so seed them under the (uncontended) locks to keep the
    // analysis exact.
    MutexLock lock(&pipeline->mu_);
    MutexLock work(&pipeline->work_mu_);
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
    }
    // Seed each live chain's tail from its head, so reopened chains
    // continue exactly where the durable log left them. Recovery
    // published the whole recovered state.
    const StoreSnapshot snapshot = pipeline->store_->OpenSnapshot();
    for (size_t i = 0; i < options.num_shards; ++i) {
      LocalChainState& tails = pipeline->signed_tails_[i];
      snapshot.shard_view(i).ForEachChain(
          [&tails](storage::ObjectId id, const ChainNode* head) {
            tails.Set(id, head->record->seq_id, head->record->checksum);
          });
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

void IngestPipeline::SetProducerHooks(
    std::function<void()> wake,
    std::function<void(const BatchCompletion&)> completed) {
  MutexLock lock(&mu_);
  completed_ = std::move(completed);
  MutexLock work(&work_mu_);
  wake_ = std::move(wake);
}

Status IngestPipeline::Submit(const IngestRequest& request, SeqId* seq_id) {
  MutexLock lock(&mu_);
  if (!failed_.ok()) return failed_;
  if (closed_) {
    return Status::FailedPrecondition("submit to closed ingest pipeline");
  }
  PROVDB_RETURN_IF_ERROR(ValidateRequest(request));
  // Backpressure. Open batches hold fewer than num_shards x
  // max_batch_records records, so past the bound some closed batch is in
  // flight and commits without anyone closing a batch: waiting never
  // moves a publish point.
  if (inflight_ >= max_inflight_) {
    submit_waits_->Increment();
    while (inflight_ >= max_inflight_) {
      PROVDB_RETURN_IF_ERROR(StepLocked());
    }
  }

  const size_t index = ShardIndex(request.object, shards_.size());
  Shard* shard = shards_[index].get();
  std::unique_ptr<Batch> fresh;
  Batch* batch = !shard->batches.empty() && !shard->batches.back()->closed
                     ? shard->batches.back().get()
                     : (fresh = std::make_unique<Batch>()).get();
  auto entry = std::make_unique<Entry>();
  entry->request = request;
  entry->batch = batch;
  bool start_lane = false;
  {
    MutexLock work(&work_mu_);
    // The chain tail counts every accepted request, signed or not: a
    // second insert of an object still in flight is refused here.
    std::unordered_map<storage::ObjectId, Lane>& lanes = lanes_[index];
    auto lane = lanes.find(request.object);
    std::optional<SeqId> tail;
    if (lane != lanes.end()) {
      tail = lane->second.last_seq;
    } else if (const auto signed_tail = signed_tails_[index].Get(
                   request.object);
               signed_tail.exists) {
      tail = signed_tail.seq_id;
    }
    PROVDB_ASSIGN_OR_RETURN(SeqId seq, NextSeqId(request, tail));
    if (seq_id != nullptr) *seq_id = seq;
    if (lane == lanes.end()) {
      lane = lanes.emplace(request.object, Lane{}).first;
      start_lane = true;
    }
    lane->second.queue.push_back(entry.get());
    lane->second.last_seq = seq;
    ++batch->unsigned_count;
  }
  if (fresh != nullptr) shard->batches.push_back(std::move(fresh));
  batch->estimated_bytes += EstimateRequestBytes(request);
  batch->entries.push_back(std::move(entry));
  ++submitted_count_;
  ++inflight_;
  submitted_->Increment();
  pending_->Add(1);

  if (start_lane) {
    if (pool_ != nullptr) sign_tasks_->Increment();
    const storage::ObjectId object = request.object;
    Dispatch(pool_.get(), [this, index, object] { SignLane(index, object); });
  }
  if (batch->entries.size() >= options_.max_batch_records ||
      batch->estimated_bytes >= options_.max_batch_bytes ||
      (options_.flush_interval_seconds > 0 &&
       shard->since_flush.ElapsedSeconds() >=
           options_.flush_interval_seconds)) {
    CloseBatchLocked(shard);
  }
  PumpLocked();
  return failed_;
}

void IngestPipeline::SignLane(size_t shard, storage::ObjectId object) {
  LocalChainState::Tail tail;
  Entry* entry = nullptr;
  {
    MutexLock work(&work_mu_);
    tail = signed_tails_[shard].Get(object);
    entry = NextInLaneLocked(shard, object);
  }
  while (entry != nullptr) {
    Stopwatch watch;
    Result<ProvenanceRecord> record =
        BuildSignedIngestRecord(engine_, tail, entry->request);
    const double seconds = watch.ElapsedSeconds();
    MutexLock work(&work_mu_);
    sign_seconds_ += seconds;
    if (record.ok()) {
      // The object's next record signs on top of this one.
      signed_tails_[shard].Set(object, record->seq_id, record->checksum);
      tail = signed_tails_[shard].Get(object);
      entry->record = std::move(record).value();
    } else {
      entry->status = record.status();
    }
    Batch* batch = entry->batch;
    if (--batch->unsigned_count == 0 && batch->closed) NoteEventLocked();
    entry = NextInLaneLocked(shard, object);
  }
}

IngestPipeline::Entry* IngestPipeline::NextInLaneLocked(
    size_t shard, storage::ObjectId object) {
  auto lane = lanes_[shard].find(object);
  std::deque<Entry*>& queue = lane->second.queue;
  // Abandoned (poisoned or destroyed): queued records are released
  // unsigned.
  while (abandoned_ && !queue.empty()) {
    --queue.front()->batch->unsigned_count;
    queue.pop_front();
  }
  if (queue.empty()) {
    lanes_[shard].erase(lane);
    work_cv_.SignalAll();  // PoisonLocked waits for idle lanes
    return nullptr;
  }
  Entry* next = queue.front();
  queue.pop_front();
  return next;
}

void IngestPipeline::CloseBatchLocked(Shard* shard) {
  shard->since_flush.Restart();
  if (shard->batches.empty() || shard->batches.back()->closed) return;
  MutexLock work(&work_mu_);
  Batch& batch = *shard->batches.back();
  batch.closed = true;
  // A batch is ready to write once it is both closed and signed; the
  // later of the two reports it.
  if (batch.unsigned_count == 0) NoteEventLocked();
}

bool IngestPipeline::PumpLocked() {
  bool progressed = false;
  while (failed_.ok()) {
    if (writing_) {
      bool synced = false;
      {
        MutexLock work(&work_mu_);
        synced = syncs_pending_ == 0;
      }
      if (!synced) break;
      CommitWriteAheadLocked();
    } else if (!FinishSealLocked() && !StartDueSealLocked() &&
               !StartWriteAheadLocked()) {
      break;
    }
    progressed = true;
  }
  return progressed;
}

Status IngestPipeline::StepLocked() {
  uint64_t seen = 0;
  {
    MutexLock work(&work_mu_);
    seen = events_;
  }
  const bool progressed = PumpLocked();
  if (!failed_.ok()) return failed_;
  if (progressed) return Status::OK();
  if (pool_ == nullptr) {
    // Inline work always finishes inside the pump, so nothing could
    // ever wake this wait.
    return Status::Internal("sequential ingest pipeline stalled");
  }
  MutexLock work(&work_mu_);
  while (events_ == seen) work_cv_.Wait();
  return Status::OK();
}

void IngestPipeline::NoteEventLocked() {
  ++events_;
  work_cv_.SignalAll();
  if (wake_ && !abandoned_) wake_();
}

bool IngestPipeline::StartWriteAheadLocked() {
  // Per shard, the closed batches at the front that finished signing.
  std::vector<size_t> ready(shards_.size(), 0);
  bool any = false;
  {
    MutexLock work(&work_mu_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      for (const std::unique_ptr<Batch>& batch : shards_[s]->batches) {
        if (!batch->closed || batch->unsigned_count > 0) break;
        ++ready[s];
      }
      any = any || ready[s] > 0;
    }
  }
  if (!any) return false;
  // A barrier's write-ahead covers every batch it closed: one fsync per
  // shard, and one outcome for the whole Drain.
  for (size_t s = 0; draining_ && s < shards_.size(); ++s) {
    if (ready[s] < shards_[s]->batches.size()) return false;
  }

  observability::TraceSpan span("ingest.write_ahead");
  Stopwatch watch;
  writing_ = true;
  write_start_micros_ = observability::ScopedLatencyTimer::NowMicros();
  write_aheads_->Increment();
  // Append on this thread, each shard's batches in order; a shard whose
  // record failed to sign or whose append failed takes no fsync and
  // commits nothing.
  std::vector<storage::WalWriter*> to_sync(shards_.size(), nullptr);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    shard.writing = ready[s];
    shard.write_status = Status::OK();
    for (size_t b = 0; b < ready[s] && shard.write_status.ok(); ++b) {
      Batch& batch = *shard.batches[b];
      for (const std::unique_ptr<Entry>& entry : batch.entries) {
        shard.write_status = entry->status;
        if (shard.write_status.ok() && shard.wal) {
          Bytes frame = EncodeWalRecordEntry(entry->record);
          batch.wal_bytes += frame.size();
          shard.write_status = shard.wal->Append(frame);
        }
        if (!shard.write_status.ok()) break;
      }
    }
    if (ready[s] > 0 && shard.write_status.ok() && shard.wal) {
      to_sync[s] = &*shard.wal;
    }
  }
  {
    MutexLock work(&work_mu_);
    syncs_pending_ = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (to_sync[s] == nullptr) continue;
      sync_results_[s] = Status::OK();
      ++syncs_pending_;
    }
  }
  // The fsyncs overlap on the I/O threads while later requests sign.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (to_sync[s] == nullptr) continue;
    storage::WalWriter* wal = to_sync[s];
    Dispatch(io_pool_.get(), [this, s, wal] { SyncShard(s, wal); });
  }
  store_seconds_ += watch.ElapsedSeconds();
  return true;
}

void IngestPipeline::SyncShard(size_t shard, storage::WalWriter* wal) {
  bool abandoned = false;
  {
    MutexLock work(&work_mu_);
    abandoned = abandoned_;
  }
  // A crash (or poison) drops a queued fsync: nothing it covers may
  // become durable after the fact.
  Status synced = abandoned ? Status::IoError("ingest pipeline abandoned "
                                              "before its write-ahead synced")
                            : wal->Sync();
  MutexLock work(&work_mu_);
  sync_results_[shard] = std::move(synced);
  if (--syncs_pending_ == 0) NoteEventLocked();
}

void IngestPipeline::CommitWriteAheadLocked() {
  observability::TraceSpan span("ingest.commit");
  Stopwatch watch;
  std::vector<Status> synced;
  {
    MutexLock work(&work_mu_);
    synced = sync_results_;
  }
  // In shard order on this thread: the epoch domain's Retire/Advance/
  // Collect must stay serialized, and a shard whose write-ahead failed
  // commits nothing, so on every shard synced_records == committed. Each
  // batch publishes on its own, so a concurrent snapshot sees an exact
  // prefix of every shard's durable batches.
  Status first_error = Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (shard.writing == 0) continue;
    Status status = shard.write_status;
    if (status.ok() && shard.wal) status = synced[s];
    ProvenanceStore& store = store_->shard(s);
    while (status.ok() && shard.writing > 0) {
      const Batch& batch = *shard.batches.front();
      for (const std::unique_ptr<Entry>& entry : batch.entries) {
        status = store.AddRecord(std::move(entry->record)).status();
        if (!status.ok()) break;
        ++committed_count_;
        committed_->Increment();
      }
      if (!status.ok()) break;
      const size_t records = batch.entries.size();
      batches_->Increment();
      batch_bytes_->Add(batch.wal_bytes);
      shard.records_since_checkpoint += records;
      inflight_ -= records;
      pending_->Sub(static_cast<int64_t>(records));
      // PublishSnapshot is allocation-free (preallocated version skeleton).
      store.PublishSnapshot();
      CompleteLocked(s, records, Status::OK());
      shard.batches.pop_front();
      --shard.writing;
    }
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  // Frees only superseded nodes no pinned reader can reach.
  store_->epoch_domain()->Collect();
  writing_ = false;
  flush_latency_->Record(observability::ScopedLatencyTimer::NowMicros() -
                         write_start_micros_);
  store_seconds_ += watch.ElapsedSeconds();
  if (!first_error.ok()) PoisonLocked(first_error);
}

bool IngestPipeline::StartDueSealLocked() {
  const CheckpointPolicy& policy = options_.checkpoint;
  if (sealing_ || !policy.enabled()) return false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (shard.records_since_checkpoint >= policy.every_records) {
      StartSealLocked(s);
      return true;
    }
  }
  return false;
}

void IngestPipeline::StartSealLocked(size_t index) {
  // Ordering is the crash-safety argument (DESIGN.md §13): roll first so
  // the horizon is a closed segment, seal the snapshot (tmp + rename,
  // atomic), and only once the seal is durable delete covered segments
  // and stale checkpoints. A crash after the roll costs an extra segment;
  // after the seal, recovery already prefers the new checkpoint and skips
  // the not-yet-deleted history; mid-GC, the survivors sit behind the
  // horizon and are skipped too.
  Shard& shard = *shards_[index];
  storage::WalWriter& wal = *shard.wal;
  Result<uint64_t> horizon = wal.RollSegment();
  if (!horizon.ok()) {
    PoisonLocked(horizon.status());
    return;
  }
  shard.records_since_checkpoint = 0;
  if (*horizon <= wal.checkpoint_horizon()) {
    return;  // nothing durable past the last checkpoint; its seal stands
  }
  sealing_ = true;
  seal_shard_ = index;
  seal_horizon_ = *horizon;
  seals_inflight_->Add(1);
  {
    MutexLock work(&work_mu_);
    seal_result_.reset();
  }
  // Nothing is appended but not committed, so the version just published
  // holds exactly the WAL content up to the horizon. The pin keeps it
  // readable while this thread commits on.
  Dispatch(sealer_.get(),
           [this, snapshot = store_->OpenSnapshot(), index, dir = wal.dir(),
            horizon = *horizon] {
             SealShard(snapshot.shard_view(index), dir, horizon);
           });
}

void IngestPipeline::SealShard(const StoreReadView& view,
                               const std::string& dir, uint64_t horizon) {
  bool abandoned = false;
  {
    MutexLock work(&work_mu_);
    abandoned = abandoned_;
  }
  Status sealed =
      abandoned ? Status::IoError("ingest pipeline abandoned before its "
                                  "seal was written")
                : CheckpointWriter::Write(env_, dir, view, horizon,
                                          *options_.checkpoint.signer,
                                          options_.checkpoint.sealer_id,
                                          options_.hash_algorithm);
  MutexLock work(&work_mu_);
  seal_result_ = std::move(sealed);
  NoteEventLocked();
}

bool IngestPipeline::FinishSealLocked() {
  if (!sealing_) return false;
  Status status = Status::OK();
  {
    MutexLock work(&work_mu_);
    if (!seal_result_) return false;
    status = *seal_result_;
  }
  sealing_ = false;
  seals_inflight_->Sub(1);
  Shard& shard = *shards_[seal_shard_];
  if (status.ok()) {
    status = RemoveStaleCheckpoints(env_, shard.wal->dir(), seal_horizon_);
  }
  if (status.ok()) status = shard.wal->GarbageCollect(seal_horizon_);
  if (!status.ok()) {
    PoisonLocked(status);
    return true;
  }
  ++shard.checkpoints;
  return true;
}

void IngestPipeline::PoisonLocked(Status status) {
  failed_ = std::move(status);
  {
    // Quiesce: queued signing, fsyncs and seals skip their work; wait
    // for those already running, since they hold batches, WALs or files.
    MutexLock work(&work_mu_);
    abandoned_ = true;
    for (;;) {
      bool lanes_idle = true;
      for (const auto& lanes : lanes_) lanes_idle = lanes_idle && lanes.empty();
      if (lanes_idle && syncs_pending_ == 0 &&
          (!sealing_ || seal_result_.has_value())) {
        break;
      }
      work_cv_.Wait();
    }
  }
  if (sealing_) {
    sealing_ = false;
    seals_inflight_->Sub(1);
  }
  writing_ = false;
  // Every batch not yet committed fails with the poison.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    for (const std::unique_ptr<Batch>& batch : shard.batches) {
      const size_t records = batch->entries.size();
      inflight_ -= records;
      pending_->Sub(static_cast<int64_t>(records));
      CompleteLocked(s, records, failed_);
    }
    shard.batches.clear();
    shard.writing = 0;
  }
}

void IngestPipeline::CompleteLocked(size_t shard, size_t records,
                                    const Status& status) {
  if (completed_) completed_(BatchCompletion{shard, records, status});
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
  // One seal at a time, each shard's once the previous one is durable.
  for (size_t i = 0; i <= shards_.size(); ++i) {
    while (sealing_) PROVDB_RETURN_IF_ERROR(StepLocked());
    if (i < shards_.size()) StartSealLocked(i);
    if (!failed_.ok()) return failed_;
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
  const size_t index = ShardIndex(id, shards_.size());
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
    // resurrecting pruned history. Drained, so no fsync is in flight.
    Status logged = shard->wal->Append(EncodeWalPruneEntry(id));
    if (logged.ok()) logged = shard->wal->Sync();
    if (!logged.ok()) {
      PoisonLocked(std::move(logged));
      return failed_;
    }
  }
  PROVDB_ASSIGN_OR_RETURN(size_t dropped, store->PruneObject(id));
  {
    // As a reopen would: recovery seeds no tail from pruned records.
    MutexLock work(&work_mu_);
    signed_tails_[index].Erase(id);
  }
  store->PublishSnapshot();
  store_->epoch_domain()->Collect();
  return dropped;
}

Status IngestPipeline::Flush() {
  MutexLock lock(&mu_);
  if (!failed_.ok() || closed_) return failed_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    CloseBatchLocked(shard.get());
  }
  PumpLocked();
  return failed_;
}

Status IngestPipeline::Poll() {
  MutexLock lock(&mu_);
  PumpLocked();
  return failed_;
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
  for (const std::unique_ptr<Shard>& shard : shards_) {
    CloseBatchLocked(shard.get());
  }
  draining_ = true;
  Status status = Status::OK();
  while (status.ok() && inflight_ > 0) status = StepLocked();
  draining_ = false;
  return status;
}

Status IngestPipeline::Close() {
  MutexLock lock(&mu_);
  if (closed_) return Status::OK();
  Status status = DrainLocked();
  // Unlike Drain, Close waits for the seal in flight and the GC behind
  // it, so the directory it leaves is compacted.
  while (status.ok() && sealing_) status = StepLocked();
  Status close_status = Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::optional<storage::WalWriter>& wal = shard->wal;
    if (!wal) continue;
    Status c = wal->Close();
    wal.reset();
    if (close_status.ok()) close_status = c;
  }
  closed_ = true;
  if (!status.ok()) return status;
  return close_status;
}

}  // namespace provdb::provenance
