#ifndef PROVDB_PROVENANCE_INGEST_PIPELINE_H_
#define PROVDB_PROVENANCE_INGEST_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hashmix.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "observability/metrics.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "provenance/provenance_store.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace provdb::provenance {

/// One ingest operation, fully resolved by the producer: every hash and
/// every cross-object dependency (aggregate input states, their previous
/// checksums, the aggregate seqID) is materialized up front, so signing
/// and committing a request touches only its *output* object's chain.
/// That is what makes sharding by output object sound (§3.2: chains are
/// local, records for different objects never order against each other).
struct IngestRequest {
  OperationType op = OperationType::kInsert;
  /// The output object the record is for (shard routing key).
  storage::ObjectId object = storage::kInvalidObjectId;
  /// State hash of the output after the operation.
  crypto::Digest post_hash;
  /// Update only: state hash before the operation. When absent the input
  /// slot is a zero digest (bootstrap data, matching TrackedDatabase).
  bool has_pre_hash = false;
  crypto::Digest pre_hash;
  /// Aggregate only: input object states in ascending object-id order
  /// (the global total order the checksum formula requires).
  std::vector<ObjectState> inputs;
  /// Aggregate only: latest checksum of each input, aligned with
  /// `inputs`; empty entries for untracked inputs.
  std::vector<Bytes> input_prev_checksums;
  /// Aggregate only: 1 + max input seqID, computed by the producer (the
  /// inputs may live on other shards).
  SeqId aggregate_seq = 0;
  bool inherited = false;
  /// The output's new value, stored with the record for display
  /// (TrackedDatabaseOptions::store_value_snapshots). Outside the signed
  /// payload: verification never needs it.
  bool has_output_snapshot = false;
  storage::Value output_snapshot;
  /// The acting participant (borrowed; must outlive the ingest).
  const crypto::Participant* participant = nullptr;
};

/// Builds and signs the provenance record for `request` given the current
/// tail of its output object's chain. Pure function of its arguments —
/// RSA signing is deterministic — so the sharded pipeline and a
/// sequential reference ingest produce bit-identical records; the
/// differential test harness is built on exactly this property. The
/// pipeline's only signing site.
Result<ProvenanceRecord> BuildSignedIngestRecord(
    const ChecksumEngine& engine, const LocalChainState::Tail& tail,
    const IngestRequest& request);

/// N independent ProvenanceStores, one per shard; every object's records
/// live wholly inside the shard its id mixes into. Sharding is by stable
/// hash of the *output* object id, so the assignment is a durable
/// on-disk contract (see common/hashmix.h).
///
/// Owns the epoch domain all its shards retire superseded index nodes
/// through, which makes OpenSnapshot() possible: a pinned, consistent
/// cross-shard cut readable while a single writer keeps mutating. Records
/// are read only through such snapshots (DESIGN.md §16); the shards are
/// exposed for the writer and for the tamper tests' adversary.
class ShardedProvenanceStore {
 public:
  explicit ShardedProvenanceStore(size_t num_shards);

  ShardedProvenanceStore(ShardedProvenanceStore&&) = default;
  ShardedProvenanceStore& operator=(ShardedProvenanceStore&&) = default;

  /// Which shard owns `id` under an `num_shards`-way split.
  static size_t ShardOf(storage::ObjectId id, size_t num_shards) {
    return static_cast<size_t>(Mix64(id) % num_shards);
  }

  /// `root/shard-NNN`, the WAL directory of shard `index`.
  static std::string ShardDirName(const std::string& root, size_t index);

  /// Rebuilds every shard from its WAL directory under `root`. A missing
  /// shard directory is an empty shard (the crash may have hit before its
  /// first batch); per-shard salvage reports are appended to `reports`
  /// when non-null, indexed by shard. Shards holding a sealed checkpoint
  /// recover from it plus their WAL suffix; `checkpoint_verifier` checks
  /// the seals (required once any shard has checkpointed — see
  /// ProvenanceStore::RecoverFromWal).
  static Result<ShardedProvenanceStore> Recover(
      storage::Env* env, const std::string& root, size_t num_shards,
      std::vector<storage::WalRecoveryReport>* reports = nullptr,
      const crypto::SignatureVerifier* checkpoint_verifier = nullptr);

  size_t num_shards() const { return shards_.size(); }
  ProvenanceStore& shard(size_t index) { return shards_[index]; }
  const ProvenanceStore& shard(size_t index) const { return shards_[index]; }
  ProvenanceStore& shard_for(storage::ObjectId id) {
    return shards_[ShardOf(id, shards_.size())];
  }

  /// Writer-side counts: records added (pruned ones included), and live
  /// records.
  uint64_t record_count() const;
  uint64_t live_record_count() const;

  /// Pins the epoch domain and captures each shard's latest published
  /// version: a consistent cross-shard cut at batch boundaries,
  /// traversable lock-free while the writer keeps ingesting. Lock-free
  /// and allocation-light itself (one pin + one vector). See
  /// StoreSnapshot for the semantics.
  StoreSnapshot OpenSnapshot() const;

  /// Publishes every shard's current state, then frees the retired
  /// nodes no snapshot can still reach (writer-side; requires the same
  /// external serialization as mutating the shards). The ingest pipeline
  /// publishes per-shard at each group-commit fsync instead; this entry
  /// point is for recovery seeding, TrackedDatabase::OpenSnapshot, and
  /// directly-driven stores (tests, tools).
  void PublishAll();

  /// The domain protecting this store's snapshots.
  EpochDomain* epoch_domain() const { return domain_.get(); }

 private:
  /// Points every shard at domain_ — needed after recovery
  /// move-assigns freshly recovered stores into shards_.
  void AttachDomains();

  /// Declared before shards_ so it is destroyed after them: shard
  /// destructors free their live structures while retired nodes drain
  /// in the domain's destructor.
  std::unique_ptr<EpochDomain> domain_;
  std::vector<ProvenanceStore> shards_;
};

/// Periodic signed checkpoints (DESIGN.md §13). Inactive unless a signer
/// is set and at least one threshold is positive. When a shard's flush
/// commits and the shard has accumulated `every_records` records (or
/// `every_bytes` of WAL frames) since its last checkpoint, the pipeline
/// rolls the shard's WAL, seals a snapshot at the rolled horizon, and
/// garbage-collects the segments (and stale checkpoints) behind it.
struct CheckpointPolicy {
  uint64_t every_records = 0;
  uint64_t every_bytes = 0;
  /// Seals each checkpoint's root digest (borrowed; must outlive the
  /// pipeline). Recorded in the manifest as participant `sealer_id`.
  const crypto::Signer* signer = nullptr;
  uint64_t sealer_id = 0;
  /// Verifies existing checkpoint seals during Open recovery (borrowed).
  const crypto::SignatureVerifier* verifier = nullptr;

  bool enabled() const {
    return signer != nullptr && (every_records > 0 || every_bytes > 0);
  }
};

/// Tuning knobs for IngestPipeline.
struct IngestOptions {
  size_t num_shards = 1;

  /// Group commit: a shard's pending batch is flushed (signed, appended,
  /// one fsync, committed) once it holds this many requests...
  size_t max_batch_records = 64;
  /// ...or once its estimated WAL footprint reaches this many bytes...
  uint64_t max_batch_bytes = 1ull << 20;
  /// ...or, when > 0, once this many seconds have passed since the
  /// shard's last flush (checked on Submit; there is no timer thread).
  double flush_interval_seconds = 0;

  /// Baseline mode for benchmarks: flush every Submit and fsync after
  /// every single record (the paper-grade sync-per-append write path).
  bool sync_every_record = false;

  /// The flush pool. Default sequential: no pool, everything inline.
  /// With more than one thread, a flush fans its signing out across the
  /// pool, and a flush of several shards (Drain, Close, CheckpointNow)
  /// also runs each shard's WAL append + fsync as its own pool task.
  ParallelismConfig signing;

  crypto::HashAlgorithm hash_algorithm = crypto::HashAlgorithm::kSha1;

  /// Segment sizing for the per-shard WALs. The pipeline places every
  /// durability point itself (one Sync per batch).
  storage::WalOptions wal;

  /// Periodic per-shard checkpoint + WAL compaction policy.
  CheckpointPolicy checkpoint;
};

/// The sharded batched ingest engine, and the system's only write path:
/// the one place that signs records, writes WAL entries, seals
/// checkpoints and keeps chain tails. The ProvenanceServer and
/// TrackedDatabase are both producers of its requests.
///
/// Requests are checked against their output object's chain at Submit,
/// routed to a shard by stable hash of that object, buffered per shard,
/// then flushed as a batch: record signing fans out across the thread
/// pool (grouped by object, so a chain's records sign in order against
/// the running tail), the signed records are appended to the shard's
/// WAL, *one* fsync makes the whole batch durable, and only then is
/// anything committed in memory. Write-ahead ordering is therefore
/// preserved batch-wide: no in-memory commit ever precedes its
/// durability point. A Submit threshold flushes its one shard;
/// Drain/Close/CheckpointNow/Prune flush every shard together in one
/// round — one signing fan-out over all their batches, the shards'
/// fsyncs overlapping on the pool — and then commit and publish shard by
/// shard on the calling thread. A memory-only pipeline (OpenInMemory)
/// runs the same steps without the write-ahead one.
///
/// Thread-safe, serialized: every public operation acquires the
/// pipeline-wide mutex `mu_`, so concurrent producers may call
/// Submit/Drain/Close from any thread and their requests interleave at
/// request granularity (the signing and WAL fan-out inside a flush
/// still runs on the pipeline's pool; only the flushing caller, holding
/// the lock, waits on its futures). A single producer pays only an
/// uncontended lock and produces byte-identical output to the
/// pre-locking pipeline. Records are read through OpenSnapshot(), from
/// any thread, without the lock. A request that would break its chain
/// is refused at Submit and never buffered, so no producer can make a
/// flush fail by what it submits. After any flush error (sign, WAL
/// append, fsync) the pipeline is poisoned — every later
/// Submit/Drain/Prune returns the same status, that of the
/// lowest-numbered failing shard — because a failed WAL append leaves
/// no safe way to keep ordering guarantees for subsequent records of the
/// same chain.
class IngestPipeline {
 public:
  /// Opens (or reopens) a pipeline rooted at `root_dir`: recovers any
  /// existing shard directories, seeds every chain tail from the
  /// recovered records, and starts fresh WAL segments. Per-shard salvage
  /// reports land in `recovery_reports` when non-null.
  static Result<std::unique_ptr<IngestPipeline>> Open(
      storage::Env* env, const std::string& root_dir, IngestOptions options,
      std::vector<storage::WalRecoveryReport>* recovery_reports = nullptr);

  /// Opens an empty pipeline with no Env, no directory and no WAL: a
  /// flush signs, commits and publishes, and nothing survives the
  /// process. `options.wal` is unused, and an enabled checkpoint policy
  /// is kInvalidArgument (there is no WAL to compact).
  static Result<std::unique_ptr<IngestPipeline>> OpenInMemory(
      IngestOptions options);

  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Checks `request` against its output object's chain — committed or
  /// still pending — and buffers it on its shard, flushing the shard when
  /// a batch threshold fires. An insert or aggregate whose object already
  /// has a chain is kFailedPrecondition; like a malformed request it is
  /// not buffered and does not poison the pipeline. `seq_id`, when
  /// non-null, receives the seq id the record will carry. The request is
  /// neither durable nor visible in the store until its batch is flushed
  /// (Drain forces that).
  Status Submit(const IngestRequest& request, SeqId* seq_id = nullptr);

  /// Barrier: flushes every shard's pending batch (sign, append, fsync,
  /// commit) in one round. On return everything submitted is durable
  /// and visible in the store.
  Status Drain();

  /// Drain + close every shard WAL. Idempotent; further Submits fail.
  Status Close();

  /// Drains, then checkpoints every shard immediately, regardless of the
  /// policy thresholds (a signer must still be configured). Each shard's
  /// WAL is rolled, a sealed snapshot written at the rolled horizon, and
  /// the covered segments garbage-collected. Shards with nothing new
  /// since their last checkpoint are skipped without I/O.
  /// kFailedPrecondition on a memory-only pipeline.
  Status CheckpointNow();

  /// Durable footnote-3 prune (ProvenanceStore::PruneObject): drains,
  /// appends a prune marker to the owning shard's WAL and syncs it, then
  /// prunes the store, drops the object's chain tail and publishes.
  /// A prune the store would refuse (an aggregation input) is refused
  /// before the marker is written — recovery replays every marker and
  /// fails on a refused one — and does not poison the pipeline; a
  /// failed append or sync does. Returns the number of records pruned.
  Result<size_t> Prune(storage::ObjectId id);

  /// Checkpoints sealed for shard `index` since this pipeline opened.
  uint64_t shard_checkpoints(size_t index) const {
    MutexLock lock(&mu_);
    return shards_[index]->checkpoints;
  }

  /// Writer-side access for tests only: the tamper tests' adversary
  /// (like mutable_record) and epoch-domain checks. Records are read
  /// through OpenSnapshot.
  ShardedProvenanceStore* mutable_store() { return store_.get(); }

  /// Opens a pinned snapshot of the store *without* taking the pipeline
  /// lock: snapshots never serialize against Submit/Drain. Safe because
  /// store_ is set once in Open and each shard's published version is
  /// reached through one atomic load under the epoch pin. Every
  /// published version is an exact prefix of that shard's durable
  /// (fsynced) batches — the pipeline publishes the epoch tick only
  /// after each group commit's fsync + in-memory commit.
  StoreSnapshot OpenSnapshot() const { return store_->OpenSnapshot(); }

  /// The shard's WAL writer (null after Close and in a memory-only
  /// pipeline) — exposed for the fault-injection crash sweep, which
  /// asserts synced_records against committed counts.
  const storage::WalWriter* shard_wal(size_t index) const;

  uint64_t submitted() const {
    MutexLock lock(&mu_);
    return submitted_count_;
  }
  uint64_t committed() const {
    MutexLock lock(&mu_);
    return committed_count_;
  }
  /// Wall time spent in flushes since Open: in the sign step, and in the
  /// write-ahead and commit steps together (publish included).
  /// TrackedDatabase reads their change across one operation into its
  /// OperationMetrics.
  double sign_seconds() const {
    MutexLock lock(&mu_);
    return sign_seconds_;
  }
  double store_seconds() const {
    MutexLock lock(&mu_);
    return store_seconds_;
  }
  const IngestOptions& options() const { return options_; }
  const std::string& root_dir() const { return root_dir_; }

 private:
  struct Shard {
    /// Empty in a memory-only pipeline and after Close.
    std::optional<storage::WalWriter> wal;
    LocalChainState chains;
    /// The seq id each object's newest pending request will get: with
    /// `chains`, the tail Submit checks a request against.
    std::unordered_map<storage::ObjectId, SeqId> pending_seqs;
    std::vector<IngestRequest> pending;
    uint64_t pending_bytes = 0;
    Stopwatch since_flush;
    /// Committed work since the shard's last checkpoint — what the
    /// CheckpointPolicy thresholds fire against.
    uint64_t records_since_checkpoint = 0;
    uint64_t bytes_since_checkpoint = 0;
    uint64_t checkpoints = 0;
  };

  /// An empty pipeline over `store`, one shard (WAL-less until Open
  /// attaches one) per store shard.
  IngestPipeline(storage::Env* env, std::string root_dir,
                 IngestOptions options, ShardedProvenanceStore store);

  /// Group-commits the pending batches of the shards listed in
  /// `indices` (ascending) as one round: every batch's per-object groups
  /// sign in one fan-out, each shard appends and fsyncs as its own pool
  /// task, then this thread commits and publishes each durable shard in
  /// shard order and seals, one by one, the shards whose checkpoint
  /// policy fired. A shard whose batch fails to sign or sync commits
  /// nothing; the others still commit. Returns the failure of the
  /// lowest-numbered failing shard, or of the first failing seal.
  Status FlushLocked(const std::vector<size_t>& indices)
      PROVDB_REQUIRES(mu_);

  /// Roll → seal → GC for one shard (the §13 compaction step). Called
  /// only at batch boundaries, so the snapshot state equals the WAL
  /// content exactly. A no-op when nothing new lies behind the roll
  /// point.
  Status CheckpointShardLocked(Shard* shard, ProvenanceStore* store)
      PROVDB_REQUIRES(mu_);

  /// Flushes every shard in one round; the body of Drain(), factored
  /// out so Close(), CheckpointNow() and Prune() can drain under their
  /// own lock.
  Status DrainLocked() PROVDB_REQUIRES(mu_);

  /// The body of Prune().
  Result<size_t> PruneLocked(storage::ObjectId id) PROVDB_REQUIRES(mu_);

  storage::Env* env_;  // null in a memory-only pipeline
  std::string root_dir_;
  IngestOptions options_;
  ChecksumEngine engine_;
  /// Serializes every public entry point; see the class comment. Guards
  /// the shards (buffers, chain tails, WALs — their records are appended
  /// only under this lock) and the poison/counters below. The store
  /// pointer itself is set once in Open and never reassigned.
  mutable Mutex mu_;
  std::unique_ptr<ShardedProvenanceStore> store_;
  std::vector<std::unique_ptr<Shard>> shards_ PROVDB_GUARDED_BY(mu_);
  std::unique_ptr<ThreadPool> pool_;  // null when signing is sequential
  Status failed_ PROVDB_GUARDED_BY(mu_) =
      Status::OK();  // poison; see class comment
  bool closed_ PROVDB_GUARDED_BY(mu_) = false;
  uint64_t submitted_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t committed_count_ PROVDB_GUARDED_BY(mu_) = 0;
  double sign_seconds_ PROVDB_GUARDED_BY(mu_) = 0;
  double store_seconds_ PROVDB_GUARDED_BY(mu_) = 0;

  // Ingest observability (docs/OBSERVABILITY.md).
  observability::Counter* submitted_;
  observability::Counter* committed_;
  observability::Counter* batches_;
  observability::Counter* batch_bytes_;
  observability::Counter* sign_tasks_;
  observability::Gauge* pending_;
  observability::Histogram* flush_latency_;
  observability::Histogram* drain_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_INGEST_PIPELINE_H_
