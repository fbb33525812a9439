#ifndef PROVDB_PROVENANCE_INGEST_PIPELINE_H_
#define PROVDB_PROVENANCE_INGEST_PIPELINE_H_

#include <deque>
#include <functional>
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
  /// `inputs`; empty entries for untracked inputs. Nothing orders an
  /// input's durability before the aggregate's on another shard, so a
  /// producer that needs a crashed store to verify submits an aggregate
  /// only once its inputs are durable (DESIGN.md §12).
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
/// hash of the *output* object id (`ShardIndex`), so the assignment is a
/// durable on-disk contract (see common/hashmix.h).
///
/// Owns the epoch domain all its shards are built on and retire
/// superseded index nodes through, which makes OpenSnapshot() possible: a
/// pinned, consistent cross-shard cut readable while a single writer
/// keeps mutating. Records are read only through such snapshots
/// (DESIGN.md §16); the shards are exposed for the writer and for the
/// tamper tests' adversary.
class ShardedProvenanceStore {
 public:
  explicit ShardedProvenanceStore(size_t num_shards);

  ShardedProvenanceStore(ShardedProvenanceStore&&) = default;
  ShardedProvenanceStore& operator=(ShardedProvenanceStore&&) = default;

  /// `root/shard-NNN`, the WAL directory of shard `index`.
  static std::string ShardDirName(const std::string& root, size_t index);

  /// Crash recovery: refills every shard in place from its WAL
  /// directory under `root`, then publishes once. Record entries re-add
  /// and prune markers re-prune, so pruned history stays pruned. A
  /// missing shard directory is an empty shard (the crash may have hit
  /// before its first batch). Per-shard salvage reports — torn-tail byte
  /// counts, and the checkpoint the shard loaded — are appended to
  /// `reports` when non-null, indexed by shard; corruption before a tail
  /// fails with kCorruption (DESIGN.md §8 has the decision rule).
  ///
  /// A root written with another shard count is kFailedPrecondition,
  /// since recovering it would drop or fork history: a shard directory
  /// at or past `num_shards` that holds any file, or a recovered chain
  /// whose object routes to another shard.
  ///
  /// Checkpoint-bounded recovery (DESIGN.md §13): a shard holding a
  /// sealed checkpoint loads the newest one and replays only the WAL
  /// suffix past its horizon. Its seal must verify under
  /// `checkpoint_verifier`; a checkpoint with no verifier supplied is
  /// kFailedPrecondition (recovering *around* an unverifiable snapshot
  /// would silently drop its history), and a tampered one is refused
  /// exactly like a tampered record.
  static Result<ShardedProvenanceStore> Recover(
      storage::Env* env, const std::string& root, size_t num_shards,
      std::vector<storage::WalRecoveryReport>* reports = nullptr,
      const crypto::RsaSignatureVerifier* checkpoint_verifier = nullptr);

  size_t num_shards() const { return shards_.size(); }
  ProvenanceStore& shard(size_t index) { return *shards_[index]; }
  const ProvenanceStore& shard(size_t index) const { return *shards_[index]; }
  ProvenanceStore& shard_for(storage::ObjectId id) {
    return shard(ShardIndex(id, shards_.size()));
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
  /// publishes each shard batch as it commits instead; this entry
  /// point is for recovery, TrackedDatabase::OpenSnapshot, and
  /// directly-driven stores (tests, tools).
  void PublishAll();

  /// The domain protecting this store's snapshots.
  EpochDomain* epoch_domain() const { return domain_.get(); }

 private:
  /// Declared before shards_ so it is destroyed after them: shard
  /// destructors free their live structures while retired nodes drain
  /// in the domain's destructor. Both live on the heap, so a move keeps
  /// every shard on its domain.
  std::unique_ptr<EpochDomain> domain_;
  std::vector<std::unique_ptr<ProvenanceStore>> shards_;
};

/// Periodic signed checkpoints (DESIGN.md §13). Inactive unless a signer
/// is set and `every_records` is positive. When a shard has committed
/// `every_records` records since its last checkpoint, the pipeline rolls
/// the shard's WAL at the next commit point with no write-ahead in
/// flight, seals a snapshot of the version it just published at the
/// rolled horizon, and once the seal is durable garbage-collects the
/// segments (and stale checkpoints) behind it.
struct CheckpointPolicy {
  uint64_t every_records = 0;
  /// Seals each checkpoint's root digest (borrowed; must outlive the
  /// pipeline). Recorded in the manifest as participant `sealer_id`.
  const crypto::RsaSigner* signer = nullptr;
  uint64_t sealer_id = 0;
  /// Verifies existing checkpoint seals during Open recovery (borrowed).
  const crypto::RsaSignatureVerifier* verifier = nullptr;

  bool enabled() const {
    return signer != nullptr && every_records > 0;
  }
};

/// Tuning knobs for IngestPipeline.
struct IngestOptions {
  size_t num_shards = 1;

  /// Group commit: a shard's open batch closes (and commits once it is
  /// signed and durable) when it holds this many requests (at 1, a
  /// sequential pipeline fsyncs every record on its own, while a pooled
  /// one still joins every signed one-record batch into the next
  /// write-ahead)...
  size_t max_batch_records = 64;
  /// ...or once its estimated WAL footprint reaches this many bytes...
  uint64_t max_batch_bytes = 1ull << 20;
  /// ...or, when > 0, once this many seconds have passed since the
  /// shard's last batch closed (checked on Submit; there is no timer
  /// thread).
  double flush_interval_seconds = 0;

  /// The signing pool. Default sequential: no pipeline threads, and
  /// every step runs inline on the caller. With more than one thread,
  /// records sign on this pool from Submit on, each shard's fsync runs on
  /// one of `num_shards` I/O threads, and with a checkpoint policy one
  /// background thread writes the seals.
  ParallelismConfig signing;

  crypto::HashAlgorithm hash_algorithm = crypto::HashAlgorithm::kSha1;

  /// Segment sizing for the per-shard WALs. The pipeline places every
  /// durability point itself (one Sync per shard per write-ahead).
  storage::WalOptions wal;

  /// Periodic per-shard checkpoint + WAL compaction policy.
  CheckpointPolicy checkpoint;
};

/// The outcome of one shard batch, reported to the producer on its own
/// thread (IngestPipeline::SetProducerHooks).
struct BatchCompletion {
  size_t shard = 0;
  /// The batch's size: it holds the next `records` requests Submit
  /// accepted for `shard`, in Submit order.
  size_t records = 0;
  /// OK once the batch is durable and committed; otherwise the poison,
  /// and none of its records is committed.
  Status status = Status::OK();
};

/// The sharded batched ingest engine, and the system's only write path:
/// the one place that signs records, writes WAL entries, seals
/// checkpoints and keeps chain tails. The ProvenanceServer and
/// TrackedDatabase are both producers of its requests (DESIGN.md §12).
///
/// Requests are checked against their output object's chain at Submit
/// and routed to a shard by stable hash of that object, where they join
/// the shard's open batch. Signing starts at Submit: each record signs
/// on the signing pool against its object's running signed tail, one
/// object's records in Submit order. A batch closes at a threshold (a
/// Submit threshold closes only its own shard's batch) or at a barrier
/// (Flush, Drain, Close, CheckpointNow, Prune). Every closed batch that
/// has finished signing joins the next write-ahead: the producer appends
/// each shard's records to its WAL, one fsync per shard runs on an I/O
/// thread while later requests keep signing, and only once a shard's
/// fsync returns does the producer commit its batches, publish each one
/// and report its completion. At most one write-ahead is in flight, so
/// no in-memory commit ever precedes its durability point, and per-shard
/// commit order is Submit order. At most 2 x num_shards x
/// max_batch_records records are accepted and not yet committed; Submit
/// waits beyond that.
///
/// Producer work (WAL appends, commits, publishes, completions, the
/// roll and GC around a seal) runs only on the thread calling into the
/// pipeline, never on a pipeline thread: Submit, Flush, Drain and Poll
/// do whatever is ready, and Drain waits until everything submitted is
/// committed. A producer that does not block in Drain — the server's
/// poll loop — installs a wake hook, and calls Flush or Poll when
/// woken. A
/// sequential pipeline (no pool) runs the same steps inline, and a
/// memory-only one (OpenInMemory) skips the write-ahead.
///
/// Thread-safe, serialized: every public operation acquires the
/// pipeline-wide mutex `mu_`, so concurrent producers may call
/// Submit/Drain/Close from any thread and their requests interleave at
/// request granularity. Records are read through OpenSnapshot(), from
/// any thread, without the lock. A request that would break its chain
/// is refused at Submit and never buffered, so no producer can make a
/// batch fail by what it submits. After any batch or seal error (sign,
/// WAL append, fsync, roll, seal, GC) the pipeline is poisoned: every
/// batch not yet committed fails with the status of the lowest-numbered
/// failing shard, and so does every later Submit/Drain/Prune, because a
/// failed write-ahead leaves no safe way to keep ordering guarantees for
/// later records of the same chain. A poisoned pipeline has no work left
/// in flight.
class IngestPipeline {
 public:
  /// Opens (or reopens) a pipeline rooted at `root_dir`: recovers any
  /// existing shard directories, seeds each live chain's tail from its
  /// recovered head, and starts fresh WAL segments. Per-shard salvage
  /// reports land in `recovery_reports` when non-null.
  static Result<std::unique_ptr<IngestPipeline>> Open(
      storage::Env* env, const std::string& root_dir, IngestOptions options,
      std::vector<storage::WalRecoveryReport>* recovery_reports = nullptr);

  /// Opens an empty pipeline with no Env, no directory and no WAL: a
  /// batch signs, commits and publishes, and nothing survives the
  /// process. `options.wal` is unused, and an enabled checkpoint policy
  /// is kInvalidArgument (there is no WAL to compact).
  static Result<std::unique_ptr<IngestPipeline>> OpenInMemory(
      IngestOptions options);

  /// Waits for the pipeline threads, without Close: like WalWriter,
  /// destruction models a crash, and no queued fsync or seal runs.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Checks `request` against its output object's chain — committed,
  /// signed or still pending — adds it to its shard's open batch, starts
  /// its signing, closes the batch when a threshold fires, and does the
  /// producer work that is ready. An insert or aggregate whose object
  /// already has a chain is kFailedPrecondition; like a malformed request
  /// it is not buffered and does not poison the pipeline. `seq_id`, when
  /// non-null, receives the seq id the record will carry, before any
  /// completion for it is reported. The request is neither durable nor
  /// visible in the store until its batch completes (Drain forces that).
  /// Returns the poison when the pipeline is or becomes poisoned during
  /// the call.
  Status Submit(const IngestRequest& request, SeqId* seq_id = nullptr);

  /// Closes every shard's open batch and does the producer work that is
  /// ready, without waiting for durability: the batches complete later,
  /// through Poll or any other call.
  Status Flush();

  /// Does the producer work that is ready (append a write-ahead, commit
  /// and report durable batches, finish a seal), without blocking.
  /// Returns the poison, if any.
  Status Poll();

  /// Barrier: closes every shard's open batch and waits until everything
  /// submitted is durable, committed and visible in the store. Does not
  /// wait for a background seal.
  Status Drain();

  /// Drain, wait for any seal in flight (and the GC behind it), then
  /// close every shard WAL. Idempotent; further Submits fail.
  Status Close();

  /// Drains, then checkpoints every shard immediately, regardless of the
  /// policy thresholds (a signer must still be configured), and waits
  /// for the seals. Each shard's WAL is rolled, a sealed snapshot written
  /// at the rolled horizon, and the covered segments garbage-collected.
  /// Shards with nothing new since their last checkpoint are skipped
  /// without I/O. kFailedPrecondition on a memory-only pipeline.
  Status CheckpointNow();

  /// Durable footnote-3 prune (ProvenanceStore::PruneObject): drains,
  /// appends a prune marker to the owning shard's WAL and syncs it, then
  /// prunes the store, drops the object's chain tail and publishes.
  /// A prune the store would refuse (an aggregation input) is refused
  /// before the marker is written — recovery replays every marker and
  /// fails on a refused one — and does not poison the pipeline; a
  /// failed append or sync does. Returns the number of records pruned.
  Result<size_t> Prune(storage::ObjectId id);

  /// Installs the hooks of an event-driven producer (the server). `wake`
  /// is called, with a pipeline lock held, when producer work becomes
  /// ready (a closed batch finished signing, a write-ahead's fsyncs or a
  /// seal returned) — from a pipeline thread, or from the producer's own
  /// when the work was inline: it must only schedule a later Poll, never
  /// call into the pipeline. `completed` is called on the
  /// producer's thread, inside Submit/Flush/Poll/Drain, once per batch in
  /// per-shard commit order, covering every request Submit accepted from
  /// now on. Install them while nothing is pending (after a Drain); empty
  /// functions remove them.
  void SetProducerHooks(std::function<void()> wake,
                        std::function<void(const BatchCompletion&)>
                            completed);

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
  /// after each batch's fsync + in-memory commit.
  StoreSnapshot OpenSnapshot() const { return store_->OpenSnapshot(); }

  /// The shard's WAL writer (null after Close and in a memory-only
  /// pipeline) — exposed for the fault-injection crash sweep, which
  /// asserts synced_records against committed counts. Read it only
  /// while nothing is in flight: after Drain, Close or a poison.
  const storage::WalWriter* shard_wal(size_t index) const;

  uint64_t submitted() const {
    MutexLock lock(&mu_);
    return submitted_count_;
  }
  uint64_t committed() const {
    MutexLock lock(&mu_);
    return committed_count_;
  }
  /// Time spent since Open signing records (summed over the signing
  /// threads), and on the producer's write-ahead and commit steps
  /// (publish included; an inline fsync counts, a pooled one does not).
  /// TrackedDatabase reads their change across one operation into its
  /// OperationMetrics.
  double sign_seconds() const {
    MutexLock lock(&work_mu_);
    return sign_seconds_;
  }
  double store_seconds() const {
    MutexLock lock(&mu_);
    return store_seconds_;
  }
  const IngestOptions& options() const { return options_; }
  const std::string& root_dir() const { return root_dir_; }

 private:
  struct Batch;

  /// One accepted request on its way to a commit. Its signer writes
  /// `record` and `status`; the producer reads them only once the batch
  /// is fully signed.
  struct Entry {
    IngestRequest request;
    ProvenanceRecord record;
    Status status = Status::OK();
    Batch* batch = nullptr;
  };

  /// A shard's requests between two publish points.
  struct Batch {
    std::vector<std::unique_ptr<Entry>> entries;
    uint64_t estimated_bytes = 0;  // for the max_batch_bytes threshold
    uint64_t wal_bytes = 0;        // encoded WAL entries, once appended
    /// Signing state, read and written under work_mu_: records not yet
    /// signed, and whether the batch still accepts requests.
    size_t unsigned_count = 0;
    bool closed = false;
  };

  /// An object with records accepted but not yet signed, and the sign
  /// task working them off (work_mu_). It exists exactly while a task is
  /// dispatched for the object.
  struct Lane {
    std::deque<Entry*> queue;
    SeqId last_seq = 0;  // seq id of the newest accepted record
  };

  struct Shard {
    /// Empty in a memory-only pipeline and after Close.
    std::optional<storage::WalWriter> wal;
    /// Every batch not yet committed, oldest first; only the last may
    /// be open. The first `writing` are in the write-ahead in flight.
    std::deque<std::unique_ptr<Batch>> batches;
    size_t writing = 0;
    /// Append or sign failure of this shard's part of the write-ahead.
    Status write_status = Status::OK();
    Stopwatch since_flush;
    /// Records committed since the shard's last checkpoint roll — what
    /// CheckpointPolicy::every_records fires against.
    uint64_t records_since_checkpoint = 0;
    uint64_t checkpoints = 0;
  };

  /// An empty pipeline over `store`, one shard (WAL-less until Open
  /// attaches one) per store shard.
  IngestPipeline(storage::Env* env, std::string root_dir,
                 IngestOptions options, ShardedProvenanceStore store);

  /// Runs every step of producer work that is ready, in order: commit
  /// the write-ahead whose fsyncs all returned; with none in flight,
  /// finish a durable seal, start a due seal, and start a write-ahead
  /// over every closed batch that has finished signing. Stops at a
  /// poison. Returns whether anything happened.
  bool PumpLocked() PROVDB_REQUIRES(mu_);

  /// One step of a producer wait: pumps, and sleeps until a pipeline
  /// thread reports an event unless that made progress. Callers loop on
  /// their own condition. Returns the poison, if any.
  Status StepLocked() PROVDB_REQUIRES(mu_);

  /// Closes the shard's open batch, if any.
  void CloseBatchLocked(Shard* shard) PROVDB_REQUIRES(mu_);

  /// Appends every closed, fully signed batch at the front of each
  /// shard's queue to its WAL and dispatches each shard's fsync (inside
  /// a barrier, only once every closed batch has signed).
  bool StartWriteAheadLocked() PROVDB_REQUIRES(mu_);

  /// Commits, publishes and reports, in shard order, every shard whose
  /// part of the write-ahead is durable; poisons with the lowest failing
  /// shard's status.
  void CommitWriteAheadLocked() PROVDB_REQUIRES(mu_);

  /// Rolls shard `index`'s WAL and hands a snapshot of its published
  /// version to the sealer (a no-op when nothing new lies behind the
  /// roll point). Only at a commit point with no write-ahead in flight,
  /// so the snapshot state equals the WAL content up to the horizon.
  void StartSealLocked(size_t index) PROVDB_REQUIRES(mu_);

  /// Starts the seal of the first shard whose policy fired.
  bool StartDueSealLocked() PROVDB_REQUIRES(mu_);

  /// Once the seal in flight is durable: removes stale checkpoints and
  /// garbage-collects the segments behind its horizon.
  bool FinishSealLocked() PROVDB_REQUIRES(mu_);

  /// Fails every batch not yet committed with `status`, after waiting
  /// until no pipeline thread can still touch a batch, a WAL or a file.
  void PoisonLocked(Status status) PROVDB_REQUIRES(mu_);

  /// Reports one batch to the producer's completion hook.
  void CompleteLocked(size_t shard, size_t records, const Status& status)
      PROVDB_REQUIRES(mu_);

  /// Closes every open batch and waits until all are committed; the body
  /// of Drain(), shared with Close(), CheckpointNow() and Prune().
  Status DrainLocked() PROVDB_REQUIRES(mu_);

  /// The body of Prune().
  Result<size_t> PruneLocked(storage::ObjectId id) PROVDB_REQUIRES(mu_);

  // -- Pipeline-thread tasks (inline in a sequential pipeline). -------------

  /// Signs the lane's records one after another until it runs dry.
  void SignLane(size_t shard, storage::ObjectId object);
  /// The lane's next record to sign; null once it ran dry, and then the
  /// lane is gone.
  Entry* NextInLaneLocked(size_t shard, storage::ObjectId object)
      PROVDB_REQUIRES(work_mu_);
  /// One shard's fsync of the write-ahead in flight.
  void SyncShard(size_t shard, storage::WalWriter* wal);
  /// Writes and fsyncs the checkpoint of `view` at `horizon`.
  void SealShard(const StoreReadView& view, const std::string& dir,
                 uint64_t horizon);

  /// Records an event for producers waiting in StepLocked, and wakes an
  /// event-driven producer.
  void NoteEventLocked() PROVDB_REQUIRES(work_mu_);

  storage::Env* env_;  // null in a memory-only pipeline
  std::string root_dir_;
  IngestOptions options_;
  ChecksumEngine engine_;
  /// Accepted-but-uncommitted records beyond which Submit waits.
  uint64_t max_inflight_;
  /// Serializes every public entry point; see the class comment. Guards
  /// the shards (batch queues, WALs — records are appended only under
  /// this lock) and the poison/counters below. The store pointer itself
  /// is set once in Open and never reassigned.
  mutable Mutex mu_;
  std::unique_ptr<ShardedProvenanceStore> store_;
  std::vector<std::unique_ptr<Shard>> shards_ PROVDB_GUARDED_BY(mu_);
  Status failed_ PROVDB_GUARDED_BY(mu_) =
      Status::OK();  // poison; see class comment
  bool closed_ PROVDB_GUARDED_BY(mu_) = false;
  bool writing_ PROVDB_GUARDED_BY(mu_) = false;  // a write-ahead in flight
  /// Inside a barrier: the next write-ahead waits until every closed
  /// batch has signed.
  bool draining_ PROVDB_GUARDED_BY(mu_) = false;
  uint64_t write_start_micros_ PROVDB_GUARDED_BY(mu_) = 0;
  /// The seal in flight, if any: its shard and horizon.
  bool sealing_ PROVDB_GUARDED_BY(mu_) = false;
  size_t seal_shard_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t seal_horizon_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t submitted_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t committed_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t inflight_ PROVDB_GUARDED_BY(mu_) = 0;
  double store_seconds_ PROVDB_GUARDED_BY(mu_) = 0;
  std::function<void(const BatchCompletion&)> completed_
      PROVDB_GUARDED_BY(mu_);

  /// The hand-off between the producer and the pipeline threads. Taken
  /// after mu_ when both are held; pipeline threads take only this one.
  mutable Mutex work_mu_ PROVDB_ACQUIRED_AFTER(mu_);
  CondVar work_cv_{&work_mu_};
  /// Per shard: the lanes being signed, and each object's signed tail.
  std::vector<std::unordered_map<storage::ObjectId, Lane>> lanes_
      PROVDB_GUARDED_BY(work_mu_);
  std::vector<LocalChainState> signed_tails_ PROVDB_GUARDED_BY(work_mu_);
  /// Fsyncs of the write-ahead in flight still running, and each
  /// shard's result.
  size_t syncs_pending_ PROVDB_GUARDED_BY(work_mu_) = 0;
  std::vector<Status> sync_results_ PROVDB_GUARDED_BY(work_mu_);
  /// The result of the seal in flight, once it returned.
  std::optional<Status> seal_result_ PROVDB_GUARDED_BY(work_mu_);
  uint64_t events_ PROVDB_GUARDED_BY(work_mu_) = 0;
  /// Set by a poison or the destructor: queued tasks skip their work.
  bool abandoned_ PROVDB_GUARDED_BY(work_mu_) = false;
  double sign_seconds_ PROVDB_GUARDED_BY(work_mu_) = 0;
  std::function<void()> wake_ PROVDB_GUARDED_BY(work_mu_);

  // Pipeline threads; all null in a sequential pipeline.
  std::unique_ptr<ThreadPool> pool_;    // signing
  std::unique_ptr<ThreadPool> io_pool_;  // fsyncs, one thread per shard
  std::unique_ptr<ThreadPool> sealer_;   // seals, with a checkpoint policy

  // Ingest observability (docs/OBSERVABILITY.md).
  observability::Counter* submitted_;
  observability::Counter* committed_;
  observability::Counter* batches_;
  observability::Counter* batch_bytes_;
  observability::Counter* write_aheads_;
  observability::Counter* sign_tasks_;
  observability::Counter* submit_waits_;
  observability::Gauge* pending_;
  observability::Gauge* seals_inflight_;
  observability::Histogram* flush_latency_;
  observability::Histogram* drain_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_INGEST_PIPELINE_H_
