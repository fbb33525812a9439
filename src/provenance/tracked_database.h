#ifndef PROVDB_PROVENANCE_TRACKED_DATABASE_H_
#define PROVDB_PROVENANCE_TRACKED_DATABASE_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "crypto/pki.h"
#include "provenance/bundle.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"
#include "provenance/subtree_hasher.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// Which of the paper's two compound-hashing strategies to use (§4.3).
enum class HashingMode {
  kBasic,       // rehash the whole affected tree on every operation
  kEconomical,  // memoize node hashes; rehash only changed paths
};

std::string_view HashingModeName(HashingMode mode);

/// Construction-time configuration of a TrackedDatabase.
struct TrackedDatabaseOptions {
  crypto::HashAlgorithm hash_algorithm = crypto::HashAlgorithm::kSha1;
  HashingMode hashing_mode = HashingMode::kEconomical;

  /// When true, the record of each object a primitive targets directly
  /// also carries the object's new value (for display; verification
  /// never needs it). Inherited records carry none.
  bool store_value_snapshots = false;
};

/// Phase timing and work counters for tracked operations — the metrics
/// behind Figures 7, 8, and 10. Signing and storing happen in the ingest
/// pipeline; their fields are its step times across the operation.
struct OperationMetrics {
  double hash_seconds = 0;   // subtree hashing (input + output states)
  double sign_seconds = 0;   // payload building + RSA signing ("encrypting")
  double store_seconds = 0;  // write-ahead + commit into the provenance store
  uint64_t checksums = 0;    // records (and thus signatures) committed
  uint64_t nodes_hashed = 0; // node-hash computations performed

  double total_seconds() const {
    return hash_seconds + sign_seconds + store_seconds;
  }
  void Accumulate(const OperationMetrics& other);
};

/// The system under evaluation (§5.1): a back-end database (TreeStore)
/// instrumented so every operation emits provenance records with integrity
/// checksums into a provenance database (ProvenanceStore).
///
/// Records come from complex operations (§4.4):
/// Begin/EndComplexOperation brackets a batch of Insert / Update / Delete
/// primitives, and End emits one record per surviving touched object,
/// documenting its before/after states across the whole batch, with the
/// inherited records of every ancestor (§4.2). A primitive outside a
/// complex operation runs as a one-primitive complex operation, so
/// EndComplexOperation alone hashes the primitives' output states and
/// emits their records. Aggregate, which a complex operation may not
/// contain, emits its own record.
///
/// All tracked mutation is attributed to a crypto::Participant whose key
/// signs the checksums.
///
/// The database hashes and decides which records an operation emits;
/// it neither signs nor stores them. Each record becomes an
/// IngestRequest submitted to a one-shard IngestPipeline, the system's
/// only write path, and every operation ends by draining it: an
/// operation returns only after its records are signed, committed and
/// published — and, on a durable pipeline, fsynced. Records are read
/// like the sharded service's, through OpenSnapshot() (DESIGN.md §16).
/// The pipeline publishes at every flush; the database's own pipeline
/// flushes once per operation, so its snapshots cut at operation
/// boundaries, while a borrowed pipeline's batch thresholds may also
/// flush inside a large operation.
///
/// Not movable: the hashers point into the database's own tree.
class TrackedDatabase {
 public:
  /// A database over its own memory-only pipeline with sequential
  /// signing and one batch per operation: nothing touches the disk.
  explicit TrackedDatabase(TrackedDatabaseOptions options = {});

  /// A database over `pipeline`, borrowed: it must outlive the database,
  /// and the database must be its only producer (its Aggregate reads
  /// chain tails from the store, which is exact only while every record
  /// in it came through this database and was drained). The pipeline's
  /// IngestOptions supply the WAL directory, segment size, checkpoint
  /// policy and signing pool; prune and checkpoint through it directly
  /// between operations. kInvalidArgument unless the pipeline has one
  /// shard and `options.hash_algorithm`.
  static Result<std::unique_ptr<TrackedDatabase>> Open(
      IngestPipeline* pipeline, TrackedDatabaseOptions options = {});

  TrackedDatabase(const TrackedDatabase&) = delete;
  TrackedDatabase& operator=(const TrackedDatabase&) = delete;

  // -- Bootstrap -------------------------------------------------------

  /// Direct, untracked access to the back-end tree for loading an initial
  /// database state ("before provenance collection begins", as in the
  /// §5 experiments). Must not be used after the first tracked operation;
  /// doing so desynchronizes the hash caches.
  storage::TreeStore& bootstrap_tree();

  // -- Tracked primitive operations -------------------------------------
  //
  // Outside a complex operation, Insert, Update and Delete each run as a
  // one-primitive complex operation, which ends before they return. One
  // refused before it mutates the tree (a missing object, a non-leaf
  // Delete, another participant's operation) changes neither the tree nor
  // the store and leaves in_complex_operation() as it was. When the
  // pipeline refuses a record, the records submitted before it stand and
  // the operation is closed all the same.

  /// Insert(A, val[, parent]) with provenance (§2/§4.1). Returns the new
  /// object id. Inside a complex operation the record is deferred to End.
  Result<storage::ObjectId> Insert(const crypto::Participant& p,
                                   const storage::Value& value,
                                   storage::ObjectId parent =
                                       storage::kInvalidObjectId);

  /// Update(A, val') with provenance.
  Status Update(const crypto::Participant& p, storage::ObjectId id,
                const storage::Value& value);

  /// Delete(A) (leaf only). Emits inherited records for A's ancestors; A
  /// itself gets none (§2.1: a deleted object's provenance is no longer
  /// relevant).
  Status Delete(const crypto::Participant& p, storage::ObjectId id);

  /// Aggregate({A_1..A_n}, B): deep-copies the inputs under a fresh root B
  /// and emits the aggregation record with the non-linear checksum (§3).
  /// Not allowed inside a complex operation.
  Result<storage::ObjectId> Aggregate(
      const crypto::Participant& p,
      const std::vector<storage::ObjectId>& inputs,
      const storage::Value& root_value);

  // -- Complex operations (§4.4) ----------------------------------------

  /// Starts a complex operation attributed to `p`. Primitives until
  /// EndComplexOperation must pass the same participant.
  Status BeginComplexOperation(const crypto::Participant& p);

  /// Closes the operation, then emits the batched records (one per
  /// surviving touched object and ancestor). Directly targeted objects'
  /// records carry their final values when store_value_snapshots is set.
  Status EndComplexOperation();

  bool in_complex_operation() const { return complex_ != nullptr; }

  // -- Introspection -----------------------------------------------------

  const storage::TreeStore& tree() const { return tree_; }

  /// The pipeline's shard-0 store, the writer's own (counts and sizes;
  /// records are read through OpenSnapshot).
  const ProvenanceStore& provenance() const { return *store_; }

  /// For the attack simulator and tests only.
  ProvenanceStore* mutable_provenance() { return store_; }

  /// Publishes, then pins a snapshot of every record so far — including
  /// changes made through mutable_provenance(). Valid until released;
  /// must not outlive the database.
  StoreSnapshot OpenSnapshot();

  const TrackedDatabaseOptions& options() const { return options_; }

  /// Current compound hash of subtree(id) under the configured algorithm.
  Result<crypto::Digest> CurrentHash(storage::ObjectId id);

  /// Packages subtree(id) and its provenance object for a data recipient.
  Result<RecipientBundle> ExportForRecipient(storage::ObjectId id);

  /// Fine-grained export: additionally ships the own chains of every
  /// object inside subtree(id), so the recipient sees cell-level history
  /// (who amended which cell) rather than only the subject's inherited
  /// records. Larger, but verifies with the same ProvenanceVerifier.
  Result<RecipientBundle> ExportForRecipientDeep(storage::ObjectId id);

  /// Metrics of the most recent tracked operation (a whole complex
  /// operation counts as one).
  const OperationMetrics& last_op_metrics() const { return last_metrics_; }

  /// Metrics accumulated since construction / ResetMetrics.
  const OperationMetrics& cumulative_metrics() const {
    return cumulative_metrics_;
  }
  void ResetMetrics();

 private:
  struct ComplexState {
    const crypto::Participant* participant;
    /// Pre-operation state hashes, captured at first touch.
    std::unordered_map<storage::ObjectId, crypto::Digest> pre_hashes;
    /// Basic mode: whole-tree hash pools captured at the first touch of
    /// each tree root (one "input walk" per tree, as §4.3 describes).
    std::unordered_map<storage::ObjectId, crypto::Digest> basic_pre_pool;
    std::set<storage::ObjectId> basic_pre_walked_roots;
    /// Objects whose subtree changed (directly or via descendants).
    std::set<storage::ObjectId> touched;
    /// Objects directly targeted by a primitive (as opposed to ancestors
    /// that only inherit).
    std::set<storage::ObjectId> direct;
    std::set<storage::ObjectId> inserted;
    std::set<storage::ObjectId> deleted;
    OperationMetrics metrics;
  };

  /// Current hash of subtree(id), honoring the hashing mode; adds elapsed
  /// time and node-hash work to `metrics`. In Basic mode the walk also
  /// stores every node's digest into `digests` when non-null; the
  /// economical cache holds them otherwise.
  Result<crypto::Digest> ComputeHash(
      storage::ObjectId id, OperationMetrics* metrics,
      std::unordered_map<storage::ObjectId, crypto::Digest>* digests =
          nullptr);

  /// The pipeline's cumulative work counters.
  struct PipelineTotals {
    uint64_t committed = 0;
    double sign_seconds = 0;
    double store_seconds = 0;
  };

  TrackedDatabase(TrackedDatabaseOptions options,
                  std::unique_ptr<IngestPipeline> owned_pipeline,
                  IngestPipeline* pipeline);

  /// Notifies the economical cache of a mutation at `id`.
  void InvalidatePath(storage::ObjectId id);

  /// Submits one record's request; the pipeline signs and stores it.
  /// For kInsert, `pre_hash` must be null; for kUpdate it may be null only
  /// for objects predating provenance collection (bootstrap data).
  Status EmitRecord(const crypto::Participant& p, OperationType op,
                    bool inherited, storage::ObjectId id,
                    const crypto::Digest* pre_hash,
                    const crypto::Digest& post_hash,
                    const storage::Value* snapshot);

  /// Submits `request`. When the pipeline refuses it, drains what the
  /// failing operation already submitted: its earlier records stand.
  Status Submit(const IngestRequest& request);

  /// Runs `body`, a primitive's complex-operation part (validate, capture
  /// input states, mutate the tree, mark what it touched), in the open
  /// complex operation, or in a one-primitive operation of its own that
  /// ends with it. A body fails only before it mutates the tree; its own
  /// operation is then discarded.
  Status RunPrimitive(const crypto::Participant& p,
                      const std::function<Status()>& body);

  /// Captures pre-hashes of `id` and its ancestors into the complex batch
  /// if not yet captured. Must run before the mutation.
  Status CapturePreHashes(storage::ObjectId id);

  /// Records that a primitive changed `id` itself: a direct target,
  /// touched along with its ancestors, whose cached digests go dirty.
  void MarkChanged(storage::ObjectId id);

  PipelineTotals Totals() const;

  /// Drains the pipeline, then records `metrics` plus the pipeline's
  /// work since the last finished operation.
  Status FinishOperation(OperationMetrics metrics);

  TrackedDatabaseOptions options_;
  storage::TreeStore tree_;
  std::unique_ptr<IngestPipeline> owned_pipeline_;  // null when borrowed
  IngestPipeline* pipeline_;
  ProvenanceStore* store_;  // pipeline_'s shard 0
  SubtreeHasher basic_hasher_;
  EconomicalHasher economical_hasher_;
  std::unique_ptr<ComplexState> complex_;
  PipelineTotals finished_;  // Totals() when the last operation finished
  OperationMetrics last_metrics_;
  OperationMetrics cumulative_metrics_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_TRACKED_DATABASE_H_
