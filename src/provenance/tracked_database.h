#ifndef PROVDB_PROVENANCE_TRACKED_DATABASE_H_
#define PROVDB_PROVENANCE_TRACKED_DATABASE_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "crypto/pki.h"
#include "provenance/bundle.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
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

  /// When true, provenance records of atomic outputs also carry the new
  /// value (for display; verification never needs it).
  bool store_value_snapshots = false;
};

/// Phase timing and work counters for tracked operations — the metrics
/// behind Figures 7, 8, and 10.
struct OperationMetrics {
  double hash_seconds = 0;   // subtree hashing (input + output states)
  double sign_seconds = 0;   // payload building + RSA signing ("encrypting")
  double store_seconds = 0;  // inserting records into the provenance store
  uint64_t checksums = 0;    // records (and thus signatures) emitted
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
/// Two usage modes:
///  * **Primitive operations** — Insert / Update / Delete / Aggregate emit
///    their records immediately, including the inherited records of every
///    ancestor (§4.2).
///  * **Complex operations** (§4.4) — Begin/EndComplexOperation brackets a
///    batch of primitives; one record per surviving touched object (and
///    its ancestors) is emitted at End, documenting the object's
///    before/after states across the whole batch.
///
/// All tracked mutation is attributed to a crypto::Participant whose key
/// signs the checksums.
///
/// Records live in a one-shard ShardedProvenanceStore, so the database
/// owns an epoch domain and is read like the sharded service: through
/// OpenSnapshot() (DESIGN.md §16). Every operation ends by publishing,
/// so snapshots cut at operation boundaries, and the index nodes it
/// retired are freed there unless a snapshot still pins them.
class TrackedDatabase {
 public:
  explicit TrackedDatabase(TrackedDatabaseOptions options = {});

  // -- Bootstrap -------------------------------------------------------

  /// Direct, untracked access to the back-end tree for loading an initial
  /// database state ("before provenance collection begins", as in the
  /// §5 experiments). Must not be used after the first tracked operation;
  /// doing so desynchronizes the hash caches.
  storage::TreeStore& bootstrap_tree();

  // -- Tracked primitive operations -------------------------------------

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

  /// Emits the batched records (one per surviving touched object and
  /// ancestor) and closes the operation.
  Status EndComplexOperation();

  bool in_complex_operation() const { return complex_ != nullptr; }

  // -- Introspection -----------------------------------------------------

  const storage::TreeStore& tree() const { return tree_; }

  /// The writer's own store (counts and sizes; records are read through
  /// OpenSnapshot).
  const ProvenanceStore& provenance() const { return store_.shard(0); }

  /// For the attack simulator and tests only.
  ProvenanceStore* mutable_provenance() { return &store_.shard(0); }

  /// Publishes, then pins a snapshot of every record so far — including
  /// changes made through mutable_provenance(). Valid until released;
  /// must not outlive the database.
  StoreSnapshot OpenSnapshot();

  // -- Durability (WAL) --------------------------------------------------

  /// Attaches a write-ahead log: every provenance record emitted from now
  /// on is appended (and, under WalOptions::sync_every_append, fsync'd)
  /// to `wal` *before* it is applied to the in-memory store. Records
  /// already in the store are checkpointed into the WAL first, so
  /// recovery replays the complete store. `wal` is borrowed and must
  /// outlive this database (or be detached via mutable_provenance()).
  Status AttachWal(storage::WalWriter* wal);

  /// Forces every record emitted so far onto stable storage. A record is
  /// only guaranteed to survive a crash once a Sync covering it returned
  /// OK.
  Status SyncWal();

  /// Seals a signed checkpoint of the provenance store into the attached
  /// WAL's directory and garbage-collects the segments it covers
  /// (DESIGN.md §13): the WAL is rolled, a snapshot sealed with `signer`
  /// (as participant `sealer_id`) at the rolled horizon, stale
  /// checkpoints removed, and covered segments deleted. Recovery from
  /// that directory then needs the checkpoint plus the WAL suffix only.
  /// A no-op when nothing was appended since the last checkpoint;
  /// kFailedPrecondition without an attached WAL.
  Status CheckpointWal(const crypto::Signer& signer, uint64_t sealer_id,
                       crypto::HashAlgorithm alg =
                           crypto::HashAlgorithm::kSha1);

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
  /// time and node-hash work to `metrics`.
  Result<crypto::Digest> ComputeHash(storage::ObjectId id,
                                     OperationMetrics* metrics);

  /// One post-order walk computing the digest of *every* node under
  /// `root` (the Basic strategy's single-walk form).
  Status ComputeAllHashes(
      storage::ObjectId root,
      std::unordered_map<storage::ObjectId, crypto::Digest>* out,
      OperationMetrics* metrics);

  /// Notifies the economical cache of a mutation at `id`.
  void InvalidatePath(storage::ObjectId id);

  /// Builds, signs, and stores one record; updates the chain tail.
  /// For kInsert, `pre_hash` must be null; for kUpdate it may be null only
  /// for objects predating provenance collection (bootstrap data).
  Status EmitRecord(const crypto::Participant& p, OperationType op,
                    bool inherited, storage::ObjectId id,
                    const crypto::Digest* pre_hash,
                    const crypto::Digest& post_hash,
                    const storage::Value* snapshot,
                    OperationMetrics* metrics);

  /// Captures pre-hashes of `id` and its ancestors into the complex batch
  /// if not yet captured. Must run before the mutation.
  Status CapturePreHashes(storage::ObjectId id);

  void FinishOperation(OperationMetrics metrics);

  TrackedDatabaseOptions options_;
  storage::TreeStore tree_;
  ShardedProvenanceStore store_{1};
  ChecksumEngine engine_;
  SubtreeHasher basic_hasher_;
  EconomicalHasher economical_hasher_;
  LocalChainState chains_;
  std::unique_ptr<ComplexState> complex_;
  OperationMetrics last_metrics_;
  OperationMetrics cumulative_metrics_;
  bool any_tracked_op_ = false;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_TRACKED_DATABASE_H_
