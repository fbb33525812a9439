#ifndef PROVDB_TESTS_TESTING_DIFFERENTIAL_H_
#define PROVDB_TESTS_TESTING_DIFFERENTIAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/provenance_store.h"
#include "provenance/subtree_hasher.h"
#include "provenance/tracked_database.h"
#include "storage/env.h"
#include "storage/tree_store.h"
#include "storage/value.h"
#include "testing/test_pki.h"

namespace provdb::testing {

/// Differential-test harness: builds one workload twice — as a stream of
/// fully-resolved IngestRequests (to replay through the sharded
/// pipeline) and as a sequential reference ProvenanceStore built inline
/// through the same BuildSignedIngestRecord — so tests can assert the
/// two sides are bit-identical. RSA signing is deterministic, which is
/// what makes byte-level comparison possible at all.
///
/// The builder owns a real TreeStore and hashes real subtree state, so
/// the reference side is also auditable against the live tree.
class IngestWorkloadBuilder {
 public:
  explicit IngestWorkloadBuilder(
      crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1);

  IngestWorkloadBuilder(const IngestWorkloadBuilder&) = delete;
  IngestWorkloadBuilder& operator=(const IngestWorkloadBuilder&) = delete;

  /// Tracked insert: new root-level object with a provenance record.
  Result<storage::ObjectId> Insert(size_t participant_idx,
                                   const storage::Value& value);

  /// Bootstrap data: an object placed in the tree with *no* provenance
  /// record — it predates collection; its first update starts the chain
  /// at seq 0 with an empty previous-checksum slot.
  Result<storage::ObjectId> AddBootstrapObject(const storage::Value& value);

  /// Tracked update of an existing object.
  Status Update(storage::ObjectId id, size_t participant_idx,
                const storage::Value& value);

  /// Tracked aggregation of ≥1 existing objects into a fresh compound
  /// object (inputs deduplicated and sorted into the global order).
  Result<storage::ObjectId> Aggregate(
      const std::vector<storage::ObjectId>& inputs, size_t participant_idx,
      const storage::Value& root_value);

  const std::vector<provenance::IngestRequest>& requests() const {
    return requests_;
  }
  const provenance::ProvenanceStore& reference_store() const {
    return reference_.shard(0);
  }
  const storage::TreeStore& tree() const { return tree_; }
  const crypto::ParticipantRegistry& registry() const {
    return pki_->registry();
  }
  crypto::HashAlgorithm algorithm() const { return alg_; }
  /// Every object with at least one provenance record, in creation order.
  const std::vector<storage::ObjectId>& tracked_objects() const {
    return tracked_;
  }

  /// True once `id` has a chain. Aggregates must only consume tracked
  /// inputs: an aggregate over an untracked object whose chain starts
  /// *later* records an input state no record output ever matches, which
  /// the verifier rightly reports as unresolvable.
  bool IsTracked(storage::ObjectId id) const {
    return chains_.Get(id).exists;
  }

 private:
  /// Signs `request` against the reference chain tail, commits it to the
  /// reference store, and appends it to the request stream.
  Status Apply(provenance::IngestRequest request);

  crypto::HashAlgorithm alg_;
  TestPki* pki_;
  provenance::ChecksumEngine engine_;
  storage::TreeStore tree_;
  provenance::SubtreeHasher hasher_;
  provenance::LocalChainState chains_;
  provenance::ShardedProvenanceStore reference_{1};
  std::vector<provenance::IngestRequest> requests_;
  std::vector<storage::ObjectId> tracked_;
};

/// Shape of the random workload.
struct DifferentialWorkloadOptions {
  size_t num_ops = 60;
  size_t bootstrap_objects = 3;
  double insert_weight = 0.40;
  double update_weight = 0.45;  // remainder is aggregate
};

/// Drives `num_ops` random operations (insert/update/aggregate mix with
/// skewed object popularity — early objects are hot) into `builder`,
/// reproducibly from `seed`. Log the seed on failure to replay.
Status RandomDifferentialWorkload(IngestWorkloadBuilder* builder,
                                  uint64_t seed,
                                  const DifferentialWorkloadOptions& options =
                                      DifferentialWorkloadOptions());

/// Removes every file under `root`'s shard-* subdirectories (leftovers
/// from a previous test-binary run would be recovered as live history).
/// The directories themselves may remain; an empty shard dir recovers to
/// an empty shard.
Status WipeIngestRoot(storage::Env* env, const std::string& root);

/// A TrackedDatabase over the durable one-shard pipeline it borrows. The
/// WAL lives in ShardedProvenanceStore::ShardDirName(root, 0).
struct DurableTrackedDatabase {
  std::unique_ptr<provenance::IngestPipeline> pipeline;
  std::unique_ptr<provenance::TrackedDatabase> db;
};

/// Opens (or reopens) a one-shard pipeline at `root` with `options`
/// (num_shards stays 1) and a TrackedDatabase over it.
Result<DurableTrackedDatabase> OpenDurableTrackedDatabase(
    storage::Env* env, const std::string& root,
    const provenance::IngestOptions& options = provenance::IngestOptions());

/// Recovers the one-shard store at `root` (its WAL in
/// ShardedProvenanceStore::ShardDirName(root, 0)) through
/// ShardedProvenanceStore::Recover, with the shard's report in `report`
/// when non-null.
Result<provenance::ShardedProvenanceStore> RecoverOneShard(
    storage::Env* env, const std::string& root,
    storage::WalRecoveryReport* report = nullptr,
    const crypto::RsaSignatureVerifier* checkpoint_verifier = nullptr);

/// Submits `requests` in order and, when `drain_every` > 0, calls
/// Drain() after every `drain_every` submits, so most write-aheads
/// cover every shard at once. Stops at the
/// first error.
Status SubmitWithDrainCadence(
    provenance::IngestPipeline* pipeline,
    const std::vector<provenance::IngestRequest>& requests,
    size_t drain_every);

/// Replays a request stream through a fresh sharded pipeline rooted at
/// `root_dir` (draining every `drain_every` submits when > 0) and closes
/// it cleanly; the returned (closed) pipeline exposes the resulting
/// ShardedProvenanceStore for comparison.
Result<std::unique_ptr<provenance::IngestPipeline>> ReplayThroughPipeline(
    storage::Env* env, const std::string& root_dir,
    const std::vector<provenance::IngestRequest>& requests,
    provenance::IngestOptions options, size_t drain_every = 0);

// ---------------------------------------------------------------------
// Reading stores in tests. Records are read through snapshots; these
// helpers give the other side of a comparison (a reference read by its
// own writer) or package a read for comparison.
// ---------------------------------------------------------------------

/// `store`'s live chains built from its records in index order — the
/// shape StoreSnapshot::AllChains returns and VerifyRecordChains takes.
std::map<storage::ObjectId, std::vector<const provenance::ProvenanceRecord*>>
ChainsByIndex(const provenance::ProvenanceStore& store);

/// Sorts into ascending (object id, seqID) order: a snapshot's
/// extraction order.
void SortByObjectAndSeq(std::vector<provenance::ProvenanceRecord>* records);

/// Copies `store`'s live records into the one shard of a fresh sharded
/// store and publishes it, so a store its writer reads (the sequential
/// reference) is read through a snapshot like any other.
Result<provenance::ShardedProvenanceStore> OneShardCopy(
    const provenance::ProvenanceStore& store);

/// The shard's live records in commit (store index) order, encoded — the
/// order its WAL holds them.
std::vector<Bytes> EncodedInCommitOrder(const provenance::StoreReadView& view);

// ---------------------------------------------------------------------
// Concurrent-auditor mode (DESIGN.md §16): audit a *moving* pipeline.
// ---------------------------------------------------------------------

/// What the auditor side of RunConcurrentAuditDifferential observed.
struct ConcurrentAuditStats {
  /// Snapshots opened and fully validated while the writer was live.
  size_t snapshots_checked = 0;
  /// How many of them were non-empty (saw at least one durable batch).
  size_t nonempty_snapshots = 0;
  /// Distinct total record counts observed across cuts — > 1 proves the
  /// auditor actually raced a moving store rather than a finished one.
  size_t distinct_cuts = 0;
};

/// Asserts that `snapshot` is an *exact durable batch prefix* of the
/// builder's request stream submitted with SubmitWithDrainCadence(...,
/// `drain_every`): for every shard, the cut's record count lies on a
/// group-commit boundary (where a batch reached `max_batch_records`,
/// where a Drain flushed a partial batch, or the shard's whole
/// subsequence), its chains are byte-identical to replaying exactly that
/// prefix of the shard's requests, and the verification report over the
/// cut is byte-identical to the report a quiesced store stopped at the
/// same per-shard prefixes would produce (cross-shard aggregate-input
/// resolution included). Shards are checked independently, since a
/// Drain publishes them one after another. Requires the pipeline to be
/// configured so only the record-count threshold can fire (huge
/// max_batch_bytes, no interval flush).
Status CheckSnapshotIsBatchPrefix(const provenance::StoreSnapshot& snapshot,
                                  const IngestWorkloadBuilder& builder,
                                  size_t max_batch_records,
                                  size_t drain_every = 0);

/// The concurrent-auditor differential proper: replays the builder's
/// requests through a fresh pipeline at `root` on a ThreadPool writer
/// task — draining every `drain_every` submits when > 0, and once at the
/// end — while the calling thread continuously opens snapshots and runs
/// CheckSnapshotIsBatchPrefix on each. After the writer drains, the
/// final cut must equal the full workload. Fails on the first cut that
/// is not an exact durable batch prefix. Callers log their workload
/// seed so failures replay.
Result<ConcurrentAuditStats> RunConcurrentAuditDifferential(
    storage::Env* env, const std::string& root,
    const IngestWorkloadBuilder& builder, provenance::IngestOptions options,
    size_t drain_every = 0);

}  // namespace provdb::testing

#endif  // PROVDB_TESTS_TESTING_DIFFERENTIAL_H_
