#ifndef PROVDB_PROVENANCE_PROVENANCE_STORE_H_
#define PROVDB_PROVENANCE_PROVENANCE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/result.h"
#include "provenance/chain_index.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"

namespace provdb::provenance {

/// The provenance database (§5.1): an append-only collection of provenance
/// records with a per-output-object index. A provenance *object* —
/// Definition 1's partially-ordered record set for one data object — is
/// materialized on demand by ExtractProvenance, which follows aggregation
/// edges transitively (the non-linear DAG of Figure 2).
///
/// The store is in-memory only and knows nothing of durability: the
/// ingest pipeline (ingest_pipeline.h), the one write path, logs every
/// record and prune marker to its WAL and syncs before it mutates a
/// store, and ShardedProvenanceStore::Recover refills a shard's store
/// from that log.
///
/// Concurrency model (DESIGN.md §16): the store is single-writer. Records
/// live in chunked stable storage (a record, once added, never moves) and
/// the per-object chain index is a radix trie that path-copies only the
/// nodes a published root can reach, retiring the replaced ones through
/// the store's epoch domain. The writer makes its state visible to
/// concurrent readers only at explicit PublishSnapshot() points (the
/// ingest pipeline calls one per batch it commits, after the batch's
/// fsync), so a published version is always an exact prefix of durable
/// batches. Readers never touch writer state: they pin the epoch domain
/// and traverse a published version (see StoreSnapshot), which is the
/// only way to read records from another thread. The accessors below
/// (record, ChainOf, LatestFor, ExtractProvenance*) are the writer
/// reading its own state on its own thread.
///
/// Every store has one lifecycle: it is built on its domain (a shard's,
/// inside its ShardedProvenanceStore), filled in place — by recovery, a
/// checkpoint load or the pipeline's commits — and never moved.
class ProvenanceStore {
 public:
  /// An empty store retiring through `domain`, which must outlive it.
  explicit ProvenanceStore(EpochDomain& domain) : domain_(domain) {}
  ~ProvenanceStore();

  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;

  /// Appends a record; returns its stable index. Records for the same
  /// output object must arrive in increasing seqID order (enforced).
  Result<uint64_t> AddRecord(ProvenanceRecord record);

  uint64_t record_count() const { return record_count_; }

  const ProvenanceRecord& record(uint64_t index) const {
    return chunks_[index / kChunkRecords]->slots[index % kChunkRecords];
  }

  /// Mutable access — exists solely so the attack simulator and tests can
  /// model a tampering adversary. Honest code never calls this.
  ProvenanceRecord* mutable_record(uint64_t index) {
    return &chunks_[index / kChunkRecords]->slots[index % kChunkRecords];
  }

  /// Indices of the records whose *output* object is `id`, in seqID order
  /// (the object's chain, §3).
  std::vector<uint64_t> ChainOf(storage::ObjectId id) const;

  /// Latest (greatest-seqID) record for `id`, or kNotFound.
  Result<const ProvenanceRecord*> LatestFor(storage::ObjectId id) const;

  /// Materializes the provenance object for `subject`: its full chain plus,
  /// transitively, the chains (up to the matching state) of every
  /// aggregation input. Records are returned in index order, which is a
  /// linear extension of the seqID partial order.
  Result<std::vector<ProvenanceRecord>> ExtractProvenance(
      storage::ObjectId subject) const;

  /// Fine-grained variant: everything ExtractProvenance returns, plus the
  /// full chains of `descendants` (every object inside the shipped
  /// compound object, so recipients see cell-level history — e.g. exactly
  /// who amended which cell — not just the subject's inherited records).
  Result<std::vector<ProvenanceRecord>> ExtractProvenanceDeep(
      storage::ObjectId subject,
      const std::vector<storage::ObjectId>& descendants) const;

  /// Space occupied under the paper's experiment schema (§5.1):
  /// <SeqID(int), Participant(int), Oid(int), Checksum(binary(128))>,
  /// i.e. 12 bytes + the actual checksum width per record. This is the
  /// metric behind Figures 9 and 11.
  uint64_t PaperSchemaBytes() const { return paper_schema_bytes_; }

  /// Total bytes of the stored checksums alone.
  uint64_t ChecksumBytes() const { return checksum_bytes_; }

  /// Size of the live records' EncodeRecord payloads (hashes and
  /// snapshots included, framing excluded) — what a checkpoint's record
  /// frames carry.
  uint64_t SerializedBytes() const;

  /// Footnote-3 optimization: after an object is deleted, its provenance
  /// object is no longer relevant and its records may be dropped. Refuses
  /// (kFailedPrecondition, see CheckPrunable) when the object is an
  /// aggregation input of any record. In-memory only: the durable prune,
  /// which logs a prune marker write-ahead so the prune survives crash
  /// recovery, is IngestPipeline::Prune. Returns the number of records
  /// pruned.
  Result<size_t> PruneObject(storage::ObjectId id);

  /// kFailedPrecondition when `id` is an aggregation input of a live
  /// record: that history *is* still referenced by downstream provenance
  /// and pruning it would break verification of the aggregate (this is
  /// also why local chaining makes pruning safe at all, §3.2).
  Status CheckPrunable(storage::ObjectId id) const;

  /// True when `index` refers to a pruned (tombstoned) record.
  bool is_pruned(uint64_t index) const { return pruned_[index]; }

  /// Records currently live (record_count() minus pruned ones).
  uint64_t live_record_count() const { return live_count_; }

  /// Objects with a live chain.
  uint64_t live_chain_count() const { return live_chains_; }

  // --- Snapshot machinery (DESIGN.md §16) ---

  /// Publishes the current state as an immutable StoreVersion and starts
  /// a new epoch. The hot-path cost is POD fills, one atomic store, one
  /// intrusive retire, and one epoch advance — zero allocation (the
  /// version skeleton is preallocated by the mutation that dirtied the
  /// store; pinned by the alloc test). Writer-side: must be externally
  /// serialized with mutations. No-op when nothing changed. The ingest
  /// pipeline calls this once per batch it commits after the batch's
  /// fsync, so published versions are always durable-batch prefixes.
  void PublishSnapshot();

  /// Last published version (null before the first publish). Readers
  /// must hold an epoch pin to traverse it — see StoreSnapshot.
  const StoreVersion* published_version() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  /// Records per storage chunk. Chunked storage gives every record a
  /// stable address for its whole lifetime (chain cells and snapshot
  /// readers hold plain pointers), unlike a reallocating vector.
  static constexpr uint64_t kChunkRecords = 256;
  struct Chunk {
    std::array<ProvenanceRecord, kChunkRecords> slots;
  };

  /// Newest chain cell of `id` in the writer's current index; null when
  /// the object has no live chain.
  const ChainNode* HeadOf(storage::ObjectId id) const;

  /// Appends into chunked storage; returns the record's stable address.
  ProvenanceRecord* ArenaAppend(ProvenanceRecord record);

  /// Marks writer state as ahead of the published version and
  /// preallocates the next publish's version skeleton (so the publish
  /// hook itself never allocates).
  void MarkDirty();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint64_t record_count_ = 0;
  std::vector<bool> pruned_;
  /// Chain index over the records (current writer root).
  ChainIndex::Node* chain_root_ = nullptr;
  /// Objects consumed by some aggregation (prune-protected).
  std::unordered_map<storage::ObjectId, uint64_t> aggregation_input_refs_;
  uint64_t live_count_ = 0;
  uint64_t live_chains_ = 0;
  uint64_t paper_schema_bytes_ = 0;
  uint64_t checksum_bytes_ = 0;

  EpochDomain& domain_;
  std::atomic<StoreVersion*> published_{nullptr};
  StoreVersion* spare_ = nullptr;  // preallocated next version
  bool dirty_ = false;             // writer state ahead of published_
  /// Publishes so far. Index nodes born at this tick are not yet
  /// reachable from a published root.
  uint64_t publish_tick_ = 0;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_PROVENANCE_STORE_H_
