#ifndef PROVDB_PROVENANCE_SNAPSHOT_H_
#define PROVDB_PROVENANCE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/epoch.h"
#include "common/result.h"
#include "provenance/chain_index.h"
#include "provenance/record.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// Per-object record chains keyed (hence ordered) by object id, each in
/// seqID order: what StoreSnapshot::AllChains returns and
/// VerifyRecordChains checks.
using RecordChains =
    std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>;

/// One shard's immutable state at a publish point (a group-commit batch
/// boundary). The writer fills a preallocated spare and publishes it with
/// a single atomic store — the ingest hot path's snapshot cost is that
/// store plus retiring the previous version, nothing else. Readers reach
/// versions only through an epoch pin (StoreSnapshot), which is what
/// keeps `root` traversable while the writer keeps path-copying.
struct StoreVersion : EpochRetired {
  const ChainIndex::Node* root = nullptr;
  uint64_t record_count = 0;
  uint64_t live_records = 0;
  /// Publish sequence number: the how-many-th batch boundary this is for
  /// the shard. Strictly increasing; the differential harness uses it to
  /// name the durable batch prefix a snapshot corresponds to.
  uint64_t tick = 0;
};

/// Read-only view of one shard at one version. Plain value type: copying
/// copies three pointers-worth of state, no ownership. A view is only
/// valid while the snapshot whose epoch pin protects its version lives.
class StoreReadView {
 public:
  StoreReadView() = default;
  /// From a published version; a null version is an empty view (shard
  /// that has never published — zero durable batches).
  explicit StoreReadView(const StoreVersion* version)
      : root_(version != nullptr ? version->root : nullptr),
        record_count_(version != nullptr ? version->record_count : 0),
        live_records_(version != nullptr ? version->live_records : 0),
        tick_(version != nullptr ? version->tick : 0) {}

  uint64_t record_count() const { return record_count_; }
  uint64_t live_record_count() const { return live_records_; }
  uint64_t tick() const { return tick_; }

  /// Newest chain cell for `id`; null when the object has no live chain
  /// in this view (unknown, or pruned — tombstone).
  const ChainNode* head_for(storage::ObjectId id) const;

  /// The object's chain in seqID order (empty when none).
  std::vector<const ProvenanceRecord*> ChainRecords(
      storage::ObjectId id) const {
    return ChainRecords(head_for(id));
  }

  /// The chain ending at `head`, in seqID order (empty for null).
  static std::vector<const ProvenanceRecord*> ChainRecords(
      const ChainNode* head);

  /// Every live chain, appended into `out`.
  void AppendChains(RecordChains* out) const;

  /// Visits each live chain head (tombstones skipped).
  template <typename Fn>
  void ForEachChain(Fn&& fn) const {
    ChainIndex::ForEachLeaf(root_, [&](const ChainIndex::Leaf& leaf) {
      if (leaf.head != nullptr) {
        fn(leaf.key, leaf.head);
      }
    });
  }

 private:
  const ChainIndex::Node* root_ = nullptr;
  uint64_t record_count_ = 0;
  uint64_t live_records_ = 0;
  uint64_t tick_ = 0;
};

/// A consistent cross-shard cut of a (possibly moving) sharded store,
/// pinned in the store's epoch domain for its whole lifetime. Each
/// shard's view is that shard's latest *published* version — always an
/// exact prefix of its durable, fsynced batches, never a half-applied
/// batch — so verify/audit/query over a snapshot read stable immutable
/// state while ingest keeps committing.
///
/// Shards are cut independently (each at its own batch boundary), which
/// is the strongest guarantee a sharded store offers: §3.2 chains are
/// per-object and objects never span shards, so every chain in a
/// snapshot is internally consistent; only cross-shard aggregate-input
/// lookups can see "input chain not yet caught up", exactly as a
/// quiesced store stopped at the same per-shard prefixes would.
///
/// Snapshots are the only way to read records: the auditor, the
/// verifier's VerifyStore, the query helpers and the server all take one.
/// A snapshot borrows the store: it must not outlive the
/// ShardedProvenanceStore (IngestPipeline, TrackedDatabase) it was opened
/// on, and record pointers read through it are valid only while it
/// lives. Holding one blocks no writer — it only defers reclamation of
/// superseded chain/index nodes.
class StoreSnapshot {
 public:
  StoreSnapshot() = default;
  StoreSnapshot(EpochDomain::Guard guard, std::vector<StoreReadView> views)
      : guard_(std::move(guard)), views_(std::move(views)) {}
  StoreSnapshot(StoreSnapshot&&) = default;
  StoreSnapshot& operator=(StoreSnapshot&&) = default;

  size_t num_shards() const { return views_.size(); }
  const StoreReadView& shard_view(size_t index) const { return views_[index]; }

  /// The epoch this snapshot is pinned at (0 for an empty snapshot).
  uint64_t epoch() const { return guard_.epoch(); }

  uint64_t record_count() const;
  uint64_t live_record_count() const;

  /// Every live chain across all shards; keyed by object id, so reports
  /// do not depend on the shard count.
  RecordChains AllChains() const;

  /// The live chain of one object (empty when unknown or pruned).
  std::vector<const ProvenanceRecord*> ChainRecords(storage::ObjectId id)
      const;

  /// The subject's provenance object (ProvenanceStore::ExtractProvenance
  /// over this cut): its chain plus, transitively, every aggregation
  /// input's chain up to the matching state. The snapshot's own records
  /// come back, uncopied, in ascending (object id, seqID) order — the
  /// canonical linear extension of the seqID partial order, independent
  /// of the shard count — as ChainRecords and AllChains yield them.
  Result<std::vector<const ProvenanceRecord*>> ExtractProvenance(
      storage::ObjectId subject) const;

 private:
  /// Newest chain cell of `id`; null when unknown or pruned.
  const ChainNode* head_for(storage::ObjectId id) const;

  EpochDomain::Guard guard_;
  std::vector<StoreReadView> views_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_SNAPSHOT_H_
