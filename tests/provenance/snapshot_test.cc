// Regression pin for the epoch-based snapshot read path (DESIGN.md §16):
// everything read through a StoreSnapshot of a drained pipeline must be
// byte-identical to the sequential reference store read by its own
// writer, a snapshot held across further ingest must keep returning its
// original batch prefix, and TrackedDatabase snapshots cut at operation
// boundaries. Also unit-tests the COW ChainIndex the snapshots traverse.

#include "provenance/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "provenance/chain_index.h"
#include "provenance/query.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::ChainsByIndex;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::OneShardCopy;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::SortByObjectAndSeq;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;
using storage::Value;

/// Every live chain of `snapshot`, encoded, keyed by object id.
std::map<ObjectId, std::vector<Bytes>> EncodeChains(
    const StoreSnapshot& snapshot) {
  std::map<ObjectId, std::vector<Bytes>> out;
  for (const auto& [object, chain] : snapshot.AllChains()) {
    for (const ProvenanceRecord* rec : chain) {
      out[object].push_back(EncodeRecord(*rec));
    }
  }
  return out;
}

/// The reference store's chain of `id`, encoded, in seqID order.
std::vector<Bytes> EncodeReferenceChain(const ProvenanceStore& reference,
                                        ObjectId id) {
  std::vector<Bytes> out;
  for (uint64_t index : reference.ChainOf(id)) {
    out.push_back(EncodeRecord(reference.record(index)));
  }
  return out;
}

std::vector<Bytes> Encode(const std::vector<const ProvenanceRecord*>& chain) {
  std::vector<Bytes> out;
  for (const ProvenanceRecord* rec : chain) {
    out.push_back(EncodeRecord(*rec));
  }
  return out;
}

// ---------------------------------------------------------------------
// ChainIndex: the 16-way radix trie under every snapshot. It updates in
// place only nodes born at the current publish tick.
// ---------------------------------------------------------------------

TEST(ChainIndexTest, FindOnEmptyTrieIsNull) {
  EXPECT_EQ(ChainIndex::Find(nullptr, 42), nullptr);
}

TEST(ChainIndexTest, InsertThenFindManyKeys) {
  EpochDomain domain;
  ChainIndex::Node* root = nullptr;
  // Keys chosen to collide in low nibbles (0x10 apart) and to include
  // wide spreads, so both BuildSplit and deep descent are exercised.
  std::vector<ObjectId> keys;
  for (uint64_t i = 0; i < 300; ++i) {
    keys.push_back(i * 16 + (i % 3));
    keys.push_back(0xABCD000000000000ull + i);
  }
  for (ObjectId key : keys) {
    root = ChainIndex::Insert(root, key, nullptr, /*tick=*/0, domain);
  }
  for (ObjectId key : keys) {
    const ChainIndex::Leaf* found = ChainIndex::Find(root, key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(found->key, key);
  }
  EXPECT_EQ(ChainIndex::Find(root, 0xFFFFFFFFFFFFFFFFull), nullptr);
  // Every node was born at the tick it was updated at: nothing retired.
  EXPECT_EQ(domain.retired_pending(), 0u);
  ChainIndex::FreeAll(root);
}

TEST(ChainIndexTest, SameKeyInsertReplacesTheLeaf) {
  EpochDomain domain;
  ChainIndex::Node* root =
      ChainIndex::Insert(nullptr, 7, nullptr, /*tick=*/0, domain);

  auto* cell = new ChainNode;
  cell->record = nullptr;
  cell->index = 0;
  cell->prev = nullptr;
  cell->length = 1;
  // A later tick: the leaf and the root are copied, and the originals
  // retired into the domain, which frees them (covered by ASan).
  root = ChainIndex::Insert(root, 7, cell, /*tick=*/1, domain);

  const ChainIndex::Leaf* found = ChainIndex::Find(root, 7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->head, cell);
  EXPECT_EQ(domain.retired_pending(), 2u);
  ChainIndex::FreeAll(root);
}

// The rule snapshots rest on: an insert at a later tick never writes a
// node an earlier root reaches, and at its own tick it copies each node
// once and then updates the copy in place.
TEST(ChainIndexTest, InsertCopiesOnlyNodesBornBeforeTheTick) {
  EpochDomain domain;
  ChainIndex::Node* published = nullptr;
  for (ObjectId key = 1; key <= 64; ++key) {
    published = ChainIndex::Insert(published, key, nullptr, 0, domain);
  }
  std::vector<std::pair<ObjectId, const ChainNode*>> before;
  ChainIndex::ForEachLeaf(published, [&](const ChainIndex::Leaf& leaf) {
    before.emplace_back(leaf.key, leaf.head);
  });

  // Chain cells as AddRecord links them; FreeAll frees them with root.
  auto* first = new ChainNode;
  auto* second = new ChainNode;
  second->prev = first;
  auto* other = new ChainNode;
  ChainIndex::Node* root = published;
  root = ChainIndex::Insert(root, 5, first, 1, domain);
  ASSERT_NE(root, published);
  const uint64_t copied = domain.retired_pending();
  EXPECT_GT(copied, 0u);
  // The same path again, and a new key under the copied root: in place.
  root = ChainIndex::Insert(root, 5, second, 1, domain);
  root = ChainIndex::Insert(root, 0x105, other, 1, domain);
  EXPECT_EQ(domain.retired_pending(), copied);
  EXPECT_EQ(ChainIndex::Find(root, 5)->head, second);
  EXPECT_EQ(ChainIndex::Find(root, 0x105)->head, other);

  // The earlier root still reads exactly what it held.
  std::vector<std::pair<ObjectId, const ChainNode*>> after;
  ChainIndex::ForEachLeaf(published, [&](const ChainIndex::Leaf& leaf) {
    after.emplace_back(leaf.key, leaf.head);
  });
  EXPECT_EQ(after, before);
  EXPECT_EQ(ChainIndex::Find(published, 0x105), nullptr);
  ChainIndex::FreeAll(root);
}

TEST(ChainIndexTest, ForEachLeafVisitsEveryKeyOnce) {
  EpochDomain domain;
  ChainIndex::Node* root = nullptr;
  for (uint64_t key = 100; key < 164; ++key) {
    root = ChainIndex::Insert(root, key, nullptr, /*tick=*/0, domain);
  }
  std::map<ObjectId, int> seen;
  ChainIndex::ForEachLeaf(root,
                          [&](const ChainIndex::Leaf& leaf) {
                            ++seen[leaf.key];
                          });
  EXPECT_EQ(seen.size(), 64u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "key " << key;
    EXPECT_GE(key, 100u);
    EXPECT_LT(key, 164u);
  }
  ChainIndex::FreeAll(root);
}

// ---------------------------------------------------------------------
// Snapshot reads vs the sequential reference store. The reference is
// built inline by IngestWorkloadBuilder through the same signing code and
// read by its own writer (record, ChainOf, ExtractProvenance), never
// through a snapshot.
// ---------------------------------------------------------------------

struct QuiescedFixture {
  IngestWorkloadBuilder builder;
  std::unique_ptr<IngestPipeline> pipeline;

  // In-place init (the builder is neither copyable nor movable).
  void Build(uint64_t seed, size_t num_shards) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Status s = RandomDifferentialWorkload(&builder, seed);
    ASSERT_TRUE(s.ok()) << s.ToString();
    IngestOptions options;
    options.num_shards = num_shards;
    options.max_batch_records = 5;
    std::string root = ::testing::TempDir() + "/provdb_snap_" +
                       std::to_string(seed) + "_" +
                       std::to_string(num_shards);
    ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
    auto replayed = ReplayThroughPipeline(Env::Default(), root,
                                          builder.requests(), options);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    pipeline = std::move(*replayed);
  }
};

TEST(StoreSnapshotTest, SnapshotReadsMatchDirectReadsByteForByte) {
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    QuiescedFixture fx;
    fx.Build(0x5A4B0001u, num_shards);
    if (::testing::Test::HasFatalFailure()) return;
    const ProvenanceStore& reference = fx.builder.reference_store();
    StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

    EXPECT_EQ(snapshot.num_shards(), num_shards);
    EXPECT_GT(snapshot.epoch(), 0u);
    EXPECT_EQ(snapshot.record_count(), reference.record_count());
    EXPECT_EQ(snapshot.live_record_count(), reference.live_record_count());

    // Chain maps: identical keys and byte-identical records.
    auto direct = ChainsByIndex(reference);
    auto snapped = snapshot.AllChains();
    ASSERT_EQ(snapped.size(), direct.size());
    for (const auto& [object, chain] : direct) {
      SCOPED_TRACE("object " + std::to_string(object));
      auto it = snapped.find(object);
      ASSERT_NE(it, snapped.end());
      EXPECT_EQ(Encode(it->second), Encode(chain));
    }

    // Per-object chain lookups agree, including unknown objects.
    for (ObjectId id : fx.builder.tracked_objects()) {
      EXPECT_EQ(Encode(snapshot.ChainRecords(id)),
                EncodeReferenceChain(reference, id))
          << "object " << id;
    }
    EXPECT_TRUE(snapshot.ChainRecords(0xFFFFFFFFull).empty());

    // Extraction closure agrees with the reference's, reordered into the
    // snapshot's (object id, seqID) order.
    for (ObjectId id : fx.builder.tracked_objects()) {
      SCOPED_TRACE("extract object " + std::to_string(id));
      auto from_snapshot = snapshot.ExtractProvenance(id);
      auto expected = reference.ExtractProvenance(id);
      ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      SortByObjectAndSeq(&*expected);
      ASSERT_EQ(from_snapshot->size(), expected->size());
      for (size_t i = 0; i < from_snapshot->size(); ++i) {
        EXPECT_EQ(EncodeRecord(*(*from_snapshot)[i]),
                  EncodeRecord((*expected)[i]));
      }
    }
  }
}

TEST(StoreSnapshotTest, ExtractionReturnsTheSnapshotsOwnRecords) {
  QuiescedFixture fx;
  fx.Build(0x5A4B0004u, 2);
  if (::testing::Test::HasFatalFailure()) return;
  StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

  size_t aggregate_closures = 0;
  for (ObjectId id : fx.builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    auto extracted = snapshot.ExtractProvenance(id);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    // The closure is a prefix of each object's chain, in (object id,
    // seqID) order, at the addresses ChainRecords yields: no copies.
    std::map<ObjectId, std::vector<const ProvenanceRecord*>> by_object;
    for (const ProvenanceRecord* rec : *extracted) {
      by_object[rec->output.object_id].push_back(rec);
    }
    std::vector<const ProvenanceRecord*> expected;
    for (const auto& [object, records] : by_object) {
      const std::vector<const ProvenanceRecord*> chain =
          snapshot.ChainRecords(object);
      ASSERT_LE(records.size(), chain.size()) << "object " << object;
      expected.insert(expected.end(), chain.begin(),
                      chain.begin() + static_cast<std::ptrdiff_t>(
                                          records.size()));
    }
    EXPECT_EQ(*extracted, expected);
    EXPECT_EQ(by_object[id], snapshot.ChainRecords(id));
    if (by_object.size() > 1) ++aggregate_closures;
  }
  // The workload aggregates, so some closures span several chains.
  EXPECT_GT(aggregate_closures, 0u);
  EXPECT_FALSE(snapshot.ExtractProvenance(0xFFFFFFFFull).ok());
}

TEST(StoreSnapshotTest, VerifierAndAuditorAgreeOnSnapshotAndStore) {
  QuiescedFixture fx;
  fx.Build(0x5A4B0002u, 2);
  if (::testing::Test::HasFatalFailure()) return;
  const ProvenanceStore& reference = fx.builder.reference_store();
  StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

  ProvenanceVerifier verifier(&fx.builder.registry(),
                              fx.builder.algorithm());
  VerificationReport via_snapshot = verifier.VerifyStore(snapshot);
  ChecksumEngine engine(fx.builder.algorithm());
  VerificationReport via_store;
  VerifyRecordChains(fx.builder.registry(), engine, ChainsByIndex(reference),
                     &via_store);
  EXPECT_TRUE(via_snapshot.ok()) << via_snapshot.ToString();
  EXPECT_EQ(via_snapshot.ToString(), via_store.ToString());

  // The reference is audited through a one-shard copy: its report text
  // must not depend on the sharding.
  auto reference_copy = OneShardCopy(reference);
  ASSERT_TRUE(reference_copy.ok()) << reference_copy.status().ToString();
  VerificationReport audit_snapshot =
      verifier.Audit(snapshot, fx.builder.tree());
  VerificationReport audit_store =
      verifier.Audit(reference_copy->OpenSnapshot(), fx.builder.tree());
  EXPECT_TRUE(audit_snapshot.ok()) << audit_snapshot.ToString();
  EXPECT_EQ(audit_snapshot.ToString(), audit_store.ToString());
}

TEST(StoreSnapshotTest, QueriesMatchTheReferenceStore) {
  QuiescedFixture fx;
  fx.Build(0x5A4B0003u, 2);
  if (::testing::Test::HasFatalFailure()) return;
  const ProvenanceStore& reference = fx.builder.reference_store();
  StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

  for (ObjectId id : fx.builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    auto history = reference.ExtractProvenance(id);
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    std::set<crypto::ParticipantId> participants;
    SeqId max_seq = 0;
    for (const ProvenanceRecord& rec : *history) {
      participants.insert(rec.participant);
      max_seq = std::max(max_seq, rec.seq_id);
    }
    auto summary = SummarizeLineage(snapshot, id);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->record_count, history->size());
    EXPECT_EQ(summary->participants, participants);
    EXPECT_EQ(summary->max_seq_id, max_seq);

    auto slice = HistorySlice(snapshot, id, 0, 1000);
    ASSERT_TRUE(slice.ok());
    std::vector<Bytes> slice_bytes;
    for (const ProvenanceRecord& rec : *slice) {
      slice_bytes.push_back(EncodeRecord(rec));
    }
    EXPECT_EQ(slice_bytes, EncodeReferenceChain(reference, id));

    auto sources = DirectSources(snapshot, id);
    ASSERT_TRUE(sources.ok());
    const ProvenanceRecord& first =
        reference.record(reference.ChainOf(id).front());
    const size_t expected_sources =
        first.op == OperationType::kAggregate ? first.inputs.size() : 0;
    EXPECT_EQ(sources->size(), expected_sources);
  }

  // Participant queries return records in ascending (object, seq) order:
  // the reference's chains filtered by signer.
  for (size_t p = 0; p < TestPki::kNumParticipants; ++p) {
    const crypto::ParticipantId participant = p + 1;  // 1-based test ids
    std::vector<Bytes> expected;
    for (const auto& [object, chain] : ChainsByIndex(reference)) {
      for (const ProvenanceRecord* rec : chain) {
        if (rec->participant == participant) {
          expected.push_back(EncodeRecord(*rec));
        }
      }
    }
    EXPECT_EQ(Encode(RecordsByParticipant(snapshot, participant)), expected)
        << "participant " << participant;
  }
}

// ---------------------------------------------------------------------
// Prefix stability: a held snapshot is immune to later ingest, and new
// snapshots only ever observe whole durable batches.
// ---------------------------------------------------------------------

TEST(StoreSnapshotTest, HeldSnapshotKeepsItsPrefixAcrossFurtherIngest) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0004u).ok());
  const auto& requests = builder.requests();
  ASSERT_GT(requests.size(), 20u);

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 4;
  std::string root = ::testing::TempDir() + "/provdb_snap_prefix";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const size_t half = requests.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());

  StoreSnapshot held = (*pipeline)->OpenSnapshot();
  const uint64_t count_at_cut = held.record_count();
  EXPECT_EQ(count_at_cut, half);
  auto chains_at_cut = held.AllChains();

  for (size_t i = half; i < requests.size(); ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());

  // The held snapshot still reads its original cut, byte for byte.
  EXPECT_EQ(held.record_count(), count_at_cut);
  auto chains_after = held.AllChains();
  ASSERT_EQ(chains_after.size(), chains_at_cut.size());
  for (const auto& [object, chain] : chains_at_cut) {
    auto it = chains_after.find(object);
    ASSERT_NE(it, chains_after.end());
    ASSERT_EQ(it->second.size(), chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*it->second[i]), EncodeRecord(*chain[i]));
    }
  }

  // A fresh snapshot sees the full drained state.
  StoreSnapshot fresh = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(fresh.record_count(), requests.size());
  EXPECT_GE(fresh.epoch(), held.epoch());
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(StoreSnapshotTest, SnapshotObservesOnlyWholeBatches) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0005u).ok());
  const auto& requests = builder.requests();
  ASSERT_GT(requests.size(), 10u);

  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 5;
  std::string root = ::testing::TempDir() + "/provdb_snap_batch";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Submit 7: the first 5 flush as a batch, 2 stay pending. A snapshot
  // must see exactly the durable batch — never the half-submitted tail.
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 5u);
  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ(snapshot.record_count(), 5u);  // the cut is immutable
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 7u);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// A store its writer filled without publishing (as recovery and a
// checkpoint load fill a shard) reads back through a snapshot, after one
// publish, exactly as its writer state: here a one-shard copy of the
// reference.
TEST(StoreSnapshotTest, DomainlessStoreReadsThroughSnapshotOnceAdopted) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0006u).ok());
  const ProvenanceStore& reference = builder.reference_store();
  auto adopted = OneShardCopy(reference);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  const StoreSnapshot snapshot = adopted->OpenSnapshot();
  const StoreReadView& view = snapshot.shard_view(0);
  EXPECT_EQ(view.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    EXPECT_EQ(Encode(view.ChainRecords(id)),
              EncodeReferenceChain(reference, id))
        << "object " << id;
  }
}

// ---------------------------------------------------------------------
// TrackedDatabase: the paper's single-participant system keeps its
// records in a one-shard store and publishes at the end of every
// operation, so it is read like the sharded service.
// ---------------------------------------------------------------------

const crypto::Participant& Alice() {
  return TestPki::Instance().participant(0);
}

TEST(StoreSnapshotTest, TrackedDatabaseHeldSnapshotKeepsItsCut) {
  TrackedDatabase db;
  ObjectId root = *db.Insert(Alice(), Value::String("db"));
  ObjectId cell = *db.Insert(Alice(), Value::Int(1), root);

  const StoreSnapshot held = db.OpenSnapshot();
  const uint64_t count_at_cut = held.record_count();
  EXPECT_EQ(count_at_cut, db.provenance().record_count());
  const auto chains_at_cut = EncodeChains(held);

  ASSERT_TRUE(db.Update(Alice(), cell, Value::Int(2)).ok());
  ASSERT_TRUE(db.Insert(Alice(), Value::Int(3), root).ok());

  // The held snapshot still reads its original cut, byte for byte...
  EXPECT_EQ(held.record_count(), count_at_cut);
  EXPECT_EQ(EncodeChains(held), chains_at_cut);

  // ...and a fresh one sees the later operations.
  const StoreSnapshot fresh = db.OpenSnapshot();
  EXPECT_EQ(fresh.record_count(), db.provenance().record_count());
  EXPECT_GT(fresh.record_count(), count_at_cut);
  EXPECT_EQ(fresh.ChainRecords(cell).size(),
            held.ChainRecords(cell).size() + 1);
}

TEST(StoreSnapshotTest, TrackedDatabasePruneIsVisibleToTheNextSnapshot) {
  TrackedDatabase db;
  ObjectId solo = *db.Insert(Alice(), Value::Int(7));
  ASSERT_TRUE(db.Update(Alice(), solo, Value::Int(8)).ok());
  EXPECT_EQ(db.OpenSnapshot().ChainRecords(solo).size(), 2u);

  // A prune through the writer hook publishes nothing by itself;
  // OpenSnapshot publishes first.
  ASSERT_TRUE(db.mutable_provenance()->PruneObject(solo).ok());
  const StoreSnapshot snapshot = db.OpenSnapshot();
  EXPECT_TRUE(snapshot.ChainRecords(solo).empty());
  EXPECT_EQ(snapshot.AllChains().count(solo), 0u);
  EXPECT_EQ(SummarizeLineage(snapshot, solo).status().code(),
            StatusCode::kNotFound);
}

TEST(StoreSnapshotTest, TrackedDatabaseFreesRetiredNodesAtOperationEnd) {
  observability::Counter* retired =
      observability::GlobalMetrics().counter("epoch.retired");
  observability::Counter* reclaimed =
      observability::GlobalMetrics().counter("epoch.reclaimed");
  TrackedDatabase db;
  ObjectId root = *db.Insert(Alice(), Value::String("db"));
  std::vector<ObjectId> cells;
  for (int i = 0; i < 4; ++i) {
    cells.push_back(*db.Insert(Alice(), Value::Int(i), root));
  }
  auto run_updates = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db.Update(Alice(), cells[static_cast<size_t>(i) % 4],
                            Value::Int(100 + i))
                      .ok());
    }
  };

  // No snapshot held: every operation frees what it retired.
  uint64_t retired0 = retired->value();
  uint64_t reclaimed0 = reclaimed->value();
  run_updates(8);
  EXPECT_GT(retired->value(), retired0);
  EXPECT_EQ(retired->value() - retired0, reclaimed->value() - reclaimed0);

  // A held snapshot keeps what it can still reach: reclaimed lags.
  retired0 = retired->value();
  reclaimed0 = reclaimed->value();
  {
    const StoreSnapshot held = db.OpenSnapshot();
    run_updates(8);
    EXPECT_GT(retired->value() - retired0, reclaimed->value() - reclaimed0);
  }

  // Released: the next operation's publish frees the backlog.
  run_updates(1);
  EXPECT_EQ(retired->value() - retired0, reclaimed->value() - reclaimed0);
}

}  // namespace
}  // namespace provdb::provenance
