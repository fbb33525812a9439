#include "provenance/provenance_store.h"

#include <gtest/gtest.h>


namespace provdb::provenance {
namespace {

crypto::Digest D(uint8_t fill) {
  return crypto::Digest::FromBytes(Bytes(20, fill));
}

ProvenanceRecord Rec(storage::ObjectId object, SeqId seq, OperationType op,
                     uint8_t out_fill, uint8_t in_fill = 0) {
  ProvenanceRecord rec;
  rec.seq_id = seq;
  rec.participant = 1;
  rec.op = op;
  if (op != OperationType::kInsert) {
    rec.inputs.push_back(ObjectState{object, D(in_fill)});
  }
  rec.output = ObjectState{object, D(out_fill)};
  rec.checksum = Bytes(128, out_fill);
  return rec;
}

TEST(ProvenanceStoreTest, AddAndLookup) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  auto i0 = store.AddRecord(Rec(7, 0, OperationType::kInsert, 1));
  ASSERT_TRUE(i0.ok());
  EXPECT_EQ(*i0, 0u);
  auto i1 = store.AddRecord(Rec(7, 1, OperationType::kUpdate, 2, 1));
  ASSERT_TRUE(i1.ok());
  EXPECT_EQ(store.record_count(), 2u);
  EXPECT_EQ(store.ChainOf(7), (std::vector<uint64_t>{0, 1}));
  auto latest = store.LatestFor(7);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ((*latest)->seq_id, 1u);
}

TEST(ProvenanceStoreTest, SeqMustIncreasePerObject) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  ASSERT_TRUE(store.AddRecord(Rec(7, 3, OperationType::kUpdate, 1)).ok());
  EXPECT_FALSE(store.AddRecord(Rec(7, 3, OperationType::kUpdate, 2)).ok());
  EXPECT_FALSE(store.AddRecord(Rec(7, 1, OperationType::kUpdate, 2)).ok());
  // Other objects are independent chains.
  EXPECT_TRUE(store.AddRecord(Rec(8, 0, OperationType::kInsert, 2)).ok());
}

TEST(ProvenanceStoreTest, LatestForUnknownObjectFails) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  EXPECT_FALSE(store.LatestFor(99).ok());
  EXPECT_TRUE(store.ChainOf(99).empty());
}

TEST(ProvenanceStoreTest, SpaceAccountingMatchesPaperSchema) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  // <SeqID, Participant, Oid, Checksum> = 12 + checksum bytes.
  store.AddRecord(Rec(1, 0, OperationType::kInsert, 1)).value();
  EXPECT_EQ(store.PaperSchemaBytes(), 12 + 128u);
  EXPECT_EQ(store.ChecksumBytes(), 128u);
  store.AddRecord(Rec(1, 1, OperationType::kUpdate, 2, 1)).value();
  EXPECT_EQ(store.PaperSchemaBytes(), 2 * (12 + 128u));
}

TEST(ProvenanceStoreTest, ExtractLinearChain) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  store.AddRecord(Rec(5, 0, OperationType::kInsert, 1)).value();
  store.AddRecord(Rec(5, 1, OperationType::kUpdate, 2, 1)).value();
  store.AddRecord(Rec(5, 2, OperationType::kUpdate, 3, 2)).value();
  store.AddRecord(Rec(6, 0, OperationType::kInsert, 9)).value();  // unrelated

  auto prov = store.ExtractProvenance(5);
  ASSERT_TRUE(prov.ok());
  EXPECT_EQ(prov->size(), 3u);
  for (const ProvenanceRecord& rec : *prov) {
    EXPECT_EQ(rec.output.object_id, 5u);
  }
}

TEST(ProvenanceStoreTest, ExtractFollowsAggregationInputs) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  // A: insert(h1) -> update(h2); B: insert(h3);
  // C = aggregate(A@h2, B@h3); A updated again afterwards (h4).
  store.AddRecord(Rec(1, 0, OperationType::kInsert, 0x01)).value();
  store.AddRecord(Rec(1, 1, OperationType::kUpdate, 0x02, 0x01)).value();
  store.AddRecord(Rec(2, 0, OperationType::kInsert, 0x03)).value();

  ProvenanceRecord agg;
  agg.seq_id = 2;
  agg.participant = 1;
  agg.op = OperationType::kAggregate;
  agg.inputs = {ObjectState{1, D(0x02)}, ObjectState{2, D(0x03)}};
  agg.output = ObjectState{3, D(0x05)};
  agg.checksum = Bytes(128, 0x05);
  store.AddRecord(agg).value();

  store.AddRecord(Rec(1, 2, OperationType::kUpdate, 0x04, 0x02)).value();

  auto prov = store.ExtractProvenance(3);
  ASSERT_TRUE(prov.ok());
  // Includes: A@0, A@1 (up to the matched state), B@0, the aggregate —
  // but NOT A@2 (which post-dates C's input snapshot).
  EXPECT_EQ(prov->size(), 4u);
  for (const ProvenanceRecord& rec : *prov) {
    EXPECT_FALSE(rec.output.object_id == 1 && rec.seq_id == 2)
        << "post-aggregation update of A leaked into C's provenance";
  }
}

TEST(ProvenanceStoreTest, ExtractHandlesSharedHistoryDiamonds) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  // A feeds two aggregates B and C, which feed D: a diamond DAG. The
  // shared A-history must be included exactly once.
  store.AddRecord(Rec(1, 0, OperationType::kInsert, 0x01)).value();

  for (storage::ObjectId mid : {2u, 3u}) {
    ProvenanceRecord agg;
    agg.seq_id = 1;
    agg.participant = 1;
    agg.op = OperationType::kAggregate;
    agg.inputs = {ObjectState{1, D(0x01)}};
    agg.output = ObjectState{mid, D(static_cast<uint8_t>(mid))};
    agg.checksum = Bytes(128, static_cast<uint8_t>(mid));
    store.AddRecord(agg).value();
  }

  ProvenanceRecord top;
  top.seq_id = 2;
  top.participant = 1;
  top.op = OperationType::kAggregate;
  top.inputs = {ObjectState{2, D(0x02)}, ObjectState{3, D(0x03)}};
  top.output = ObjectState{4, D(0x04)};
  top.checksum = Bytes(128, 0x04);
  store.AddRecord(top).value();

  auto prov = store.ExtractProvenance(4);
  ASSERT_TRUE(prov.ok());
  EXPECT_EQ(prov->size(), 4u);  // A insert + 2 mids + top, no duplicates
}

TEST(ProvenanceStoreTest, ExtractUnknownSubjectFails) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  EXPECT_FALSE(store.ExtractProvenance(1).ok());
}

TEST(ProvenanceStoreTest, SerializedBytesIsPositiveAndConsistent) {
  EpochDomain domain;
  ProvenanceStore store(domain);
  store.AddRecord(Rec(1, 0, OperationType::kInsert, 0x01)).value();
  uint64_t one = store.SerializedBytes();
  EXPECT_GT(one, 0u);
  store.AddRecord(Rec(1, 1, OperationType::kUpdate, 0x02, 0x01)).value();
  EXPECT_GT(store.SerializedBytes(), one);
}

}  // namespace
}  // namespace provdb::provenance
