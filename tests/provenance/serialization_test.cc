#include "provenance/serialization.h"

#include <gtest/gtest.h>

#include "common/varint.h"

namespace provdb::provenance {
namespace {

ProvenanceRecord MakeSampleRecord() {
  ProvenanceRecord rec;
  rec.seq_id = 17;
  rec.participant = 3;
  rec.op = OperationType::kAggregate;
  rec.inherited = true;
  rec.inputs.push_back(
      ObjectState{5, crypto::Digest::FromBytes(Bytes(20, 0xAA))});
  rec.inputs.push_back(
      ObjectState{9, crypto::Digest::FromBytes(Bytes(20, 0xBB))});
  rec.output = ObjectState{42, crypto::Digest::FromBytes(Bytes(20, 0xCC))};
  rec.checksum = Bytes(128, 0xDD);
  rec.output_snapshot = storage::Value::String("snapshot");
  rec.has_output_snapshot = true;
  return rec;
}

void ExpectRecordsEqual(const ProvenanceRecord& a, const ProvenanceRecord& b) {
  EXPECT_EQ(a.seq_id, b.seq_id);
  EXPECT_EQ(a.participant, b.participant);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.inherited, b.inherited);
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i], b.inputs[i]);
  }
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.has_output_snapshot, b.has_output_snapshot);
  if (a.has_output_snapshot) {
    EXPECT_EQ(a.output_snapshot, b.output_snapshot);
  }
}

TEST(SerializationTest, RoundTripFullRecord) {
  ProvenanceRecord rec = MakeSampleRecord();
  Bytes wire = EncodeRecord(rec);
  auto back = DecodeRecord(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectRecordsEqual(rec, *back);
}

TEST(SerializationTest, RoundTripMinimalRecord) {
  ProvenanceRecord rec;  // insert, no inputs, no snapshot
  rec.output = ObjectState{1, crypto::Digest::FromBytes(Bytes(20, 1))};
  rec.checksum = Bytes(64, 2);
  Bytes wire = EncodeRecord(rec);
  auto back = DecodeRecord(wire);
  ASSERT_TRUE(back.ok());
  ExpectRecordsEqual(rec, *back);
}

TEST(SerializationTest, RoundTripAllOperationTypes) {
  for (OperationType op : {OperationType::kInsert, OperationType::kUpdate,
                           OperationType::kAggregate}) {
    ProvenanceRecord rec = MakeSampleRecord();
    rec.op = op;
    if (op == OperationType::kInsert) rec.inputs.clear();
    auto back = DecodeRecord(EncodeRecord(rec));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, op);
  }
}

TEST(SerializationTest, EmptyInputFails) {
  EXPECT_FALSE(DecodeRecord(ByteView()).ok());
}

TEST(SerializationTest, WrongVersionFails) {
  Bytes wire = EncodeRecord(MakeSampleRecord());
  wire[0] = 0x7F;
  EXPECT_FALSE(DecodeRecord(wire).ok());
}

TEST(SerializationTest, TruncationAnywhereFails) {
  Bytes wire = EncodeRecord(MakeSampleRecord());
  // Every strict prefix must fail to decode (no silent partial parses),
  // except prefixes that happen to end exactly at the optional-snapshot
  // flag boundary — the format is self-delimiting up to trailing fields.
  for (size_t len = 0; len + 1 < wire.size(); len += 5) {
    auto r = DecodeRecord(ByteView(wire.data(), len));
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(SerializationTest, InvalidOpTagFails) {
  ProvenanceRecord rec = MakeSampleRecord();
  Bytes wire = EncodeRecord(rec);
  // The op byte follows version + seq varint + participant varint.
  // Locate it by re-encoding with a distinctive participant value.
  rec.participant = 1;
  rec.seq_id = 1;
  wire = EncodeRecord(rec);
  wire[3] = 0x77;  // version(1) + seq(1) + participant(1) -> op at index 3
  EXPECT_FALSE(DecodeRecord(wire).ok());
}

TEST(SerializationTest, HugeClaimedInputCountFails) {
  // A record claiming more inputs than bytes available must be rejected
  // without attempting a giant allocation.
  Bytes wire;
  wire.push_back(1);     // version
  wire.push_back(0);     // seq
  wire.push_back(0);     // participant
  wire.push_back(2);     // op = aggregate
  wire.push_back(0);     // inherited
  // varint 2^40 as the input count
  for (uint8_t b : {0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) wire.push_back(b);
  EXPECT_FALSE(DecodeRecord(wire).ok());
}

// The encoder writes each flag as 0 or 1 and each digest at its true
// width, so any other byte string must fail to decode: a decoder that
// read 0x02 as "true", or kept the first 32 bytes of a 40-byte digest,
// would map distinct byte strings to one record (DESIGN.md §14's
// one-encoding rule), and recipient bundles carry records with no CRC.

TEST(SerializationTest, InheritedFlagOtherThanZeroOrOneFails) {
  ProvenanceRecord rec = MakeSampleRecord();
  rec.participant = 1;
  rec.seq_id = 1;
  Bytes wire = EncodeRecord(rec);
  ASSERT_EQ(wire[4], 1);  // version, seq, participant, op, then the flag
  for (uint8_t flag : {0x02, 0x81, 0xFF}) {
    Bytes tampered = wire;
    tampered[4] = flag;
    auto back = DecodeRecord(tampered);
    ASSERT_FALSE(back.ok()) << "inherited byte " << int{flag} << " decoded";
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializationTest, SnapshotFlagOtherThanZeroOrOneFails) {
  ProvenanceRecord rec = MakeSampleRecord();
  Bytes wire = EncodeRecord(rec);
  rec.has_output_snapshot = false;
  // Everything before the flag encodes the same with or without it.
  const size_t flag_at = EncodeRecord(rec).size() - 1;
  ASSERT_EQ(wire[flag_at], 1);
  for (uint8_t flag : {0x02, 0x81, 0xFF}) {
    Bytes tampered = wire;
    tampered[flag_at] = flag;
    auto back = DecodeRecord(tampered);
    ASSERT_FALSE(back.ok()) << "snapshot byte " << int{flag} << " decoded";
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  }
}

/// An update record with one input (none when `input_hash` is empty),
/// encoded by hand so digests can be wider than any Digest holds.
Bytes HandEncodedRecord(const Bytes& input_hash, const Bytes& output_hash) {
  Bytes wire{1, 0, 0, static_cast<uint8_t>(OperationType::kUpdate), 0};
  AppendVarint64(&wire, input_hash.empty() ? 0 : 1);
  if (!input_hash.empty()) {
    AppendVarint64(&wire, 5);
    AppendLengthPrefixed(&wire, input_hash);
  }
  AppendVarint64(&wire, 5);
  AppendLengthPrefixed(&wire, output_hash);
  AppendLengthPrefixed(&wire, Bytes(4, 0xDD));  // checksum
  wire.push_back(0);                             // no snapshot
  return wire;
}

TEST(SerializationTest, DigestWiderThanDigestWidthFails) {
  const Bytes ok_hash(crypto::Digest::kMaxSize, 0xAB);
  const Bytes wide_hash(40, 0xAB);
  ASSERT_TRUE(DecodeRecord(HandEncodedRecord(ok_hash, ok_hash)).ok());

  auto wide_output = DecodeRecord(HandEncodedRecord(ok_hash, wide_hash));
  ASSERT_FALSE(wide_output.ok()) << "40-byte output hash decoded";
  EXPECT_EQ(wide_output.status().code(), StatusCode::kCorruption);

  auto wide_input = DecodeRecord(HandEncodedRecord(wide_hash, ok_hash));
  ASSERT_FALSE(wide_input.ok()) << "40-byte input hash decoded";
  EXPECT_EQ(wide_input.status().code(), StatusCode::kCorruption);
}

TEST(SerializationTest, EncodingIsDeterministic) {
  ProvenanceRecord rec = MakeSampleRecord();
  EXPECT_EQ(EncodeRecord(rec), EncodeRecord(rec));
}

}  // namespace
}  // namespace provdb::provenance
