#include "provenance/serialization.h"

#include "common/varint.h"

namespace provdb::provenance {

namespace {

constexpr uint8_t kRecordFormatVersion = 1;

/// Reads a one-byte flag; the encoder writes only 0 and 1.
Result<bool> ReadFlag(VarintReader* reader, const char* field) {
  PROVDB_ASSIGN_OR_RETURN(ByteView raw, reader->ReadRaw(1));
  if (raw[0] > 1) {
    return Status::Corruption(std::string(field) + " flag out of range");
  }
  return raw[0] == 1;
}

}  // namespace

Result<crypto::Digest> ReadDigest(VarintReader* reader) {
  PROVDB_ASSIGN_OR_RETURN(ByteView raw, reader->ReadLengthPrefixedView());
  if (raw.size() > crypto::Digest::kMaxSize) {
    return Status::Corruption("digest field exceeds digest width");
  }
  return crypto::Digest::FromBytes(raw);
}

Bytes EncodeRecord(const ProvenanceRecord& record) {
  Bytes out;
  AppendByte(&out, kRecordFormatVersion);
  AppendVarint64(&out, record.seq_id);
  AppendVarint64(&out, record.participant);
  AppendByte(&out, static_cast<uint8_t>(record.op));
  AppendByte(&out, record.inherited ? 1 : 0);

  AppendVarint64(&out, record.inputs.size());
  for (const ObjectState& in : record.inputs) {
    AppendVarint64(&out, in.object_id);
    AppendLengthPrefixed(&out, in.state_hash.view());
  }
  AppendVarint64(&out, record.output.object_id);
  AppendLengthPrefixed(&out, record.output.state_hash.view());
  AppendLengthPrefixed(&out, record.checksum);

  AppendByte(&out, record.has_output_snapshot ? 1 : 0);
  if (record.has_output_snapshot) {
    record.output_snapshot.CanonicalEncode(&out);
  }
  return out;
}

Result<ProvenanceRecord> DecodeRecord(ByteView data) {
  if (data.empty() || data[0] != kRecordFormatVersion) {
    return Status::Corruption("unknown provenance record format version");
  }
  VarintReader reader(data.subview(1));
  ProvenanceRecord record;

  PROVDB_ASSIGN_OR_RETURN(record.seq_id, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(record.participant, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(ByteView op_raw, reader.ReadRaw(1));
  if (op_raw[0] > static_cast<uint8_t>(OperationType::kAggregate)) {
    return Status::Corruption("invalid operation type tag");
  }
  record.op = static_cast<OperationType>(op_raw[0]);
  PROVDB_ASSIGN_OR_RETURN(record.inherited, ReadFlag(&reader, "inherited"));

  PROVDB_ASSIGN_OR_RETURN(uint64_t num_inputs, reader.ReadVarint64());
  if (num_inputs > reader.remaining()) {
    return Status::Corruption("input count exceeds record size");
  }
  record.inputs.reserve(num_inputs);
  for (uint64_t i = 0; i < num_inputs; ++i) {
    ObjectState state;
    PROVDB_ASSIGN_OR_RETURN(state.object_id, reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(state.state_hash, ReadDigest(&reader));
    record.inputs.push_back(std::move(state));
  }

  PROVDB_ASSIGN_OR_RETURN(record.output.object_id, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(record.output.state_hash, ReadDigest(&reader));
  PROVDB_ASSIGN_OR_RETURN(record.checksum, reader.ReadLengthPrefixed());

  PROVDB_ASSIGN_OR_RETURN(record.has_output_snapshot,
                          ReadFlag(&reader, "output snapshot"));
  if (record.has_output_snapshot) {
    size_t consumed = 0;
    ByteView rest(data.data() + 1 + reader.position(),
                  data.size() - 1 - reader.position());
    PROVDB_ASSIGN_OR_RETURN(record.output_snapshot,
                            storage::Value::CanonicalDecode(rest, &consumed));
  }
  return record;
}

Bytes EncodeWalRecordEntry(const ProvenanceRecord& record) {
  Bytes out;
  AppendByte(&out, static_cast<uint8_t>(WalEntryType::kRecord));
  AppendBytes(&out, EncodeRecord(record));
  return out;
}

Bytes EncodeWalPruneEntry(storage::ObjectId id) {
  Bytes out;
  AppendByte(&out, static_cast<uint8_t>(WalEntryType::kPrune));
  AppendVarint64(&out, id);
  return out;
}

}  // namespace provdb::provenance
