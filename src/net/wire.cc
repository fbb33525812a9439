#include "net/wire.h"

#include "common/varint.h"
#include "provenance/serialization.h"

namespace provdb::net {

namespace {

/// Highest StatusCode a response may carry (common/status.h).
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    StatusCode::kUnavailable);

Bytes EncodeSubmitBody(const SubmitRequest& submit) {
  Bytes out;
  AppendVarint64(&out, submit.participant_id);
  AppendByte(&out, static_cast<uint8_t>(submit.op));
  AppendVarint64(&out, submit.object);
  uint8_t flags = 0;
  if (submit.has_pre_hash) flags |= 0x01;
  if (submit.inherited) flags |= 0x02;
  AppendByte(&out, flags);
  AppendLengthPrefixed(&out, submit.post_hash.view());
  if (submit.has_pre_hash) {
    AppendLengthPrefixed(&out, submit.pre_hash.view());
  }
  AppendVarint64(&out, submit.inputs.size());
  for (size_t i = 0; i < submit.inputs.size(); ++i) {
    AppendVarint64(&out, submit.inputs[i].object_id);
    AppendLengthPrefixed(&out, submit.inputs[i].state_hash.view());
    const Bytes empty;
    AppendLengthPrefixed(&out, i < submit.input_prev_checksums.size()
                                   ? ByteView(submit.input_prev_checksums[i])
                                   : ByteView(empty));
  }
  AppendVarint64(&out, submit.aggregate_seq);
  return out;
}

Result<SubmitRequest> DecodeSubmitBody(VarintReader* reader) {
  SubmitRequest submit;
  PROVDB_ASSIGN_OR_RETURN(submit.participant_id, reader->ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(ByteView op_byte, reader->ReadRaw(1));
  if (op_byte[0] > static_cast<uint8_t>(
                       provenance::OperationType::kAggregate)) {
    return Status::Corruption("unknown operation type in submit request");
  }
  submit.op = static_cast<provenance::OperationType>(op_byte[0]);
  PROVDB_ASSIGN_OR_RETURN(submit.object, reader->ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(ByteView flags, reader->ReadRaw(1));
  if ((flags[0] & ~uint8_t{0x03}) != 0) {
    return Status::Corruption("unknown flag bits in submit request");
  }
  submit.has_pre_hash = (flags[0] & 0x01) != 0;
  submit.inherited = (flags[0] & 0x02) != 0;
  PROVDB_ASSIGN_OR_RETURN(submit.post_hash, provenance::ReadDigest(reader));
  if (submit.has_pre_hash) {
    PROVDB_ASSIGN_OR_RETURN(submit.pre_hash, provenance::ReadDigest(reader));
  }
  PROVDB_ASSIGN_OR_RETURN(uint64_t num_inputs, reader->ReadVarint64());
  // Every input occupies at least 3 encoded bytes, so a count beyond
  // remaining() cannot be satisfied — fail before allocating for it.
  if (num_inputs > reader->remaining()) {
    return Status::Corruption("submit input count exceeds payload");
  }
  submit.inputs.reserve(static_cast<size_t>(num_inputs));
  submit.input_prev_checksums.reserve(static_cast<size_t>(num_inputs));
  for (uint64_t i = 0; i < num_inputs; ++i) {
    provenance::ObjectState state;
    PROVDB_ASSIGN_OR_RETURN(state.object_id, reader->ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(state.state_hash, provenance::ReadDigest(reader));
    submit.inputs.push_back(state);
    PROVDB_ASSIGN_OR_RETURN(Bytes prev, reader->ReadLengthPrefixed());
    submit.input_prev_checksums.push_back(std::move(prev));
  }
  PROVDB_ASSIGN_OR_RETURN(submit.aggregate_seq, reader->ReadVarint64());
  return submit;
}

}  // namespace

std::string_view NetOpName(NetOp op) {
  switch (op) {
    case NetOp::kSubmitRecord:
      return "submit-record";
    case NetOp::kQueryChain:
      return "query-chain";
    case NetOp::kVerifyObject:
      return "verify-object";
    case NetOp::kStats:
      return "stats";
  }
  return "unknown";
}

Bytes EncodeRequest(const Request& request) {
  Bytes out;
  AppendByte(&out, kWireVersion);
  AppendByte(&out, static_cast<uint8_t>(request.op));
  switch (request.op) {
    case NetOp::kSubmitRecord: {
      Bytes body = EncodeSubmitBody(request.submit);
      AppendBytes(&out, body);
      break;
    }
    case NetOp::kQueryChain:
    case NetOp::kVerifyObject:
      AppendVarint64(&out, request.object);
      break;
    case NetOp::kStats:
      break;
  }
  return out;
}

Result<Request> DecodeRequest(ByteView payload) {
  VarintReader reader(payload);
  PROVDB_ASSIGN_OR_RETURN(ByteView version, reader.ReadRaw(1));
  if (version[0] != kWireVersion) {
    return Status::Corruption("unsupported wire version");
  }
  PROVDB_ASSIGN_OR_RETURN(ByteView op_byte, reader.ReadRaw(1));
  if (op_byte[0] < static_cast<uint8_t>(NetOp::kSubmitRecord) ||
      op_byte[0] > static_cast<uint8_t>(NetOp::kStats)) {
    return Status::Corruption("unknown request op");
  }
  Request request;
  request.op = static_cast<NetOp>(op_byte[0]);
  switch (request.op) {
    case NetOp::kSubmitRecord: {
      PROVDB_ASSIGN_OR_RETURN(request.submit, DecodeSubmitBody(&reader));
      break;
    }
    case NetOp::kQueryChain:
    case NetOp::kVerifyObject: {
      PROVDB_ASSIGN_OR_RETURN(request.object, reader.ReadVarint64());
      break;
    }
    case NetOp::kStats:
      break;
  }
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after request body");
  }
  return request;
}

Bytes EncodeResponse(const Response& response) {
  Bytes out;
  AppendByte(&out, kWireVersion);
  AppendByte(&out, static_cast<uint8_t>(response.code));
  AppendLengthPrefixed(&out, ByteView(response.message));
  AppendLengthPrefixed(&out, response.body);
  return out;
}

Result<Response> DecodeResponse(ByteView payload) {
  VarintReader reader(payload);
  PROVDB_ASSIGN_OR_RETURN(ByteView version, reader.ReadRaw(1));
  if (version[0] != kWireVersion) {
    return Status::Corruption("unsupported wire version");
  }
  PROVDB_ASSIGN_OR_RETURN(ByteView code, reader.ReadRaw(1));
  if (code[0] > kMaxStatusCode) {
    return Status::Corruption("unknown status code in response");
  }
  Response response;
  response.code = static_cast<StatusCode>(code[0]);
  PROVDB_ASSIGN_OR_RETURN(Bytes message, reader.ReadLengthPrefixed());
  response.message = ByteView(message).ToString();
  PROVDB_ASSIGN_OR_RETURN(response.body, reader.ReadLengthPrefixed());
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after response body");
  }
  return response;
}

Bytes EncodeVerifySummary(const VerifySummary& summary) {
  Bytes out;
  AppendVarint64(&out, summary.records_checked);
  AppendVarint64(&out, summary.signatures_verified);
  AppendVarint64(&out, summary.issues);
  AppendByte(&out, summary.ok ? 1 : 0);
  return out;
}

Result<VerifySummary> DecodeVerifySummary(ByteView body) {
  VarintReader reader(body);
  VerifySummary summary;
  PROVDB_ASSIGN_OR_RETURN(summary.records_checked, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(summary.signatures_verified,
                          reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(summary.issues, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(ByteView ok_byte, reader.ReadRaw(1));
  if (ok_byte[0] > 1) {
    return Status::Corruption("verify summary ok flag out of range");
  }
  summary.ok = ok_byte[0] == 1;
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after verify summary");
  }
  return summary;
}

Result<std::vector<provenance::ProvenanceRecord>> DecodeChainBody(
    ByteView body) {
  VarintReader reader(body);
  PROVDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint64());
  if (count > reader.remaining()) {
    return Status::Corruption("chain record count exceeds payload");
  }
  std::vector<provenance::ProvenanceRecord> records;
  records.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    PROVDB_ASSIGN_OR_RETURN(Bytes encoded, reader.ReadLengthPrefixed());
    PROVDB_ASSIGN_OR_RETURN(provenance::ProvenanceRecord record,
                            provenance::DecodeRecord(encoded));
    records.push_back(std::move(record));
  }
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after chain body");
  }
  return records;
}

}  // namespace provdb::net
