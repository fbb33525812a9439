#include "provenance/checksum.h"

#include "observability/trace.h"

namespace provdb::provenance {

ChecksumEngine::ChecksumEngine(crypto::HashAlgorithm alg)
    : alg_(alg),
      payload_insert_(
          observability::GlobalMetrics().counter("checksum.payload.insert")),
      payload_update_(
          observability::GlobalMetrics().counter("checksum.payload.update")),
      payload_aggregate_(observability::GlobalMetrics().counter(
          "checksum.payload.aggregate")),
      sign_count_(
          observability::GlobalMetrics().counter("checksum.sign.count")),
      sign_latency_(observability::GlobalMetrics().histogram(
          "checksum.sign.latency_us")) {}

Result<Bytes> ChecksumEngine::SignPayload(const crypto::RsaSigner& signer,
                                          OperationType op,
                                          ByteView payload) const {
  observability::ScopedLatencyTimer timer(sign_latency_);
  observability::TraceSpan span("checksum.sign");
  sign_count_->Increment();
  switch (op) {
    case OperationType::kInsert:
      payload_insert_->Increment();
      break;
    case OperationType::kUpdate:
      payload_update_->Increment();
      break;
    case OperationType::kAggregate:
      payload_aggregate_->Increment();
      break;
  }
  return signer.Sign(payload);
}

Bytes ChecksumEngine::BuildPayload(
    const ProvenanceRecord& record,
    const std::vector<ByteView>& prev_checksums) const {
  switch (record.op) {
    case OperationType::kInsert:
      return BuildInsertPayload(record.output.state_hash);
    case OperationType::kUpdate:
      return BuildUpdatePayload(record.inputs[0].state_hash,
                                record.output.state_hash, prev_checksums[0]);
    case OperationType::kAggregate: {
      std::vector<crypto::Digest> input_hashes;
      input_hashes.reserve(record.inputs.size());
      for (const ObjectState& input : record.inputs) {
        input_hashes.push_back(input.state_hash);
      }
      return BuildAggregatePayload(input_hashes, record.output.state_hash,
                                   prev_checksums);
    }
  }
  return Bytes();
}

Bytes ChecksumEngine::BuildInsertPayload(const crypto::Digest& out_hash) const {
  // 0 | h(A, val) | 0 — the input slot is a digest-width zero block; the
  // previous-checksum slot is empty (there is no previous checksum).
  Bytes payload(crypto::HashDigestSize(alg_), 0);
  AppendBytes(&payload, out_hash.view());
  return payload;
}

Bytes ChecksumEngine::BuildUpdatePayload(const crypto::Digest& in_hash,
                                         const crypto::Digest& out_hash,
                                         ByteView prev_checksum) const {
  Bytes payload;
  payload.reserve(in_hash.size() + out_hash.size() + prev_checksum.size());
  AppendBytes(&payload, in_hash.view());
  AppendBytes(&payload, out_hash.view());
  AppendBytes(&payload, prev_checksum);
  return payload;
}

Bytes ChecksumEngine::BuildAggregatePayload(
    const std::vector<crypto::Digest>& input_hashes,
    const crypto::Digest& out_hash,
    const std::vector<ByteView>& prev_checksums) const {
  // h( h(A_1,v_1) | ... | h(A_n,v_n) ) — one digest summarizing all inputs.
  Bytes concat_inputs;
  concat_inputs.reserve(input_hashes.size() * crypto::HashDigestSize(alg_));
  for (const crypto::Digest& h : input_hashes) {
    AppendBytes(&concat_inputs, h.view());
  }
  crypto::Digest inputs_digest = crypto::HashBytes(alg_, concat_inputs);

  Bytes payload;
  AppendBytes(&payload, inputs_digest.view());
  AppendBytes(&payload, out_hash.view());
  for (ByteView prev : prev_checksums) {
    AppendBytes(&payload, prev);
  }
  return payload;
}

}  // namespace provdb::provenance
