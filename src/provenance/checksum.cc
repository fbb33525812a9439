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

Result<Bytes> ChecksumEngine::SignPayload(const crypto::Signer& signer,
                                          ByteView payload) const {
  observability::ScopedLatencyTimer timer(sign_latency_);
  observability::TraceSpan span("checksum.sign");
  sign_count_->Increment();
  return signer.Sign(payload);
}

Bytes ChecksumEngine::BuildInsertPayload(const crypto::Digest& out_hash) const {
  payload_insert_->Increment();
  // 0 | h(A, val) | 0 — the input slot is a digest-width zero block; the
  // previous-checksum slot is empty (there is no previous checksum).
  Bytes payload(crypto::HashDigestSize(alg_), 0);
  AppendBytes(&payload, out_hash.view());
  return payload;
}

Bytes ChecksumEngine::BuildUpdatePayload(const crypto::Digest& in_hash,
                                         const crypto::Digest& out_hash,
                                         ByteView prev_checksum) const {
  payload_update_->Increment();
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
  payload_aggregate_->Increment();
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
