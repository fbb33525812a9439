#ifndef PROVDB_PROVENANCE_CHECKSUM_H_
#define PROVDB_PROVENANCE_CHECKSUM_H_

#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/digest.h"
#include "crypto/hash.h"
#include "crypto/signer.h"
#include "observability/metrics.h"
#include "provenance/record.h"

namespace provdb::provenance {

/// Builds the byte strings that participants sign — the checksum payloads
/// of §3, extended to compound objects in §4.3:
///
///   Insert:    C = S_SKp( 0 | h(A,val) | 0 )
///   Update:    C = S_SKp( h(A,val) | h(A,val') | C_prev )
///   Aggregate: C = S_SKp( h(h(A_1,v_1)|...|h(A_n,v_n)) | h(B,val)
///                         | C_1 | ... | C_n )
///
/// `|` is concatenation. The paper's literal `0` fields (insert) are
/// encoded as a digest-width zero block for the input slot and an empty
/// previous-checksum slot; every field is fixed-width for its position
/// (digests are algorithm-width, checksums are signature-width), so the
/// encoding is injective per operation type. For compound objects the
/// same formulas apply with h(subtree(A)) in place of h(A, val).
///
/// An update whose object predates provenance collection (bootstrap data)
/// has no C_prev; its slot is empty, which matches starting the chain at
/// the collection epoch.
class ChecksumEngine {
 public:
  explicit ChecksumEngine(
      crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1);

  crypto::HashAlgorithm algorithm() const { return alg_; }

  /// Payload for an insert producing output hash `out_hash`.
  Bytes BuildInsertPayload(const crypto::Digest& out_hash) const;

  /// Payload for an update: previous state `in_hash`, new state `out_hash`,
  /// previous checksum `prev_checksum` (may be empty at the collection
  /// epoch).
  Bytes BuildUpdatePayload(const crypto::Digest& in_hash,
                           const crypto::Digest& out_hash,
                           ByteView prev_checksum) const;

  /// Payload for an aggregation. `input_hashes` must follow the global
  /// total order (ascending object id); `prev_checksums[i]` views the
  /// latest checksum of input i (empty entries allowed for untracked
  /// inputs).
  Bytes BuildAggregatePayload(
      const std::vector<crypto::Digest>& input_hashes,
      const crypto::Digest& out_hash,
      const std::vector<ByteView>& prev_checksums) const;

  /// The payload `record` is signed over: its operation picks the
  /// builder above. `prev_checksums[i]` views the previous checksum of
  /// `record.inputs[i]` (empty at the collection epoch, or for an
  /// untracked aggregate input), so an insert passes none. The record
  /// must be well formed: an update has exactly one input, and an
  /// aggregate at least one, each with a previous-checksum entry. Both the
  /// signing site and the verifier build payloads only through here.
  Bytes BuildPayload(const ProvenanceRecord& record,
                     const std::vector<ByteView>& prev_checksums) const;

  /// Signs the payload of an `op` record with the acting participant's
  /// signer, producing the checksum stored in the provenance record.
  Result<Bytes> SignPayload(const crypto::RsaSigner& signer, OperationType op,
                            ByteView payload) const;

 private:
  crypto::HashAlgorithm alg_;

  // Per-op-type sign counts and signing cost (docs/OBSERVABILITY.md).
  // Counted where a payload is signed, not where it is built: the
  // verifier rebuilds every payload, and signs none.
  observability::Counter* payload_insert_;
  observability::Counter* payload_update_;
  observability::Counter* payload_aggregate_;
  observability::Counter* sign_count_;
  observability::Histogram* sign_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_CHECKSUM_H_
