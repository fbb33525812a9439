#ifndef PROVDB_NET_WIRE_H_
#define PROVDB_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/frame.h"
#include "common/result.h"
#include "provenance/record.h"
#include "storage/tree_store.h"

namespace provdb::net {

/// Wire protocol for the provenance service (DESIGN.md §14).
///
/// Every message travels as one frame of the common codec
/// (common/frame.h), the one the WAL and checkpoints use:
///
///   varint(payload_len) || payload || crc32(payload) fixed32
///
/// so a flipped bit anywhere in a frame is caught by the checksum before
/// the payload is even parsed, and a truncated frame is distinguishable
/// from a corrupt one (the decoder reports "need more bytes", not an
/// error). Payload length is bounded (`kMaxFramePayload` by default); a
/// length prefix above the bound is corruption — the peer is either
/// malicious or speaking another protocol, and buffering unbounded input
/// on its say-so would be a memory DoS.
///
/// Payloads are versioned: requests are [version][op][body], responses
/// are [version][status][message][body]. Decoding is strict — every body
/// must consume the payload exactly (trailing bytes are corruption), and
/// varints are canonical (common/varint.cc rejects overlong encodings),
/// so encode/decode is a bijection: each message has exactly one valid
/// byte representation. The tamper matrix in tests/net/ relies on this.

/// Protocol version carried in every payload.
inline constexpr uint8_t kWireVersion = 1;

/// Ceiling for a request frame payload (1 MiB). Generous for any request
/// this protocol defines; response frames carrying large chains may
/// legitimately exceed it, so the server bounds responses separately and
/// the client takes its response bound as an argument.
inline constexpr size_t kMaxFramePayload = 1u << 20;

/// Request operations.
enum class NetOp : uint8_t {
  kSubmitRecord = 1,
  kQueryChain = 2,
  kVerifyObject = 3,
  kStats = 4,
};

/// Returns "submit-record" / "query-chain" / "verify-object" / "stats".
std::string_view NetOpName(NetOp op);

/// A submit-record request: a provenance::IngestRequest with the borrowed
/// participant pointer replaced by the participant id (the server resolves
/// it against its own PKI material; a remote peer never ships keys).
struct SubmitRequest {
  uint64_t participant_id = 0;
  provenance::OperationType op = provenance::OperationType::kInsert;
  storage::ObjectId object = storage::kInvalidObjectId;
  crypto::Digest post_hash;
  bool has_pre_hash = false;
  crypto::Digest pre_hash;
  bool inherited = false;
  std::vector<provenance::ObjectState> inputs;
  std::vector<Bytes> input_prev_checksums;  // aligned with `inputs`
  provenance::SeqId aggregate_seq = 0;
};

/// A decoded request.
struct Request {
  NetOp op = NetOp::kStats;
  /// kSubmitRecord only.
  SubmitRequest submit;
  /// kQueryChain / kVerifyObject: the subject object.
  storage::ObjectId object = storage::kInvalidObjectId;
};

/// A response: a Status (code + message) plus an op-specific body.
///   kSubmitRecord: varint assigned seq_id
///   kQueryChain:   varint record count, then length-prefixed
///                  EncodeRecord payloads in seqID order
///   kVerifyObject: varint records_checked, varint signatures_verified,
///                  varint issue count, one byte ok flag, from check 2
///                  over the subject's provenance object (its chain plus
///                  every aggregation input's chain up to the matching
///                  state), so records_checked counts that whole object
///   kStats:        MetricsRegistry::SnapshotJson bytes
/// The body is empty whenever the status is not OK.
struct Response {
  StatusCode code = StatusCode::kOk;
  std::string message;
  Bytes body;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
};

/// Decoded kVerifyObject response body.
struct VerifySummary {
  uint64_t records_checked = 0;
  uint64_t signatures_verified = 0;
  uint64_t issues = 0;
  bool ok = false;
};

// -- Framing -----------------------------------------------------------

/// The common codec's frame encoder and receive-buffer decoder: a
/// decoder error is kCorruption, after which the connection cannot be
/// resynchronized.
using provdb::EncodeFrame;
using provdb::TryDecodeFrame;

// -- Requests ----------------------------------------------------------

/// Encodes a request payload (not framed; pass to EncodeFrame).
Bytes EncodeRequest(const Request& request);

/// Strict inverse of EncodeRequest: unknown version/op, malformed body,
/// or trailing bytes are kCorruption.
Result<Request> DecodeRequest(ByteView payload);

// -- Responses ---------------------------------------------------------

/// Encodes a response payload (not framed).
Bytes EncodeResponse(const Response& response);

/// Strict inverse of EncodeResponse.
Result<Response> DecodeResponse(ByteView payload);

/// Encodes/decodes a kVerifyObject response body.
Bytes EncodeVerifySummary(const VerifySummary& summary);
Result<VerifySummary> DecodeVerifySummary(ByteView body);

/// Decodes a kQueryChain response body into records.
Result<std::vector<provenance::ProvenanceRecord>> DecodeChainBody(
    ByteView body);

}  // namespace provdb::net

#endif  // PROVDB_NET_WIRE_H_
