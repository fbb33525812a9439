#ifndef PROVDB_NET_CLIENT_H_
#define PROVDB_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "net/socket.h"
#include "net/wire.h"

namespace provdb::net {

/// Blocking client for the provenance service. One connection, not
/// thread-safe; a multi-client workload holds one per simulated client.
///
/// Two usage styles:
///   * Call() — one request, wait for its response (simple tools),
///   * SendRequest() xN then ReadResponse() xN — pipelining. The server
///     answers in request order per connection, so responses pair with
///     requests positionally. Closed-loop drivers use this to keep many
///     requests in flight per connection.
class ProvenanceClient {
 public:
  static Result<ProvenanceClient> Connect(
      const std::string& host, uint16_t port,
      size_t max_response_payload = 32u << 20);

  ProvenanceClient(ProvenanceClient&&) = default;
  ProvenanceClient& operator=(ProvenanceClient&&) = default;

  /// SendRequest + ReadResponse.
  Result<Response> Call(const Request& request);

  /// Frames and writes one request (does not wait).
  Status SendRequest(const Request& request);

  /// Blocks for the next response frame. kIoError when the server closes
  /// the connection first; kCorruption when the stream is malformed.
  Result<Response> ReadResponse();

  /// Writes raw bytes as-is — the tamper matrix injects corrupted frames
  /// through this.
  Status SendBytes(ByteView raw);

  /// Half-close: EOF to the server, read side stays open. ReadResponse
  /// still drains whatever the server answers before it closes.
  void FinishWrites() { sock_.ShutdownWrite(); }

  void Close() { sock_.Close(); }

 private:
  explicit ProvenanceClient(Socket sock, size_t max_response_payload)
      : sock_(std::move(sock)),
        max_response_payload_(max_response_payload) {}

  Socket sock_;
  Bytes rbuf_;
  size_t max_response_payload_;
};

}  // namespace provdb::net

#endif  // PROVDB_NET_CLIENT_H_
