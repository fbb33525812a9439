#ifndef PROVDB_WORKLOAD_LOAD_GENERATOR_H_
#define PROVDB_WORKLOAD_LOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/tree_store.h"

namespace provdb::workload {

/// Multi-client driver for the provenance service (net/server.h).
///
/// Simulates `num_clients` independent clients, each holding its own
/// connection, multiplexed over `num_driver_threads` OS threads (a 512-
/// client phase does not need 512 threads — connections idle cheaply,
/// threads do not). Each client owns a disjoint slice of the object space
/// (object ids are striped client-by-client), so no two clients ever
/// append to the same chain and every accepted record extends a chain the
/// submitting client has fully observed. Within its slice a client picks
/// objects Zipf-skewed, so hot chains grow long while cold ones stay
/// short — the shape that stresses the server's per-chain tail tracking.
///
/// A client's first touch of an object is an insert; later touches are
/// updates carrying the previous accepted post-hash as the pre-hash, so a
/// post-run VerifyStore sees perfectly linked chains. Two rules keep
/// that true under load shedding:
///   * at most one request per object is in flight (a shed request must
///     not strand later updates built on its unacknowledged hash), and
///   * local chain state advances only on an OK response — a shed or
///     failed submit leaves the object exactly as it was.
///
/// Requests are pipelined `pipeline_depth` deep per connection; the
/// server responds in order, so responses pair with requests positionally.
struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  size_t num_clients = 1;
  /// 0 = min(num_clients, hardware threads).
  size_t num_driver_threads = 0;

  uint64_t requests_per_client = 256;
  uint64_t objects_per_client = 64;
  /// Zipf skew within each client's object slice, in (0, 1).
  double zipf_theta = 0.99;
  /// Submits in flight per connection. Keep at or below the server's
  /// max_pending_per_connection or the surplus is shed by design.
  size_t pipeline_depth = 16;

  /// Participant ids the server recognizes; submits round-robin these.
  /// Must be non-empty.
  std::vector<uint64_t> participant_ids;
  /// First object id of the striped space (client c's k-th object is
  /// first_object + k * num_clients + c).
  storage::ObjectId first_object = 1;
  /// Width of the synthetic state hashes (SHA-1-sized by default).
  size_t hash_bytes = 20;
  uint64_t seed = 42;
};

struct LoadReport {
  uint64_t requests_sent = 0;
  /// OK submit responses (durable per the server's write-ahead contract).
  uint64_t accepted = 0;
  /// kUnavailable responses (admission control shed the request).
  uint64_t shed = 0;
  /// Any other non-OK response.
  uint64_t failed = 0;
  /// Wall time of the request phase (connections established beforehand).
  double elapsed_seconds = 0;
  double records_per_second = 0;
};

/// Runs the workload to completion. Fails on transport errors (a shed
/// request is an orderly response, not a transport error).
Result<LoadReport> RunLoad(const LoadOptions& options);

}  // namespace provdb::workload

#endif  // PROVDB_WORKLOAD_LOAD_GENERATOR_H_
