#ifndef PROVDB_NET_SERVER_H_
#define PROVDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "net/admission.h"
#include "net/socket.h"
#include "net/wire.h"
#include "observability/metrics.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"

namespace provdb::net {

/// Settings of ProvenanceServer: the deployment's port and the admission
/// limits an operator sizes to the host.
struct ServerOptions {
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (see `port()`).
  uint16_t port = 0;

  /// Admission control: per-connection cap on requests admitted but not
  /// yet answered...
  size_t max_pending_per_connection = 64;
  /// ...and the global in-flight byte budget (see AdmissionController).
  /// Breaching either sheds the request with kUnavailable.
  uint64_t max_inflight_bytes = 8ull << 20;
};

/// A long-running network front-end for one IngestPipeline (DESIGN.md
/// §14): accepts loopback TCP connections speaking the net/wire.h
/// protocol and executes submit-record / query-chain / verify-object /
/// stats requests against the pipeline and its store.
///
/// Threading — one thread, a single-thread executor (no raw threads,
/// R03). The POLL thread owns every socket, every session buffer and all
/// admission accounting, and it is the pipeline's only producer. It
/// executes each request as soon as it decodes it. A submit has its
/// participant mapped and goes to Submit — the pipeline refuses a
/// request that would break its chain there, typed and without
/// buffering it, so a remote peer cannot wedge ingest for everyone. A
/// read (query/verify/stats) runs behind a Drain, so it sees every
/// submit before it; query and verify read a pinned snapshot. Every
/// loop tick ends with a Flush, which closes the open batches and does
/// the producer work that is ready. Each batch completion acks that
/// batch's records with the seq ids Submit reported, or answers them
/// with the poison. An acked record is therefore durable per the
/// group-commit batch it rode in — the pipeline's write-ahead contract
/// extends to the wire. The pipeline's wake hook writes the self-pipe,
/// so every reason to run a tick wakes poll(2), which has no timeout.
/// Per-connection response order is request order (a reorder buffer
/// holds completions that finish ahead of an earlier request's).
///
/// While the server runs, the pipeline must not be written by any other
/// thread. Any thread may read it through `pipeline->OpenSnapshot()`.
class ProvenanceServer {
 public:
  /// Binds the listen socket and starts the poll loop. `registry`
  /// resolves participants for verify-object; `participants` maps the ids
  /// remote submitters may act as to their signing material. All three
  /// are borrowed and must outlive the server.
  static Result<std::unique_ptr<ProvenanceServer>> Start(
      provenance::IngestPipeline* pipeline,
      const crypto::ParticipantRegistry* registry,
      std::map<crypto::ParticipantId, const crypto::Participant*>
          participants,
      ServerOptions options);

  /// Stops the loop, closes every connection, and joins the loop.
  ~ProvenanceServer();

  ProvenanceServer(const ProvenanceServer&) = delete;
  ProvenanceServer& operator=(const ProvenanceServer&) = delete;

  /// The bound listen port (the ephemeral one when options.port was 0).
  uint16_t port() const { return listener_.bound_port(); }

  /// Idempotent graceful stop. Submits already accepted still commit at
  /// the pipeline's next Drain or Close, but their responses are dropped
  /// with the connections; quiesce clients first when that matters.
  void Stop();

 private:
  /// Where one admitted request's answer goes.
  struct Ticket {
    uint64_t session = 0;
    uint64_t seq = 0;     // its place in the connection's response order
    uint64_t charge = 0;  // admission bytes held until it is answered
    uint64_t arrival_micros = 0;
  };

  /// An accepted submit waiting for its batch's completion.
  struct Awaiting {
    Ticket ticket;
    provenance::SeqId seq = 0;
  };

  /// A response frame waiting for its turn in the connection's order.
  struct ReadyResponse {
    Bytes frame;
    uint64_t charge = 0;
  };

  /// Per-connection state, touched only by the poll thread. A completion
  /// may answer a request while ReadSession still reads that session, so
  /// a session is destroyed only at the loop's sweep.
  struct Session {
    uint64_t id = 0;
    Socket sock;
    Bytes rbuf;
    /// Outbound frames in emit order; front may be partially written.
    std::deque<ReadyResponse> wq;
    size_t wq_front_written = 0;
    size_t wq_bytes = 0;
    /// Completions that outran an earlier request's, keyed by seq.
    std::map<uint64_t, ReadyResponse> ready;
    uint64_t next_seq = 0;      // next request seq to assign
    uint64_t next_respond = 0;  // next seq allowed into wq
    size_t pending = 0;         // admitted, not yet answered
    bool closing = false;       // stop reading; close once drained
    bool defunct = false;       // peer closed its write half
    bool dead = false;          // write error; destroy at next sweep
  };

  ProvenanceServer(provenance::IngestPipeline* pipeline,
                   const crypto::ParticipantRegistry* registry,
                   std::map<crypto::ParticipantId,
                            const crypto::Participant*>
                       participants,
                   ServerOptions options);

  void PollLoop();
  void AcceptAll();
  /// Reads what the socket holds and executes every whole request in it.
  void ReadSession(Session* s);
  void FlushSession(Session* s);
  /// Submits one request, or runs a read behind a Drain.
  void Execute(const Ticket& ticket, const Request& request);
  Response ExecuteRead(const Request& request);
  /// The pipeline's completion hook: acks (or fails) the batch's
  /// records, oldest first.
  void OnBatchDone(const provenance::BatchCompletion& completion);
  /// Answers an admitted request: releases its pending slot, counts it,
  /// and swaps its admission charge for the response's.
  void Respond(const Ticket& ticket, const Response& response);
  /// Routes a response frame into the connection's order, flushing what
  /// became emittable.
  void EmitReady(Session* s, uint64_t seq, Bytes frame, uint64_t charge);
  /// Answers a request that was never admitted.
  void RejectNow(Session* s, const Status& status);
  void DestroySession(uint64_t id);

  provenance::IngestPipeline* pipeline_;
  std::map<crypto::ParticipantId, const crypto::Participant*> participants_;
  ServerOptions options_;
  provenance::ProvenanceVerifier verifier_;

  ListenSocket listener_;
  WakePipe wake_;

  // Poll-thread state (created before the loop starts, then touched only
  // by PollLoop and what it calls).
  std::map<uint64_t, Session> sessions_;
  uint64_t next_session_id_ = 1;
  AdmissionController admission_;
  /// Accepted submits awaiting their batch's completion, per shard in
  /// Submit order.
  std::vector<std::deque<Awaiting>> awaiting_;

  // Server observability (docs/OBSERVABILITY.md `server.*` inventory).
  observability::Counter* connections_accepted_;
  observability::Gauge* connections_active_;
  observability::Counter* requests_received_;
  observability::Counter* requests_ok_;
  observability::Counter* requests_failed_;
  observability::Counter* requests_corrupt_;
  observability::Counter* records_committed_;
  observability::Histogram* request_latency_;

  /// Set by Stop; the loop exits at the end of its tick.
  std::atomic<bool> stop_{false};
  /// Runs PollLoop as one long task; declared last, after everything
  /// the loop uses.
  std::unique_ptr<ThreadPool> loop_pool_;
};

}  // namespace provdb::net

#endif  // PROVDB_NET_SERVER_H_
