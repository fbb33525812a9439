#ifndef PROVDB_NET_SERVER_H_
#define PROVDB_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "net/admission.h"
#include "net/socket.h"
#include "net/wire.h"
#include "observability/metrics.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"

namespace provdb::net {

/// Tuning knobs for ProvenanceServer.
struct ServerOptions {
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (see `port()`).
  uint16_t port = 0;

  /// Ceiling for one request frame payload; larger prefixes are
  /// corruption (the peer is hostile or confused, not just chatty).
  size_t max_frame_payload = kMaxFramePayload;

  /// Ceiling for one response body (chains can outgrow request-sized
  /// frames); an over-limit chain answers kOutOfRange instead.
  size_t max_response_payload = 16u << 20;

  /// Admission control: per-connection cap on requests admitted but not
  /// yet answered...
  size_t max_pending_per_connection = 64;
  /// ...and the global in-flight byte budget (see AdmissionController).
  /// Breaching either sheds the request with kUnavailable.
  uint64_t max_inflight_bytes = 8ull << 20;

  /// Per-connection ceiling on buffered outbound bytes; a peer that
  /// stops reading its responses is disconnected once it accrues this
  /// much (the admission budget bounds *charged* responses, this bounds
  /// the uncharged rejection frames a hostile peer could farm).
  size_t max_connection_buffer = (2u << 20);

  /// poll(2) tick; an upper bound on Stop() latency, not on request
  /// latency (I/O readiness and executor completions wake the loop).
  int poll_timeout_ms = 100;
};

/// A long-running network front-end for one IngestPipeline (DESIGN.md
/// §14): accepts loopback TCP connections speaking the net/wire.h
/// protocol and executes submit-record / query-chain / verify-object /
/// stats requests against the pipeline and its store.
///
/// Threading — two single-thread executors (no raw threads, R03):
///   * the POLL thread owns every socket, every session buffer, and all
///     admission accounting; it parses frames, sheds overload, and
///     flushes responses,
///   * the EXECUTOR strand is the pipeline's producer: it maps each
///     submit's participant and submits it — the pipeline refuses a
///     request that would break its chain at Submit, typed and without
///     buffering it, so a remote peer cannot wedge ingest for everyone —
///     and closes the open batches (Flush) whenever its queue runs dry.
///     The pipeline wakes it when producer work is ready; it then Polls,
///     and each batch completion acks that batch's records with the seq
///     ids Submit reported, or answers them with the poison. An acked
///     record is therefore durable per the group-commit batch it rode in
///     — the pipeline's write-ahead contract extends to the wire. Reads
///     (query/verify/stats) run on the strand behind a Drain, so they see
///     every submit before them; query and verify read a pinned
///     snapshot.
/// The two communicate through locked queues and a self-pipe; per-
/// connection response order is request order (a reorder buffer holds
/// executor completions that finish ahead of an earlier request's).
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

  /// Stops the loop, closes every connection, and joins both executors.
  ~ProvenanceServer();

  ProvenanceServer(const ProvenanceServer&) = delete;
  ProvenanceServer& operator=(const ProvenanceServer&) = delete;

  /// The bound listen port (the ephemeral one when options.port was 0).
  uint16_t port() const { return listener_.bound_port(); }

  /// Idempotent graceful stop. In-flight requests already handed to the
  /// executor are still submitted and commit at the pipeline's next
  /// Drain or Close, but their responses are dropped with the
  /// connections; quiesce clients first when that matters.
  void Stop();

 private:
  /// One admitted request on its way to the executor strand.
  struct ExecItem {
    uint64_t session = 0;
    uint64_t seq = 0;
    Request request;
    uint64_t charge = 0;
    uint64_t arrival_micros = 0;
  };

  /// One executed response on its way back to the poll thread.
  struct DoneItem {
    uint64_t session = 0;
    uint64_t seq = 0;
    Bytes frame;  // fully framed response bytes
    uint64_t charge = 0;
    uint64_t arrival_micros = 0;
    bool ok = false;
  };

  /// An accepted submit waiting for its batch's completion.
  struct Awaiting {
    ExecItem item;
    provenance::SeqId seq = 0;
  };

  /// A response frame waiting for its turn in the connection's order.
  struct ReadyResponse {
    Bytes frame;
    uint64_t charge = 0;
  };

  /// Per-connection state. Owned and touched exclusively by the poll
  /// thread — no lock, by construction.
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
    size_t pending = 0;         // admitted, executor not yet answered
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

  // -- Poll thread -----------------------------------------------------
  void PollLoop();
  void AcceptAll();
  void ReadSession(Session* s);
  void FlushSession(Session* s);
  void HandleDone(DoneItem item);
  /// Routes a response frame into the connection's order, flushing what
  /// became emittable.
  void EmitReady(Session* s, uint64_t seq, Bytes frame, uint64_t charge);
  /// Builds and routes an immediate (poll-thread) rejection.
  void RejectNow(Session* s, StatusCode code, std::string message);
  void DestroySession(uint64_t id);

  // -- Executor strand -------------------------------------------------
  void ExecutorRun();
  /// Submits one request, or runs a read behind a Drain.
  void Execute(ExecItem item);
  /// Queues `response` as the answer to `item`.
  void Respond(const ExecItem& item, const Response& response);
  /// The pipeline's completion hook: acks (or fails) the batch's
  /// records, oldest first.
  void OnBatchDone(const provenance::BatchCompletion& completion);
  Response ExecuteRead(const Request& request);
  /// Hands the strand's answers so far to the poll thread.
  void FlushDone();

  /// The pipeline's wake hook (any pipeline thread): schedules the
  /// strand so it Polls.
  void OnPipelineReady();

  provenance::IngestPipeline* pipeline_;
  std::map<crypto::ParticipantId, const crypto::Participant*> participants_;
  ServerOptions options_;
  provenance::ProvenanceVerifier verifier_;

  ListenSocket listener_;
  WakePipe wake_;

  // Poll-thread-only state (created before the loop starts, then touched
  // exclusively by PollLoop and its helpers).
  std::map<uint64_t, Session> sessions_;
  uint64_t next_session_id_ = 1;
  AdmissionController admission_;

  // Strand-only state: accepted submits awaiting their batch's
  // completion, per shard in Submit order, and the responses of the
  // strand's current pass.
  std::vector<std::deque<Awaiting>> awaiting_;
  std::vector<DoneItem> done_;

  /// Guards the cross-thread handoff queues and the stop flag.
  mutable Mutex mu_;
  bool stop_ PROVDB_GUARDED_BY(mu_) = false;
  std::deque<ExecItem> exec_queue_ PROVDB_GUARDED_BY(mu_);
  std::deque<DoneItem> done_queue_ PROVDB_GUARDED_BY(mu_);
  bool exec_scheduled_ PROVDB_GUARDED_BY(mu_) = false;
  /// The pipeline has producer work for the strand.
  bool pipeline_ready_ PROVDB_GUARDED_BY(mu_) = false;

  // Single-thread executors; loop_pool_ runs PollLoop as one long task,
  // exec_pool_ runs ExecutorRun strand activations.
  std::unique_ptr<ThreadPool> loop_pool_;
  std::unique_ptr<ThreadPool> exec_pool_;
  bool stopped_ = false;

  // Server observability (docs/OBSERVABILITY.md `server.*` inventory).
  observability::Counter* connections_accepted_;
  observability::Gauge* connections_active_;
  observability::Counter* requests_received_;
  observability::Counter* requests_ok_;
  observability::Counter* requests_failed_;
  observability::Counter* requests_corrupt_;
  observability::Counter* records_committed_;
  observability::Histogram* request_latency_;
};

}  // namespace provdb::net

#endif  // PROVDB_NET_SERVER_H_
