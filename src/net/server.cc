#include "net/server.h"

#include <poll.h>
#include <utility>

#include "common/varint.h"
#include "observability/trace.h"
#include "provenance/serialization.h"

namespace provdb::net {

namespace {

/// Read chunk per poll tick; level-triggered poll re-fires while more is
/// queued, so this bounds per-tick work, not throughput.
constexpr size_t kReadChunk = 64 * 1024;

/// Ceiling for one response body (chains can outgrow request-sized
/// frames); an over-limit chain answers kOutOfRange instead.
constexpr size_t kMaxResponsePayload = 16u << 20;

/// Per-connection ceiling on buffered outbound bytes; a peer that stops
/// reading its responses is disconnected once it accrues this much (the
/// admission budget bounds *charged* responses, this bounds the
/// uncharged rejection frames a hostile peer could farm).
constexpr size_t kMaxConnectionBuffer = 2u << 20;

/// A response carrying `status`, with an empty body.
Response ResponseOf(const Status& status) {
  Response response;
  response.code = status.code();
  response.message = status.message();
  return response;
}

}  // namespace

ProvenanceServer::ProvenanceServer(
    provenance::IngestPipeline* pipeline,
    const crypto::ParticipantRegistry* registry,
    std::map<crypto::ParticipantId, const crypto::Participant*> participants,
    ServerOptions options)
    : pipeline_(pipeline),
      participants_(std::move(participants)),
      options_(options),
      verifier_(registry, pipeline->options().hash_algorithm),
      admission_(options.max_inflight_bytes,
                 &observability::GlobalMetrics()),
      awaiting_(pipeline->options().num_shards),
      connections_accepted_(observability::GlobalMetrics().counter(
          "server.connections.accepted")),
      connections_active_(observability::GlobalMetrics().gauge(
          "server.connections.active")),
      requests_received_(observability::GlobalMetrics().counter(
          "server.requests.received")),
      requests_ok_(
          observability::GlobalMetrics().counter("server.requests.ok")),
      requests_failed_(observability::GlobalMetrics().counter(
          "server.requests.failed")),
      requests_corrupt_(observability::GlobalMetrics().counter(
          "server.requests.corrupt")),
      records_committed_(observability::GlobalMetrics().counter(
          "server.records.committed")),
      request_latency_(observability::GlobalMetrics().histogram(
          "server.request.latency")) {}

Result<std::unique_ptr<ProvenanceServer>> ProvenanceServer::Start(
    provenance::IngestPipeline* pipeline,
    const crypto::ParticipantRegistry* registry,
    std::map<crypto::ParticipantId, const crypto::Participant*> participants,
    ServerOptions options) {
  std::unique_ptr<ProvenanceServer> server(new ProvenanceServer(
      pipeline, registry, std::move(participants), options));
  PROVDB_ASSIGN_OR_RETURN(server->listener_,
                          ListenSocket::Listen(options.port));
  PROVDB_ASSIGN_OR_RETURN(server->wake_, WakePipe::Create());
  ProvenanceServer* raw = server.get();
  // Completions must name only this server's submits: whatever an
  // earlier producer left pending commits first. A poisoned pipeline
  // answers every submit with its poison anyway.
  (void)pipeline->Drain();
  // The wake hook runs on pipeline threads and inside the loop's own
  // pipeline calls alike; the loop's next tick does the work.
  pipeline->SetProducerHooks(
      [raw] { raw->wake_.Wake(); },
      [raw](const provenance::BatchCompletion& completion) {
        raw->OnBatchDone(completion);
      });
  raw->loop_pool_ = std::make_unique<ThreadPool>(1);
  raw->loop_pool_->Submit([raw] { raw->PollLoop(); });
  return server;
}

ProvenanceServer::~ProvenanceServer() { Stop(); }

void ProvenanceServer::Stop() {
  if (loop_pool_ == nullptr || stop_.exchange(true)) return;
  wake_.Wake();
  loop_pool_->Shutdown();
  // The loop was the only caller of the completion hook, and no pipeline
  // thread may reach this server once Stop returns.
  pipeline_->SetProducerHooks(nullptr, nullptr);
}

void ProvenanceServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_sessions;
  while (!stop_.load()) {
    // Sweep sessions that finished (or died).
    std::vector<uint64_t> doomed;
    for (const auto& [id, s] : sessions_) {
      bool drained = s.wq.empty() && s.ready.empty() && s.pending == 0;
      if (s.dead || ((s.closing || s.defunct) && drained)) {
        doomed.push_back(id);
      }
    }
    for (uint64_t id : doomed) DestroySession(id);

    fds.clear();
    fd_sessions.clear();
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    for (const auto& [id, s] : sessions_) {
      short events = 0;
      if (!s.closing && !s.defunct) events |= POLLIN;
      if (!s.wq.empty()) events |= POLLOUT;
      fds.push_back(pollfd{s.sock.fd(), events, 0});
      fd_sessions.push_back(id);
    }
    // Every reason to run a tick wakes poll: a socket event, or a byte on
    // the pipe from the pipeline or from Stop.
    ::poll(fds.data(), fds.size(), -1);
    if (fds[1].revents != 0) wake_.DrainWakes();
    if ((fds[0].revents & POLLIN) != 0) AcceptAll();
    for (size_t i = 2; i < fds.size(); ++i) {
      auto it = sessions_.find(fd_sessions[i - 2]);
      if (it == sessions_.end()) continue;
      Session* s = &it->second;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        s->dead = true;
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) FlushSession(s);
      if (!s->dead && (fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        ReadSession(s);
      }
    }
    // Close the batches this tick's submits opened, and do the producer
    // work a pipeline thread woke the loop for. The completions either
    // reports answer their submits.
    (void)pipeline_->Flush();
  }
  listener_.Close();
  std::vector<uint64_t> all;
  all.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) all.push_back(id);
  for (uint64_t id : all) DestroySession(id);
}

void ProvenanceServer::AcceptAll() {
  for (;;) {
    bool would_block = false;
    auto sock = listener_.Accept(&would_block);
    if (!sock.ok() || would_block) return;
    // Group commit already batches; Nagle would only add latency.
    Status nodelay = sock->SetNoDelay();
    if (!nodelay.ok()) {
      continue;  // dying fd; drop the connection
    }
    uint64_t id = next_session_id_++;
    Session session;
    session.id = id;
    session.sock = std::move(*sock);
    sessions_.emplace(id, std::move(session));
    connections_accepted_->Increment();
    connections_active_->Set(static_cast<int64_t>(sessions_.size()));
  }
}

void ProvenanceServer::ReadSession(Session* s) {
  auto io = s->sock.Read(kReadChunk, &s->rbuf);
  if (!io.ok()) {
    s->dead = true;
    return;
  }
  if (io->eof) s->defunct = true;

  size_t offset = 0;
  while (!s->closing) {
    size_t consumed = 0;
    Bytes payload;
    auto frame = TryDecodeFrame(ByteView(s->rbuf).subview(offset),
                                kMaxFramePayload, &consumed, &payload);
    if (!frame.ok()) {
      // The stream cannot be resynchronized after a framing error:
      // answer with the typed error and close once it flushes.
      requests_corrupt_->Increment();
      RejectNow(s, frame.status());
      s->closing = true;
      s->rbuf.clear();
      offset = 0;
      break;
    }
    if (!*frame) break;  // incomplete frame: wait for more bytes
    offset += consumed;
    requests_received_->Increment();
    const uint64_t charge = consumed;
    if (s->pending >= options_.max_pending_per_connection) {
      admission_.NoteShed();
      RejectNow(s, Status::Unavailable(
                       "connection pending-request queue is full"));
      continue;
    }
    if (!admission_.Admit(charge)) {
      RejectNow(s, Status::Unavailable("server admission budget exhausted"));
      continue;
    }
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      admission_.Release(charge);
      requests_corrupt_->Increment();
      RejectNow(s, request.status());
      s->closing = true;
      s->rbuf.clear();
      offset = 0;
      break;
    }
    ++s->pending;
    Execute(Ticket{s->id, s->next_seq++, charge,
                   observability::ScopedLatencyTimer::NowMicros()},
            *request);
  }
  if (offset > 0) {
    s->rbuf.erase(s->rbuf.begin(),
                  s->rbuf.begin() + static_cast<ptrdiff_t>(offset));
  }
}

void ProvenanceServer::FlushSession(Session* s) {
  while (!s->wq.empty()) {
    ReadyResponse& front = s->wq.front();
    ByteView rest(front.frame.data() + s->wq_front_written,
                  front.frame.size() - s->wq_front_written);
    auto io = s->sock.Write(rest);
    if (!io.ok()) {
      s->dead = true;
      return;
    }
    s->wq_front_written += io->bytes;
    if (io->would_block || io->bytes < rest.size()) return;
    s->wq_bytes -= front.frame.size();
    if (front.charge > 0) admission_.Release(front.charge);
    s->wq.pop_front();
    s->wq_front_written = 0;
  }
}

void ProvenanceServer::EmitReady(Session* s, uint64_t seq, Bytes frame,
                                 uint64_t charge) {
  s->ready.emplace(seq, ReadyResponse{std::move(frame), charge});
  for (;;) {
    auto it = s->ready.find(s->next_respond);
    if (it == s->ready.end()) break;
    s->wq_bytes += it->second.frame.size();
    s->wq.push_back(std::move(it->second));
    s->ready.erase(it);
    ++s->next_respond;
  }
  FlushSession(s);
  // A peer that does not read its responses must not grow our buffers
  // without bound: stop reading new requests at the soft cap, drop the
  // connection outright at the hard one (soft + one maximal response —
  // a single legitimately large chain response never trips it).
  if (s->wq_bytes > kMaxConnectionBuffer) s->closing = true;
  if (s->wq_bytes > kMaxConnectionBuffer + kMaxResponsePayload) {
    s->dead = true;
  }
}

void ProvenanceServer::RejectNow(Session* s, const Status& status) {
  Bytes frame = EncodeFrame(EncodeResponse(ResponseOf(status)));
  requests_failed_->Increment();
  EmitReady(s, s->next_seq++, std::move(frame), 0);
}

void ProvenanceServer::DestroySession(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  for (const auto& r : s.wq) {
    if (r.charge > 0) admission_.Release(r.charge);
  }
  for (const auto& [seq, r] : s.ready) {
    if (r.charge > 0) admission_.Release(r.charge);
  }
  // Charges for requests still in the pipeline are released when their
  // completions come back and find no session.
  sessions_.erase(it);
  connections_active_->Set(static_cast<int64_t>(sessions_.size()));
}

void ProvenanceServer::Execute(const Ticket& ticket,
                               const Request& request) {
  observability::TraceSpan span("server.request");
  if (request.op != NetOp::kSubmitRecord) {
    // A read observes everything submitted before it: the Drain makes
    // those submits durable, and their completions answer them first.
    (void)pipeline_->Drain();
    Respond(ticket, ExecuteRead(request));
    return;
  }
  // The pipeline checks the request's shape and chain at Submit and
  // refuses a bad one without buffering it, so no remote request can
  // poison ingest for everyone. Only the participant is ours to map.
  const SubmitRequest& submit = request.submit;
  auto participant = participants_.find(submit.participant_id);
  if (participant == participants_.end()) {
    Respond(ticket, ResponseOf(Status::NotFound(
                        "unknown participant id " +
                        std::to_string(submit.participant_id))));
    return;
  }
  provenance::IngestRequest ingest;
  ingest.op = submit.op;
  ingest.object = submit.object;
  ingest.post_hash = submit.post_hash;
  ingest.has_pre_hash = submit.has_pre_hash;
  ingest.pre_hash = submit.pre_hash;
  ingest.inputs = submit.inputs;
  ingest.input_prev_checksums = submit.input_prev_checksums;
  ingest.aggregate_seq = submit.aggregate_seq;
  ingest.inherited = submit.inherited;
  ingest.participant = participant->second;
  // Queued before Submit: a completion reported inside the call (an
  // inline commit, or a poison) may already answer it. Completions
  // answer from the front, so it is still queued exactly when the queue
  // is not empty.
  const size_t shard = ShardIndex(submit.object, awaiting_.size());
  std::deque<Awaiting>& queue = awaiting_[shard];
  queue.push_back(Awaiting{ticket, 0});
  Status submitted = pipeline_->Submit(ingest, &queue.back().seq);
  if (!submitted.ok() && !queue.empty()) {
    // Refused: no completion will ever name it.
    Respond(queue.back().ticket, ResponseOf(submitted));
    queue.pop_back();
  }
}

void ProvenanceServer::OnBatchDone(
    const provenance::BatchCompletion& completion) {
  std::deque<Awaiting>& queue = awaiting_[completion.shard];
  for (size_t i = 0; i < completion.records && !queue.empty(); ++i) {
    const Awaiting& awaiting = queue.front();
    Response response = ResponseOf(completion.status);
    if (completion.status.ok()) {
      AppendVarint64(&response.body, awaiting.seq);
      records_committed_->Increment();
    }
    Respond(awaiting.ticket, response);
    queue.pop_front();
  }
}

void ProvenanceServer::Respond(const Ticket& ticket,
                               const Response& response) {
  auto it = sessions_.find(ticket.session);
  if (it == sessions_.end()) {
    // The connection died while its request executed; the work is done
    // (and durable, for submits) but the answer has no recipient.
    admission_.Release(ticket.charge);
    return;
  }
  Session* s = &it->second;
  --s->pending;
  if (response.ok()) {
    requests_ok_->Increment();
  } else {
    requests_failed_->Increment();
  }
  request_latency_->Record(observability::ScopedLatencyTimer::NowMicros() -
                           ticket.arrival_micros);
  Bytes frame = EncodeFrame(EncodeResponse(response));
  const uint64_t response_charge = frame.size();
  admission_.Swap(ticket.charge, response_charge);
  EmitReady(s, ticket.seq, std::move(frame), response_charge);
}

Response ProvenanceServer::ExecuteRead(const Request& request) {
  Response response;
  switch (request.op) {
    case NetOp::kQueryChain: {
      // Reads run against a pinned batch-boundary snapshot, not the live
      // store: the drain before every read guarantees this client's own
      // submits are committed (and therefore published),
      // while concurrent writers from other connections keep ingesting
      // without being blocked by — or racing — this traversal.
      provenance::StoreSnapshot snapshot = pipeline_->OpenSnapshot();
      auto records = snapshot.ChainRecords(request.object);
      if (records.empty()) {
        response.code = StatusCode::kNotFound;
        response.message =
            "no chain for object " + std::to_string(request.object);
        break;
      }
      Bytes body;
      AppendVarint64(&body, records.size());
      for (const auto* record : records) {
        AppendLengthPrefixed(&body, provenance::EncodeRecord(*record));
      }
      if (body.size() > kMaxResponsePayload) {
        response.code = StatusCode::kOutOfRange;
        response.message = "chain exceeds the response size ceiling";
        break;
      }
      response.body = std::move(body);
      break;
    }
    case NetOp::kVerifyObject: {
      Result<provenance::VerificationReport> report = verifier_.VerifyObject(
          pipeline_->OpenSnapshot(), request.object);
      if (!report.ok()) {
        response = ResponseOf(report.status());
        break;
      }
      VerifySummary summary;
      summary.records_checked = report->records_checked;
      summary.signatures_verified = report->signatures_verified;
      summary.issues = report->issues.size();
      summary.ok = report->ok();
      response.body = EncodeVerifySummary(summary);
      break;
    }
    case NetOp::kStats: {
      std::string json = observability::GlobalMetrics().SnapshotJson();
      response.body = Bytes(json.begin(), json.end());
      break;
    }
    case NetOp::kSubmitRecord:
      response.code = StatusCode::kInternal;
      response.message = "submit routed to the read path";
      break;
  }
  return response;
}

}  // namespace provdb::net
