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
  server->loop_pool_ = std::make_unique<ThreadPool>(1);
  server->exec_pool_ = std::make_unique<ThreadPool>(1);
  ProvenanceServer* raw = server.get();
  // Completions must name only this server's submits: whatever an
  // earlier producer left pending commits first. A poisoned pipeline
  // answers every submit with its poison anyway.
  (void)pipeline->Drain();
  pipeline->SetProducerHooks(
      [raw] { raw->OnPipelineReady(); },
      [raw](const provenance::BatchCompletion& completion) {
        raw->OnBatchDone(completion);
      });
  raw->loop_pool_->Submit([raw] { raw->PollLoop(); });
  return server;
}

ProvenanceServer::~ProvenanceServer() { Stop(); }

void ProvenanceServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // No pipeline thread may reach this server once Stop returns.
  pipeline_->SetProducerHooks(nullptr, nullptr);
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  wake_.Wake();
  loop_pool_->Shutdown();
  exec_pool_->Shutdown();
}

// -- Poll thread -------------------------------------------------------

void ProvenanceServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_sessions;
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (stop_) break;
    }
    // Deliver executor completions first: they free admission budget and
    // may unblock response ordering.
    std::deque<DoneItem> done;
    {
      MutexLock lock(&mu_);
      done.swap(done_queue_);
    }
    while (!done.empty()) {
      HandleDone(std::move(done.front()));
      done.pop_front();
    }
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
    ::poll(fds.data(), fds.size(), options_.poll_timeout_ms);
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
  std::vector<ExecItem> enqueue;
  while (!s->closing) {
    size_t consumed = 0;
    Bytes payload;
    auto frame =
        TryDecodeFrame(ByteView(s->rbuf).subview(offset),
                       options_.max_frame_payload, &consumed, &payload);
    if (!frame.ok()) {
      // The stream cannot be resynchronized after a framing error:
      // answer with the typed error and close once it flushes.
      requests_corrupt_->Increment();
      RejectNow(s, frame.status().code(), frame.status().message());
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
      RejectNow(s, StatusCode::kUnavailable,
                "connection pending-request queue is full");
      continue;
    }
    if (!admission_.Admit(charge)) {
      RejectNow(s, StatusCode::kUnavailable,
                "server admission budget exhausted");
      continue;
    }
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      admission_.Release(charge);
      requests_corrupt_->Increment();
      RejectNow(s, request.status().code(), request.status().message());
      s->closing = true;
      s->rbuf.clear();
      offset = 0;
      break;
    }
    ExecItem item;
    item.session = s->id;
    item.seq = s->next_seq++;
    item.request = std::move(*request);
    item.charge = charge;
    item.arrival_micros = observability::ScopedLatencyTimer::NowMicros();
    ++s->pending;
    enqueue.push_back(std::move(item));
  }
  if (offset > 0) {
    s->rbuf.erase(s->rbuf.begin(),
                  s->rbuf.begin() + static_cast<ptrdiff_t>(offset));
  }
  if (!enqueue.empty()) {
    bool kick = false;
    {
      MutexLock lock(&mu_);
      for (auto& item : enqueue) exec_queue_.push_back(std::move(item));
      if (!exec_scheduled_) {
        exec_scheduled_ = true;
        kick = true;
      }
    }
    if (kick) exec_pool_->Submit([this] { ExecutorRun(); });
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

void ProvenanceServer::HandleDone(DoneItem item) {
  auto it = sessions_.find(item.session);
  if (it == sessions_.end()) {
    // The connection died while its request executed; the work is done
    // (and durable, for submits) but the answer has no recipient.
    admission_.Release(item.charge);
    return;
  }
  Session* s = &it->second;
  --s->pending;
  if (item.ok) {
    requests_ok_->Increment();
  } else {
    requests_failed_->Increment();
  }
  request_latency_->Record(observability::ScopedLatencyTimer::NowMicros() -
                           item.arrival_micros);
  const uint64_t response_charge = item.frame.size();
  admission_.Swap(item.charge, response_charge);
  EmitReady(s, item.seq, std::move(item.frame), response_charge);
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
  if (s->wq_bytes > options_.max_connection_buffer) s->closing = true;
  if (s->wq_bytes >
      options_.max_connection_buffer + options_.max_response_payload) {
    s->dead = true;
  }
}

void ProvenanceServer::RejectNow(Session* s, StatusCode code,
                                 std::string message) {
  Response response;
  response.code = code;
  response.message = std::move(message);
  Bytes frame = EncodeFrame(EncodeResponse(response));
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
  // Charges for requests still on the executor are released when their
  // DoneItems come back and find no session.
  sessions_.erase(it);
  connections_active_->Set(static_cast<int64_t>(sessions_.size()));
}

// -- Executor strand ---------------------------------------------------

void ProvenanceServer::ExecutorRun() {
  for (;;) {
    std::deque<ExecItem> batch;
    {
      MutexLock lock(&mu_);
      if (exec_queue_.empty() && !pipeline_ready_) {
        exec_scheduled_ = false;
        return;
      }
      batch.swap(exec_queue_);
      pipeline_ready_ = false;
    }
    for (ExecItem& item : batch) {
      Execute(std::move(item));
      // Hand over the answers a completion produced on the way, so acks
      // do not wait for the rest of the pass.
      if (!done_.empty()) FlushDone();
    }
    // Keep filling the open batches while requests keep arriving (the
    // pipeline's thresholds cap them); close them once the queue runs
    // dry. The acks come from the completions either call reports.
    bool dry = false;
    {
      MutexLock lock(&mu_);
      dry = exec_queue_.empty();
    }
    (void)(dry ? pipeline_->Flush() : pipeline_->Poll());
    FlushDone();
  }
}

void ProvenanceServer::Respond(const ExecItem& item,
                               const Response& response) {
  DoneItem done;
  done.session = item.session;
  done.seq = item.seq;
  done.charge = item.charge;
  done.arrival_micros = item.arrival_micros;
  done.ok = response.ok();
  done.frame = EncodeFrame(EncodeResponse(response));
  done_.push_back(std::move(done));
}

void ProvenanceServer::Execute(ExecItem item) {
  observability::TraceSpan span("server.request");
  if (item.request.op != NetOp::kSubmitRecord) {
    // A read observes everything submitted before it: the Drain makes
    // those submits durable, and their completions answer them first.
    (void)pipeline_->Drain();
    Respond(item, ExecuteRead(item.request));
    return;
  }
  // The pipeline checks the request's shape and chain at Submit and
  // refuses a bad one without buffering it, so no remote request can
  // poison ingest for everyone. Only the participant is ours to map.
  const SubmitRequest& submit = item.request.submit;
  auto participant = participants_.find(submit.participant_id);
  if (participant == participants_.end()) {
    Response response;
    response.code = StatusCode::kNotFound;
    response.message =
        "unknown participant id " + std::to_string(submit.participant_id);
    Respond(item, response);
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
  queue.push_back(Awaiting{std::move(item), 0});
  Status submitted = pipeline_->Submit(ingest, &queue.back().seq);
  if (!submitted.ok() && !queue.empty()) {
    // Refused: no completion will ever name it.
    Response response;
    response.code = submitted.code();
    response.message = submitted.message();
    Respond(queue.back().item, response);
    queue.pop_back();
  }
}

void ProvenanceServer::OnBatchDone(
    const provenance::BatchCompletion& completion) {
  std::deque<Awaiting>& queue = awaiting_[completion.shard];
  for (size_t i = 0; i < completion.records && !queue.empty(); ++i) {
    const Awaiting& awaiting = queue.front();
    Response response;
    if (completion.status.ok()) {
      AppendVarint64(&response.body, awaiting.seq);
      records_committed_->Increment();
    } else {
      response.code = completion.status.code();
      response.message = completion.status.message();
    }
    Respond(awaiting.item, response);
    queue.pop_front();
  }
}

void ProvenanceServer::OnPipelineReady() {
  bool kick = false;
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    pipeline_ready_ = true;
    if (!exec_scheduled_) {
      exec_scheduled_ = true;
      kick = true;
    }
  }
  if (kick) exec_pool_->Submit([this] { ExecutorRun(); });
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
      if (body.size() > options_.max_response_payload) {
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
        response.code = report.status().code();
        response.message = report.status().message();
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

void ProvenanceServer::FlushDone() {
  if (done_.empty()) return;
  {
    MutexLock lock(&mu_);
    for (DoneItem& item : done_) done_queue_.push_back(std::move(item));
  }
  done_.clear();
  wake_.Wake();
}

}  // namespace provdb::net
