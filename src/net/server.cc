#include "net/server.h"

#include <cerrno>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "dataflow/simd.h"

namespace helix {
namespace net {
namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// On-the-wire size of a frame carrying `payload_bytes` of payload.
int64_t FrameWireBytes(size_t payload_bytes) {
  return static_cast<int64_t>(kFrameHeaderBytes + payload_bytes +
                              kFrameChecksumBytes);
}

}  // namespace

// --------------------------------------------------------- connections ---

/// Thread mode: the connection of one blocking reader thread. Replies are
/// written synchronously on the pool worker, serialized by write_mu; the
/// SO_SNDTIMEO on the socket bounds how long a slow reader can pin a
/// worker.
struct HelixServer::ThreadConn : HelixServer::ClientConn {
  HelixServer* server = nullptr;
  std::unique_ptr<TcpConnection> conn;
  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> done{false};
  /// Dispatched-but-unanswered requests (the per-connection shed bound);
  /// the global bound rides on the server's outstanding_ drain gauge.
  std::atomic<int> inflight{0};

  void SendReply(uint64_t request_id, std::string payload) override {
    Frame reply;
    reply.opcode = static_cast<uint8_t>(Opcode::kReply);
    reply.request_id = request_id;
    reply.payload = std::move(payload);
    size_t payload_bytes = reply.payload.size();
    int64_t write_start = SteadyNowMicros();
    std::lock_guard<std::mutex> lock(write_mu);
    Status written = WriteFrame(conn.get(), reply);
    if (written.ok()) {
      server->AccountReplyOut(this, payload_bytes, write_start);
    } else {
      OnWriteFailure(request_id, written);
    }
  }

  bool WaitRepliesFlushed(int /*timeout_ms*/) override {
    return true;  // writes are synchronous: sent means in the kernel
  }

  /// Classifies a failed reply write by the socket's errno: a send
  /// timeout (EAGAIN under SO_SNDTIMEO) is a slow reader that stopped
  /// draining; everything else (EPIPE, ECONNRESET, ...) is a peer that
  /// vanished. Either way the stream is shut down so the reader stops
  /// accepting work from a peer that cannot receive answers; the
  /// iteration's effects on the shared store are durable regardless.
  void OnWriteFailure(uint64_t request_id, const Status& written) {
    int err = conn->last_errno();
    if (err == EAGAIN || err == EWOULDBLOCK) {
      server->reply_timeouts_->Add(1);
      HELIX_LOG(Warning) << "reply to request " << request_id
                         << " timed out (slow reader): "
                         << written.ToString();
    } else {
      server->reply_drops_->Add(1);
      HELIX_LOG(Info) << "dropping reply to request " << request_id << ": "
                      << written.ToString();
    }
    conn->ShutdownBoth();
  }
};

/// Event-loop mode: a thin handle over the loop-owned connection. Replies
/// are *enqueued* (the loop thread flushes on write readiness), so the
/// reply_write histogram measures enqueue cost, not wire time; write
/// failures surface through OnLoopHangup instead of a Status here. Holding
/// the loop Conn weakly keeps `Conn::user -> EventConn` from becoming a
/// reference cycle: when the loop tears the connection down, queued
/// handler tasks see an expired handle and drop their replies.
struct HelixServer::EventConn : HelixServer::ClientConn {
  HelixServer* server = nullptr;
  std::weak_ptr<EventLoop::Conn> loop_conn;

  void SendReply(uint64_t request_id, std::string payload) override {
    std::shared_ptr<EventLoop::Conn> lc = loop_conn.lock();
    if (lc == nullptr) {
      return;  // torn down; its in-flight slots were already returned
    }
    Frame reply;
    reply.opcode = static_cast<uint8_t>(Opcode::kReply);
    reply.request_id = request_id;
    reply.payload = std::move(payload);
    size_t payload_bytes = reply.payload.size();
    int64_t enqueue_start = SteadyNowMicros();
    lc->SendFrame(reply);
    server->AccountReplyOut(this, payload_bytes, enqueue_start);
  }

  bool WaitRepliesFlushed(int timeout_ms) override {
    std::shared_ptr<EventLoop::Conn> lc = loop_conn.lock();
    return lc == nullptr || lc->WaitOutboundDrained(timeout_ms);
  }
};

// -------------------------------------------------------------- startup ---

Result<std::unique_ptr<HelixServer>> HelixServer::Start(
    const ServerOptions& options, WorkflowResolver resolver) {
  if (!resolver) {
    return Status::InvalidArgument("HelixServer requires a resolver");
  }
  std::unique_ptr<HelixServer> server(
      new HelixServer(options, std::move(resolver)));
  HELIX_ASSIGN_OR_RETURN(server->service_,
                         service::SessionService::Open(options.service));
  obs::MetricsRegistry* metrics = server->service_->metrics();
  server->decode_micros_ = metrics->GetHistogram("server.decode_micros");
  server->queue_micros_ = metrics->GetHistogram("server.queue_micros");
  server->execute_micros_ = metrics->GetHistogram("server.execute_micros");
  server->reply_write_micros_ =
      metrics->GetHistogram("server.reply_write_micros");
  server->frames_in_total_ = metrics->GetCounter("server.frames_in");
  server->bytes_in_total_ = metrics->GetCounter("server.bytes_in");
  server->frames_out_total_ = metrics->GetCounter("server.frames_out");
  server->bytes_out_total_ = metrics->GetCounter("server.bytes_out");
  server->requests_total_ = metrics->GetCounter("server.requests");
  // Registered up front (not lazily on first event) so every snapshot
  // carries them and telemetry checks can assert presence even at zero.
  server->requests_shed_ = metrics->GetCounter("server.requests_shed");
  server->reply_drops_ = metrics->GetCounter("server.reply_drops");
  server->reply_timeouts_ = metrics->GetCounter("server.reply_timeouts");
  HELIX_ASSIGN_OR_RETURN(server->listener_,
                         TcpListener::Listen(options.host, options.port));
  if (options.event_loop) {
    EventLoopOptions loop_options;
    loop_options.io_threads = options.io_threads;
    loop_options.max_payload_bytes = options.max_payload_bytes;
    loop_options.max_inflight_per_connection =
        options.max_inflight_per_connection;
    loop_options.max_inflight_total = options.max_inflight_total;
    loop_options.max_outbound_queue_bytes = options.max_outbound_queue_bytes;
    EventLoop::Handlers handlers;
    HelixServer* raw = server.get();
    handlers.on_accept = [raw](const std::shared_ptr<EventLoop::Conn>& c) {
      raw->OnLoopAccept(c);
    };
    handlers.on_frame = [raw](const std::shared_ptr<EventLoop::Conn>& c,
                              Frame&& frame, int64_t decode_micros) {
      raw->OnLoopFrame(c, std::move(frame), decode_micros);
    };
    handlers.on_shed = [raw](const std::shared_ptr<EventLoop::Conn>&) {
      raw->requests_shed_->Add(1);
    };
    handlers.on_hangup = [raw](const std::shared_ptr<EventLoop::Conn>& c,
                               HangupReason reason) {
      raw->OnLoopHangup(c, reason);
    };
    HELIX_ASSIGN_OR_RETURN(
        server->event_loop_,
        EventLoop::Start(server->listener_.get(), loop_options,
                         std::move(handlers)));
  } else {
    server->accept_thread_ = std::thread([s = server.get()]() {
      s->AcceptLoop();
    });
  }
  return server;
}

HelixServer::~HelixServer() { Stop(); }

int64_t HelixServer::num_connections() const {
  if (event_loop_ != nullptr) {
    return event_loop_->num_connections();
  }
  return thread_mode_connections_.load(std::memory_order_acquire);
}

// -------------------------------------------------- thread-mode transport ---

void HelixServer::AcceptLoop() {
  while (true) {
    auto accepted = listener_->Accept();
    if (!accepted.ok()) {
      if (accepted.status().IsFailedPrecondition()) {
        return;  // Stop() closed the listener: orderly shutdown
      }
      // Environmental (EMFILE under fd pressure, etc.): the server must
      // keep accepting once the pressure clears, not die silently.
      HELIX_LOG(Warning) << "accept failed, retrying: "
                         << accepted.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    auto connection = std::make_shared<ThreadConn>();
    connection->server = this;
    connection->conn = std::move(accepted).value();
    // A client that stops reading must not pin a pool worker forever on a
    // full send buffer; after the timeout the write fails, is classified
    // as a reply timeout, and the connection is dropped.
    connection->conn->SetSendTimeout(options_.send_timeout_seconds);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap connections whose readers already finished (client hung up):
      // a long-running server must not accumulate one fd + thread per
      // past client until shutdown. Handler tasks still in flight keep
      // the ThreadConn alive through their shared_ptr.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->reader.joinable()) {
            (*it)->reader.join();
          }
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back(connection);
    }
    thread_mode_connections_.fetch_add(1, std::memory_order_acq_rel);
    connection->reader = std::thread([this, connection]() {
      ReaderLoop(connection);
      thread_mode_connections_.fetch_sub(1, std::memory_order_acq_rel);
      connection->done.store(true, std::memory_order_release);
    });
  }
}

void HelixServer::ReaderLoop(std::shared_ptr<ThreadConn> connection) {
  while (true) {
    uint64_t request_id = 0;
    int64_t read_start = SteadyNowMicros();
    Result<Frame> frame = ReadFrame(connection->conn.get(),
                                    options_.max_payload_bytes, &request_id);
    if (!frame.ok()) {
      // Clean close at a frame boundary is silent; anything else (bad
      // magic, corrupt checksum, oversized length, torn stream) gets a
      // best-effort error reply addressed to the parsed request id, then
      // the stream is dropped — after a framing error the byte stream has
      // no trustworthy next-frame boundary.
      if (!frame.status().IsNotFound()) {
        connection->SendReply(request_id,
                              EncodeErrorReply(frame.status()));
        connection->conn->ShutdownBoth();
      }
      break;
    }
    // Decode phase: everything ReadFrame did — waiting for the request
    // bytes, header/checksum verification, payload copy. For a pipelining
    // client this is wire + parse time; for an idle connection it is
    // dominated by the wait for the next request.
    decode_micros_->Observe(SteadyNowMicros() - read_start);
    AccountFrameIn(connection.get(), frame->payload.size());
    // Backpressure, same policy (and reply bytes) as the event loop:
    // shed past either in-flight bound, and keep the connection up —
    // shedding is an answer, not a punishment.
    bool shed = connection->inflight.load(std::memory_order_acquire) >=
                options_.max_inflight_per_connection;
    if (!shed) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      shed = outstanding_ >= options_.max_inflight_total;
    }
    if (shed) {
      requests_shed_->Add(1);
      connection->SendReply(
          request_id,
          EncodeErrorReply(Status::ResourceExhausted(
              "server overloaded: in-flight request limit reached")));
      continue;
    }
    connection->inflight.fetch_add(1, std::memory_order_acq_rel);
    bool scheduled = DispatchFrame(
        connection, std::move(frame).value(),
        [connection]() {
          connection->inflight.fetch_sub(1, std::memory_order_acq_rel);
        });
    if (!scheduled) {
      break;  // shutting down; the dispatch already answered
    }
  }
  // Close-on-disconnect: retire the sessions this connection opened, so a
  // client that drops (or crashes) does not leak server-side sessions.
  CloseConnectionSessions(connection.get());
}

// --------------------------------------------------- event-mode transport ---

void HelixServer::OnLoopAccept(const std::shared_ptr<EventLoop::Conn>& conn) {
  auto connection = std::make_shared<EventConn>();
  connection->server = this;
  connection->loop_conn = conn;
  conn->user = connection;
}

void HelixServer::OnLoopFrame(const std::shared_ptr<EventLoop::Conn>& conn,
                              Frame&& frame, int64_t decode_micros) {
  std::shared_ptr<EventConn> connection =
      std::static_pointer_cast<EventConn>(conn->user);
  decode_micros_->Observe(decode_micros);
  AccountFrameIn(connection.get(), frame.payload.size());
  // A failed dispatch (pool refusing work during shutdown) already sent
  // the error reply; the loop connection outlives it either way.
  (void)DispatchFrame(connection, std::move(frame), nullptr);
}

void HelixServer::OnLoopHangup(const std::shared_ptr<EventLoop::Conn>& conn,
                               HangupReason reason) {
  std::shared_ptr<EventConn> connection =
      std::static_pointer_cast<EventConn>(conn->user);
  if (connection == nullptr) {
    return;
  }
  switch (reason) {
    case HangupReason::kSlowReader:
      // The event-mode analogue of the blocking path's send timeout: the
      // peer stopped draining replies and its queued bytes blew the
      // budget.
      reply_timeouts_->Add(1);
      HELIX_LOG(Warning) << "dropping connection " << conn->id()
                         << ": slow reader exceeded the outbound-queue "
                            "budget, queued replies dropped";
      break;
    case HangupReason::kPeerReset:
      // The peer vanished (reset, torn stream): anything queued for it
      // was dropped with the connection.
      reply_drops_->Add(1);
      break;
    case HangupReason::kPeerClosed:
    case HangupReason::kProtocolError:
    case HangupReason::kServerStop:
      break;
  }
  CloseConnectionSessions(connection.get());
}

// ------------------------------------------------------------- dispatch ---

bool HelixServer::DispatchFrame(const std::shared_ptr<ClientConn>& conn,
                                Frame frame, std::function<void()> on_done) {
  // Dispatch onto the shared pool: iterations of different sessions run
  // concurrently, bounded by the pool — the remote analogue of
  // SubmitIteration.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++outstanding_;
  }
  uint64_t request_id = frame.request_id;
  int64_t enqueue_micros = SteadyNowMicros();
  bool scheduled = service_->pool()->Schedule(
      [this, conn, enqueue_micros, on_done,
       f = std::move(frame)]() mutable {
        HandleRequest(conn, std::move(f), enqueue_micros);
        if (on_done) {
          on_done();
        }
        std::lock_guard<std::mutex> lock(drain_mu_);
        if (--outstanding_ == 0) {
          drain_cv_.notify_all();
        }
      });
  if (!scheduled) {
    if (on_done) {
      on_done();
    }
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      if (--outstanding_ == 0) {
        drain_cv_.notify_all();
      }
    }
    conn->SendReply(request_id,
                    EncodeErrorReply(Status::FailedPrecondition(
                        "server is shutting down")));
  }
  return scheduled;
}

void HelixServer::HandleRequest(const std::shared_ptr<ClientConn>& connection,
                                Frame frame, int64_t enqueue_micros) {
  int64_t handler_start = SteadyNowMicros();
  queue_micros_->Observe(handler_start - enqueue_micros);
  requests_total_->Add(1);
  std::string reply;
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kOpenSession:
      reply = HandleOpenSession(connection, frame);
      break;
    case Opcode::kCloseSession:
      reply = HandleCloseSession(connection, frame);
      break;
    case Opcode::kRunIteration:
      reply = HandleRunIteration(frame);
      break;
    case Opcode::kGetCounters:
      reply = HandleGetCounters(frame);
      break;
    case Opcode::kGetMetrics:
      reply = HandleGetMetrics(frame);
      break;
    case Opcode::kGetTrace:
      reply = HandleGetTrace(frame);
      break;
    case Opcode::kFetchOutput:
      reply = HandleFetchOutput(frame);
      break;
    case Opcode::kShutdown:
      reply = EncodeEmptyReply();
      break;
    default:
      reply = EncodeErrorReply(Status::InvalidArgument(
          "unknown opcode " + std::to_string(frame.opcode)));
      break;
  }
  execute_micros_->Observe(SteadyNowMicros() - handler_start);
  connection->SendReply(frame.request_id, std::move(reply));
  if (static_cast<Opcode>(frame.opcode) == Opcode::kShutdown) {
    // Ack first (above), act later: Stop() from a pool task would deadlock
    // the pool drain, so shutdown is recorded and surfaced through
    // WaitForShutdownRequest for the owner to act on. In event mode the
    // ack is only *queued* by SendReply, so wait for the flush — the
    // owner's Stop() tears the loop down and would destroy it unsent.
    connection->WaitRepliesFlushed(/*timeout_ms=*/2000);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      shutdown_requested_ = true;
    }
    state_cv_.notify_all();
  }
}

// ------------------------------------------------------------- handlers ---

std::string HelixServer::HandleOpenSession(
    const std::shared_ptr<ClientConn>& connection, const Frame& frame) {
  Result<std::string> name = DecodeOpenSessionRequest(frame.payload);
  if (!name.ok()) {
    return EncodeErrorReply(name.status());
  }
  Result<service::ServiceSession*> session =
      service_->CreateSession(name.value());
  if (!session.ok()) {
    return EncodeErrorReply(session.status());
  }
  // Read the id before publishing it: once it is in session_ids, a
  // disconnect on another thread may close and free the session.
  uint64_t id = session.value()->id();
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    connection->session_ids.push_back(id);
  }
  return EncodeOpenSessionReply(id);
}

std::string HelixServer::HandleCloseSession(
    const std::shared_ptr<ClientConn>& connection, const Frame& frame) {
  Result<uint64_t> session_id = DecodeCloseSessionRequest(frame.payload);
  if (!session_id.ok()) {
    return EncodeErrorReply(session_id.status());
  }
  Status closed = service_->CloseSession(session_id.value());
  if (!closed.ok()) {
    return EncodeErrorReply(closed);
  }
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    for (auto it = connection->session_ids.begin();
         it != connection->session_ids.end(); ++it) {
      if (*it == session_id.value()) {
        connection->session_ids.erase(it);
        break;
      }
    }
  }
  return EncodeEmptyReply();
}

std::string HelixServer::HandleRunIteration(const Frame& frame) {
  Result<RunIterationRequest> request =
      DecodeRunIterationRequest(frame.payload);
  if (!request.ok()) {
    return EncodeErrorReply(request.status());
  }
  // The shared_ptr keeps the session alive across a concurrent
  // CloseSession (its connection dropping mid-iteration).
  std::shared_ptr<service::ServiceSession> session =
      service_->FindSession(request->session_id);
  if (session == nullptr) {
    return EncodeErrorReply(Status::NotFound(
        "no session with id " + std::to_string(request->session_id)));
  }
  Result<core::Workflow> workflow = resolver_(request->spec);
  if (!workflow.ok()) {
    return EncodeErrorReply(
        workflow.status().WithContext("resolving workflow spec"));
  }
  // Already on a pool worker: run the iteration here, exactly like an
  // in-process SubmitIteration task would.
  Result<core::IterationResult> result = service_->RunIteration(
      session.get(), workflow.value(), request->description,
      request->category, &request->spec);
  if (!result.ok()) {
    return EncodeErrorReply(result.status());
  }
  RemoteIterationResult remote;
  remote.version_id = result->version_id;
  remote.num_computed = result->report.num_computed;
  remote.num_loaded = result->report.num_loaded;
  remote.num_shared = result->report.num_shared;
  remote.num_pruned = result->report.num_pruned;
  remote.num_materialized = result->report.num_materialized;
  remote.total_micros = result->report.total_micros;
  for (const auto& [output_name, data] : result->report.outputs) {
    const core::NodeExecution* node = result->report.FindNode(output_name);
    // A loaded output carries the fingerprint its store entry recorded
    // at write time; only computed and shared outputs are hashed here.
    uint64_t fingerprint = node != nullptr ? node->stored_fingerprint : 0;
    if (fingerprint == 0) {
      fingerprint = data.Fingerprint();
    }
    remote.outputs.push_back(
        {output_name, fingerprint, node != nullptr ? node->signature : 0});
  }
  return EncodeRunIterationReply(remote);
}

std::string HelixServer::HandleGetCounters(const Frame& frame) {
  Result<uint64_t> session_id = DecodeGetCountersRequest(frame.payload);
  if (!session_id.ok()) {
    return EncodeErrorReply(session_id.status());
  }
  if (session_id.value() == 0) {
    return EncodeCountersReply(service_->AggregateCounters());
  }
  std::shared_ptr<service::ServiceSession> session =
      service_->FindSession(session_id.value());
  if (session == nullptr) {
    return EncodeErrorReply(Status::NotFound(
        "no session with id " + std::to_string(session_id.value())));
  }
  return EncodeCountersReply(session->counters());
}

std::string HelixServer::HandleGetMetrics(const Frame& frame) {
  Status empty = DecodeEmptyRequest(frame.payload, "GetMetrics");
  if (!empty.ok()) {
    return EncodeErrorReply(empty);
  }
  // Kernel invocation counts live in lock-free globals (dataflow/simd.h);
  // fold the deltas into the registry so the snapshot carries them.
  dataflow::simd::FoldCountersInto(service_->metrics());
  return EncodeTextReply(service_->metrics()->SnapshotJson());
}

std::string HelixServer::HandleGetTrace(const Frame& frame) {
  Status empty = DecodeEmptyRequest(frame.payload, "GetTrace");
  if (!empty.ok()) {
    return EncodeErrorReply(empty);
  }
  return EncodeTextReply(service_->trace()->ToChromeJson());
}

std::string HelixServer::HandleFetchOutput(const Frame& frame) {
  Result<uint64_t> signature = DecodeFetchOutputRequest(frame.payload);
  if (!signature.ok()) {
    return EncodeErrorReply(signature.status());
  }
  // The iteration that produced this output may have returned before its
  // write landed (write-behind), in this session or in a sibling that
  // shared it through the in-flight table: wait for that one write.
  service_->materializer()->WaitFor(signature.value());
  // The stored envelope ships as stored: no decode, no re-encode. The
  // client verifies the frame and then the envelope checksum.
  Result<std::shared_ptr<const std::string>> envelope =
      service_->store()->GetBytes(signature.value());
  if (!envelope.ok()) {
    return EncodeErrorReply(envelope.status().WithContext(
        "fetching output with signature " +
        std::to_string(signature.value())));
  }
  return EncodeFetchOutputReply(*envelope.value());
}

// -------------------------------------------------------------- helpers ---

void HelixServer::CloseConnectionSessions(ClientConn* connection) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    ids.swap(connection->session_ids);
  }
  for (uint64_t id : ids) {
    // NotFound means an explicit CloseSession already retired it.
    Status closed = service_->CloseSession(id);
    if (!closed.ok() && !closed.IsNotFound()) {
      HELIX_LOG(Warning) << "closing session " << id
                         << " on disconnect failed: " << closed.ToString();
    }
  }
}

void HelixServer::AccountFrameIn(ClientConn* connection,
                                 size_t payload_bytes) {
  frames_in_total_->Add(1);
  bytes_in_total_->Add(FrameWireBytes(payload_bytes));
  connection->frames_in.fetch_add(1, std::memory_order_relaxed);
  connection->bytes_in.fetch_add(FrameWireBytes(payload_bytes),
                                 std::memory_order_relaxed);
}

void HelixServer::AccountReplyOut(ClientConn* connection,
                                  size_t payload_bytes,
                                  int64_t write_start) {
  reply_write_micros_->Observe(SteadyNowMicros() - write_start);
  frames_out_total_->Add(1);
  bytes_out_total_->Add(FrameWireBytes(payload_bytes));
  connection->frames_out.fetch_add(1, std::memory_order_relaxed);
  connection->bytes_out.fetch_add(FrameWireBytes(payload_bytes),
                                  std::memory_order_relaxed);
}

// ------------------------------------------------------------- shutdown ---

void HelixServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [this]() { return shutdown_requested_ || stopped_; });
}

void HelixServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    shutdown_requested_ = true;
  }
  state_cv_.notify_all();

  if (event_loop_ != nullptr) {
    // 1+2. One call: joins the loop threads and tears down every
    // connection — no new frames after it returns. The hangup handlers it
    // fires retire the connections' sessions, which needs the service
    // still alive (it is; teardown is below). The listener closes after,
    // so a racing accept in the loop never touches a closed fd.
    event_loop_->Stop();
    listener_->Close();
  } else {
    // 1. No new connections. The listener may be absent when Start()
    // failed partway and the half-built server is being destroyed.
    if (listener_ != nullptr) {
      listener_->Close();
    }
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    // 2. No new requests: unblock and join every reader. Joining a reader
    //    that already exited on its own (client hung up earlier) is fine.
    std::vector<std::shared_ptr<ThreadConn>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns = conns_;
    }
    for (const auto& connection : conns) {
      connection->conn->ShutdownBoth();
    }
    for (const auto& connection : conns) {
      if (connection->reader.joinable()) {
        connection->reader.join();
      }
    }
  }
  // 3. Let in-flight handlers finish (their replies go to already-dead
  //    connections and are dropped; their store effects are durable).
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this]() { return outstanding_ == 0; });
  }
  // 4. Tear down the service: drains the pool and the background writer,
  //    then persists the shared stats registry. The pointer is detached
  //    under state_mu_ first so a concurrent service() reads nullptr
  //    rather than a service mid-destruction; the heavy destructor then
  //    runs unlocked.
  std::unique_ptr<service::SessionService> doomed;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    doomed = std::move(service_);
  }
  doomed.reset();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
}

}  // namespace net
}  // namespace helix
