#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "serve/protocol.h"
#include "util/logging.h"

namespace pae::serve {

Server::Server(ServerOptions options) : options_(std::move(options)) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  requests_counter_ = metrics.GetCounter("serve.requests");
  errors_counter_ = metrics.GetCounter("serve.protocol_errors");
  connections_counter_ = metrics.GetCounter("serve.connections");
  swaps_counter_ = metrics.GetCounter("serve.hot_swaps");
  request_seconds_ = metrics.GetHistogram("serve.request.seconds",
                                          core::RequestLatencyBounds());
  publish_load_seconds_ = metrics.GetHistogram("serve.publish.load_seconds",
                                               core::RequestLatencyBounds());
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("server already started");
  }
  const bool unix_listener = !options_.unix_path.empty();
  const bool tcp_listener = options_.tcp_port >= 0;
  if (unix_listener == tcp_listener) {
    return Status::InvalidArgument(
        "configure exactly one of unix_path and tcp_port");
  }
  if (options_.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1");
  }

  Result<Fd> listener =
      unix_listener ? ListenUnix(options_.unix_path)
                    : ListenTcp(options_.tcp_port, &resolved_tcp_port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());

  stopping_.store(false, std::memory_order_seq_cst);
  running_.store(true, std::memory_order_seq_cst);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (unix_listener) {
    PAE_LOG(INFO) << "pae-serve listening on unix:" << options_.unix_path
                  << " with " << options_.workers << " workers";
  } else {
    PAE_LOG(INFO) << "pae-serve listening on tcp:" << resolved_tcp_port_
                  << " with " << options_.workers << " workers";
  }
  return Status::Ok();
}

void Server::RequestStop() {
  {
    util::MutexLock lock(queue_mutex_);
    if (stopping_.exchange(true, std::memory_order_seq_cst)) return;
    // Wake workers parked in read(): half-close every in-flight
    // connection so their next read sees EOF.
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  listener_.ShutdownBoth();
  queue_cv_.NotifyAll();
}

void Server::WaitUntilStopRequested() {
  util::MutexLock lock(queue_mutex_);
  while (!stopping_.load(std::memory_order_seq_cst)) {
    queue_cv_.Wait(queue_mutex_);
  }
}

void Server::Stop() {
  if (!running_.load(std::memory_order_seq_cst)) return;
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    util::MutexLock lock(queue_mutex_);
    pending_.clear();  // Fd destructors close unserved connections
  }
  listener_ = Fd();
  running_.store(false, std::memory_order_seq_cst);
  PAE_LOG(INFO) << "pae-serve stopped after "
                << requests_.load(std::memory_order_relaxed)
                << " requests on "
                << connections_.load(std::memory_order_relaxed)
                << " connections ("
                << hot_swaps_.load(std::memory_order_relaxed)
                << " hot swaps, "
                << protocol_errors_.load(std::memory_order_relaxed)
                << " protocol errors)";
}

uint64_t Server::Publish(
    std::shared_ptr<const core::ExtractionEngine> engine) {
  const uint64_t generation = generations_.Publish(std::move(engine));
  if (generation > 1) {
    hot_swaps_.fetch_add(1, std::memory_order_relaxed);
    swaps_counter_->Increment();
  }
  PAE_LOG(INFO) << "pae-serve published generation " << generation;
  return generation;
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.hot_swaps = hot_swaps_.load(std::memory_order_relaxed);
  return stats;
}

void Server::AcceptLoop() {
  // Poll with a short timeout so a stop request is noticed even when the
  // listener shutdown races the poll registration.
  constexpr int kAcceptTimeoutMs = 50;
  while (!stopping_.load(std::memory_order_seq_cst)) {
    Result<Fd> accepted = AcceptWithTimeout(listener_, kAcceptTimeoutMs);
    if (!accepted.ok()) {
      if (!stopping_.load(std::memory_order_seq_cst)) {
        PAE_LOG(WARNING) << "accept failed: "
                         << accepted.status().ToString();
      }
      continue;
    }
    if (!accepted.value().valid()) continue;  // poll timeout
    connections_.fetch_add(1, std::memory_order_relaxed);
    connections_counter_->Increment();
    {
      util::MutexLock lock(queue_mutex_);
      pending_.push_back(std::move(accepted.value()));
    }
    queue_cv_.NotifyOne();
  }
}

void Server::WorkerLoop() {
  // One Scratch per worker for its whole lifetime: steady-state request
  // handling reuses these buffers instead of allocating per request.
  std::unique_ptr<core::ExtractionEngine::Scratch> scratch =
      core::ExtractionEngine::NewScratch();
  for (;;) {
    Fd fd;
    {
      util::MutexLock lock(queue_mutex_);
      while (!stopping_.load(std::memory_order_seq_cst) &&
             pending_.empty()) {
        queue_cv_.Wait(queue_mutex_);
      }
      if (stopping_.load(std::memory_order_seq_cst)) return;
      fd = std::move(pending_.front());
      pending_.pop_front();
      active_fds_.push_back(fd.get());
    }
    const int raw_fd = fd.get();
    const bool keep_running = ServeConnection(std::move(fd), scratch.get());
    {
      util::MutexLock lock(queue_mutex_);
      active_fds_.erase(
          std::remove(active_fds_.begin(), active_fds_.end(), raw_fd),
          active_fds_.end());
    }
    if (!keep_running) {
      RequestStop();
      return;
    }
  }
}

bool Server::ServeConnection(Fd fd,
                             core::ExtractionEngine::Scratch* scratch) {
  std::string payload;
  while (!stopping_.load(std::memory_order_seq_cst)) {
    const Status read = ReadFrame(fd, &payload, options_.max_frame_bytes);
    if (!read.ok()) {
      // A clean EOF before the first byte of a frame is the normal end
      // of a connection; anything else (truncated frame, oversize length
      // word) latches this connection's protocol error.
      if (read.code() != StatusCode::kNotFound) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        errors_counter_->Increment();
        PAE_LOG(WARNING) << "closing connection: " << read.ToString();
      }
      return true;
    }

    Result<Request> request = DecodeRequest(payload);
    if (!request.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      errors_counter_->Increment();
      // Best effort: name the opcode the client tried to use (the first
      // payload byte) so it can match the error to its request, then
      // drop the connection — its framing can no longer be trusted.
      const Op op = payload.empty() ? Op::kPing
                                    : static_cast<Op>(payload.front());
      const Status ignored = WriteFrame(
          fd, EncodeErrorResponse(op, request.status()),
          options_.max_frame_bytes);
      (void)ignored;
      return true;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_counter_->Increment();
    std::string response;
    const bool keep_running =
        HandleRequest(request.value(), scratch, &response);
    const Status written =
        WriteFrame(fd, response, options_.max_frame_bytes);
    if (!keep_running) return false;
    if (!written.ok()) return true;  // peer went away mid-response
  }
  return true;
}

bool Server::HandleRequest(const Request& request,
                           core::ExtractionEngine::Scratch* scratch,
                           std::string* response) {
  switch (request.op) {
    case Op::kExtract: {
      GenerationCell::Lease lease = generations_.Acquire();
      if (lease.empty()) {
        *response = EncodeErrorResponse(
            Op::kExtract,
            Status::FailedPrecondition("no model published yet"));
        return true;
      }
      util::ScopedTimer timer(request_seconds_);
      ExtractResponse extract;
      extract.generation = lease.generation();
      extract.triples = lease.engine()->Extract(
          request.extract.product_id, request.extract.html, scratch);
      *response = EncodeExtractResponse(extract);
      return true;
    }
    case Op::kPing: {
      GenerationCell::Lease lease = generations_.Acquire();
      PingResponse ping;
      ping.generation = lease.generation();
      ping.model_name = lease.empty() ? "" : lease.engine()->ModelName();
      *response = EncodePingResponse(ping);
      return true;
    }
    case Op::kStats: {
      StatsResponse stats;
      stats.generation = generations_.generation();
      stats.requests = requests_.load(std::memory_order_relaxed);
      stats.protocol_errors =
          protocol_errors_.load(std::memory_order_relaxed);
      stats.connections = connections_.load(std::memory_order_relaxed);
      stats.hot_swaps = hot_swaps_.load(std::memory_order_relaxed);
      *response = EncodeStatsResponse(stats);
      return true;
    }
    case Op::kPublish: {
      // Timed model-load-to-ready: the latency an operator actually
      // waits for on a hot swap (the `.paez` map plus the resources).
      Result<std::shared_ptr<const core::ExtractionEngine>> engine = [&] {
        util::ScopedTimer timer(publish_load_seconds_);
        return core::LoadCrfEngine(request.publish.model_path,
                                   request.publish.resources_dir,
                                   options_.publish_engine_options);
      }();
      if (!engine.ok()) {
        *response = EncodeErrorResponse(Op::kPublish, engine.status());
        return true;
      }
      *response =
          EncodePublishResponse(Publish(std::move(engine.value())));
      return true;
    }
    case Op::kShutdown: {
      *response = EncodeShutdownResponse();
      return false;
    }
  }
  *response = EncodeErrorResponse(
      request.op, Status::Internal("unhandled opcode"));
  return true;
}

}  // namespace pae::serve
