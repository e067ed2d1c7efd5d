#ifndef PAE_SERVE_SERVER_H_
#define PAE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/generation.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pae::serve {

struct ServerOptions {
  /// Exactly one of the two listeners must be configured: a unix-domain
  /// socket path, or a loopback TCP port (0 = ephemeral, resolved port
  /// readable via Server::tcp_port()).
  std::string unix_path;
  int tcp_port = -1;

  /// Request worker threads. Each worker owns one engine Scratch for
  /// its whole lifetime and serves one connection at a time.
  int workers = 4;

  /// Per-frame payload ceiling (corrupt length words above it close the
  /// connection before any allocation).
  uint32_t max_frame_bytes = kMaxFrameBytes;

  /// Options applied to engines loaded via the kPublish admin opcode.
  core::EngineOptions publish_engine_options;
};

/// The pae-serve daemon core: a listener + accept thread + fixed worker
/// pool serving the length-prefixed protocol (protocol.h), with all
/// extraction running against immutable ExtractionEngine snapshots
/// behind a GenerationCell.
///
/// Connection model: the accept thread enqueues accepted sockets; each
/// worker dequeues one connection and serves it request-by-request
/// until the peer hangs up or breaks the protocol. Persistent
/// connections beyond the pool size wait in the accept queue until a
/// worker frees up — clients that hold connections open (perfbench's
/// load driver, daemon_test) should not open more of them than the
/// server has workers. A malformed frame (truncated, oversize length
/// word, undecodable payload, trailing bytes) latches that connection's
/// error — counted in serve.protocol_errors — and closes it; every
/// other connection keeps being served.
///
/// Hot swap: Publish() (or the kPublish opcode) installs a new engine
/// generation; requests already in flight drain against the generation
/// their lease pinned. Stop() (or the kShutdown opcode) stops accepting,
/// shuts down queued + in-flight connections, and joins every thread.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and spawns the accept + worker threads. Serving
  /// requests before the first Publish yields FailedPrecondition
  /// responses ("no model published").
  Status Start();

  /// Idempotent; blocks until every thread has joined.
  void Stop();

  /// Non-blocking stop signal, safe to call from a worker thread (a
  /// kShutdown request uses it). The owner still calls Stop() to join.
  void RequestStop();

  /// Blocks until a stop was requested (by Stop, RequestStop or a
  /// kShutdown request). The daemon main thread parks here.
  void WaitUntilStopRequested();

  /// True from Start() until Stop() / a kShutdown request.
  bool running() const { return running_.load(std::memory_order_seq_cst); }

  /// True once a stop was requested (threads may still be draining).
  bool stop_requested() const {
    return stopping_.load(std::memory_order_seq_cst);
  }

  /// Publishes a new engine generation (also available on the wire via
  /// kPublish). Returns the new generation number.
  uint64_t Publish(std::shared_ptr<const core::ExtractionEngine> engine);

  /// The resolved TCP port (only meaningful for tcp listeners).
  int tcp_port() const { return resolved_tcp_port_; }
  uint64_t generation() const { return generations_.generation(); }

  /// Point-in-time counters (also exported as serve.* metrics).
  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t protocol_errors = 0;
    uint64_t hot_swaps = 0;
  };
  Stats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection until EOF/error/shutdown. Returns false if
  /// the server should stop (kShutdown was received).
  bool ServeConnection(Fd fd, core::ExtractionEngine::Scratch* scratch);
  /// Handles one decoded request; fills `response`. Returns false for
  /// kShutdown (after the response is filled).
  bool HandleRequest(const Request& request,
                     core::ExtractionEngine::Scratch* scratch,
                     std::string* response);

  ServerOptions options_;
  int resolved_tcp_port_ = -1;
  Fd listener_;

  GenerationCell generations_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// Accepted connections waiting for a worker.
  util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  std::deque<Fd> pending_ PAE_GUARDED_BY(queue_mutex_);

  /// Connections currently being served, so Stop() can unblock workers
  /// parked in read().
  std::vector<int> active_fds_ PAE_GUARDED_BY(queue_mutex_);

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> hot_swaps_{0};

  util::Counter* requests_counter_;
  util::Counter* errors_counter_;
  util::Counter* connections_counter_;
  util::Counter* swaps_counter_;
  util::Histogram* request_seconds_;
  /// Model-load-to-engine-ready time of kPublish hot swaps
  /// ("serve.publish.load_seconds").
  util::Histogram* publish_load_seconds_;
};

}  // namespace pae::serve

#endif  // PAE_SERVE_SERVER_H_
