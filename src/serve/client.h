#ifndef PAE_SERVE_CLIENT_H_
#define PAE_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/status.h"

namespace pae::serve {

/// Blocking single-connection client for the pae-serve protocol. One
/// Client == one socket; it is not thread-safe (a load driver gives
/// each thread its own). Any transport or protocol error poisons the
/// connection — subsequent calls keep failing — matching the server's
/// own per-connection latching.
class Client {
 public:
  static Result<Client> ConnectUnixSocket(const std::string& path);
  static Result<Client> ConnectTcpSocket(const std::string& host, int port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Result<ExtractResponse> Extract(std::string_view product_id,
                                  std::string_view html);
  Result<PingResponse> Ping();
  Result<StatsResponse> Stats();
  /// Asks the server to load + publish a model; returns the new
  /// generation.
  Result<uint64_t> Publish(const std::string& model_path,
                           const std::string& resources_dir);
  /// Asks the daemon to stop; Ok once the server acknowledged.
  Status Shutdown();

  /// One raw round trip: sends `payload` as a frame, reads one response
  /// frame. The adversarial protocol tests use this (and the socket
  /// helpers directly) to send bytes no well-formed client would.
  Result<std::string> RoundTrip(const std::string& payload);

  const Fd& fd() const { return fd_; }

 private:
  explicit Client(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
};

}  // namespace pae::serve

#endif  // PAE_SERVE_CLIENT_H_
