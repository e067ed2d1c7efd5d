#ifndef PAE_SERVE_SOCKET_H_
#define PAE_SERVE_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace pae::serve {

/// Hard ceiling on one frame's payload (64 MiB). Deliberately far below
/// util/wire.h's kMaxSerialElements: a length word at or above this —
/// the corrupt/adversarial range the protocol tests sweep — is rejected
/// before any allocation happens.
inline constexpr uint32_t kMaxFrameBytes = 1u << 26;

/// Thin RAII wrapper around a socket file descriptor. Move-only; the
/// destructor closes. All IO helpers retry EINTR and never throw.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  bool valid() const { return fd_ >= 0; }
  int get() const { return fd_; }
  /// Releases ownership without closing.
  int Release();
  void Close();
  /// shutdown(2) both directions — unblocks a peer (or our own thread)
  /// parked in read() without racing the close.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// A bound, listening server socket: a unix-domain socket when `path`
/// is used, loopback TCP when `port` is used (0 picks an ephemeral
/// port; the resolved one is returned through *resolved_port).
Result<Fd> ListenUnix(const std::string& path, int backlog = 64);
Result<Fd> ListenTcp(int port, int* resolved_port, int backlog = 64);

/// Blocking accept with a poll timeout so accept loops can observe a
/// stop flag: returns an invalid Fd (not an error) when the timeout
/// expires with no pending connection.
Result<Fd> AcceptWithTimeout(const Fd& listener, int timeout_ms);

/// Client-side connect.
Result<Fd> ConnectUnix(const std::string& path);
Result<Fd> ConnectTcp(const std::string& host, int port);

/// Reads exactly `size` bytes. kNotFound signals clean EOF before the
/// first byte (peer closed between frames); kOutOfRange signals EOF
/// mid-buffer (truncated frame); kInternal is an errno failure.
Status ReadFull(const Fd& fd, void* data, size_t size);
/// Writes exactly `size` bytes (SIGPIPE is suppressed per call).
Status WriteFull(const Fd& fd, const void* data, size_t size);

/// Frame IO: a u32 little-endian payload length followed by the
/// payload. ReadFrame mirrors WireReader's corrupt-length discipline:
/// a length word above `max_bytes` fails with OutOfRange before any
/// allocation, EOF between frames is kNotFound, EOF inside a frame is
/// kOutOfRange.
Status ReadFrame(const Fd& fd, std::string* payload,
                 uint32_t max_bytes = kMaxFrameBytes);
Status WriteFrame(const Fd& fd, const std::string& payload,
                  uint32_t max_bytes = kMaxFrameBytes);

}  // namespace pae::serve

#endif  // PAE_SERVE_SOCKET_H_
