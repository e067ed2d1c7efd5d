#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.h"

namespace pae::serve {

namespace {

Status ErrnoStatus(const std::string& what) {
  // ErrnoString, not std::strerror: worker threads report socket
  // errors concurrently, and strerror's static buffer is a data race.
  return Status::Internal(what + ": " + ErrnoString(errno));
}

/// Request/response framing writes small frames and waits for the
/// answer, which Nagle's algorithm would hold back until the peer's
/// delayed ACK (~40 ms on Linux). Unix sockets have no such timer.
void SetNoDelay(const Fd& fd) {
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Fd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket file from a crashed daemon
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen(" + path + ")");
  }
  return fd;
}

Result<Fd> ListenTcp(int port, int* resolved_port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_INET)");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  SetNoDelay(fd);  // accepted sockets inherit it

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind(tcp:" + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen(tcp:" + std::to_string(port) + ")");
  }
  if (resolved_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoStatus("getsockname");
    }
    *resolved_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<Fd> AcceptWithTimeout(const Fd& listener, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = listener.get();
  pfd.events = POLLIN;
  int ready = 0;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return ErrnoStatus("poll(accept)");
  if (ready == 0) return Fd();  // timeout: no pending connection
  int fd = 0;
  do {
    fd = ::accept(listener.get(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return ErrnoStatus("accept");
  return Fd(fd);
}

Result<Fd> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return ErrnoStatus("connect(" + path + ")");
  }
  return fd;
}

Result<Fd> ConnectTcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_INET)");
  SetNoDelay(fd);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return ErrnoStatus("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return fd;
}

Status ReadFull(const Fd& fd, void* data, size_t size) {
  char* out = static_cast<char*>(data);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd.get(), out + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read");
    }
    if (n == 0) {
      if (done == 0) return Status::NotFound("connection closed");
      return Status::OutOfRange("connection closed mid-read after " +
                                std::to_string(done) + " of " +
                                std::to_string(size) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteFull(const Fd& fd, const void* data, size_t size) {
  const char* in = static_cast<const char*>(data);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::send(fd.get(), in + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadFrame(const Fd& fd, std::string* payload, uint32_t max_bytes) {
  uint32_t length = 0;
  PAE_RETURN_IF_ERROR(ReadFull(fd, &length, sizeof(length)));
  if (length > max_bytes) {
    return Status::OutOfRange("frame length " + std::to_string(length) +
                              " exceeds limit " +
                              std::to_string(max_bytes));
  }
  payload->resize(length);
  if (length == 0) return Status::Ok();
  return ReadFull(fd, payload->data(), length);
}

Status WriteFrame(const Fd& fd, const std::string& payload,
                  uint32_t max_bytes) {
  if (payload.size() > max_bytes) {
    return Status::OutOfRange("refusing to send a frame of " +
                              std::to_string(payload.size()) + " bytes");
  }
  // Length word and payload leave in one sendmsg, so the frame goes out
  // as one segment instead of two; a short send finishes in WriteFull.
  uint32_t length = static_cast<uint32_t>(payload.size());
  iovec iov[2] = {{&length, sizeof(length)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  ssize_t n = 0;
  do {
    n = ::sendmsg(fd.get(), &msg, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return ErrnoStatus("write");
  size_t sent = static_cast<size_t>(n);
  if (sent < sizeof(length)) {
    PAE_RETURN_IF_ERROR(WriteFull(fd, reinterpret_cast<char*>(&length) + sent,
                                  sizeof(length) - sent));
    sent = sizeof(length);
  }
  sent -= sizeof(length);
  return WriteFull(fd, payload.data() + sent, payload.size() - sent);
}

}  // namespace pae::serve
