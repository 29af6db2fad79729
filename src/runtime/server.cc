#include "runtime/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/failpoint.h"

namespace gqd {

namespace {

// Socket faults are connection-local: a fired failpoint fails (and closes)
// the one connection it hit, never the server. The accept loop and every
// other connection keep running.
GQD_FAILPOINT_DEFINE(fp_server_accept, "server.accept");
GQD_FAILPOINT_DEFINE(fp_server_read, "server.read");
GQD_FAILPOINT_DEFINE(fp_server_write, "server.write");

// Bytes requested per read(). Large requests (relation texts run to
// megabytes) then take few syscalls; small ones are unaffected, since a
// read returns what has arrived.
constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

}  // namespace

Server::~Server() {
  Stop();
  Wait();
}

Status Server::Start(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    Status status =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;  // Stop() closed the listen socket under us
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // unrecoverable accept failure; shut the loop down
    }
    if (GQD_FAILPOINT_FIRED(fp_server_accept)) {
      // Simulated post-accept failure (e.g. EMFILE when duping the fd):
      // drop this connection, keep accepting.
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void Server::ServeConnection(int fd) {
  // Framing is linear in the bytes received: `buffer` holds the unconsumed
  // tail of the stream, and `scanned` marks how much of it is known to hold
  // no newline, so each byte is searched once however many reads a long
  // line spans. Lines are consumed by offset and the tail compacted once
  // per read.
  std::string buffer;
  std::size_t scanned = 0;
  std::string line;
  char chunk[kReadChunkBytes];
  bool open = true;
  // Writes one full response; false means the connection is dead (peer
  // gone, Stop() closed the fd, or an injected write fault).
  auto write_all = [fd](const std::string& data) {
    if (GQD_FAILPOINT_FIRED(fp_server_write)) {
      return false;
    }
    std::size_t written = 0;
    while (written < data.size()) {
      // MSG_NOSIGNAL: a client that vanished mid-response is this
      // connection's problem, not a process-wide SIGPIPE.
      ssize_t w = ::send(fd, data.data() + written, data.size() - written,
                         MSG_NOSIGNAL);
      if (w <= 0) {
        return false;
      }
      written += static_cast<std::size_t>(w);
    }
    return true;
  };
  while (open && !stopping_.load(std::memory_order_acquire)) {
    if (GQD_FAILPOINT_FIRED(fp_server_read)) {
      break;  // injected read fault: drop this connection only
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;  // peer closed, error, or Stop() closed the fd
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t line_start = 0;
    const char* newline;
    while (open && (newline = static_cast<const char*>(std::memchr(
                        buffer.data() + scanned, '\n',
                        buffer.size() - scanned))) != nullptr) {
      std::size_t line_end = static_cast<std::size_t>(newline - buffer.data());
      line.assign(buffer, line_start, line_end - line_start);
      line_start = scanned = line_end + 1;
      if (line.empty()) {
        continue;  // tolerate blank lines (e.g. \r\n keepalives)
      }
      bool shutdown = false;
      std::string response = handler_->HandleLine(line, &shutdown);
      response += '\n';
      if (!write_all(response)) {
        open = false;
      }
      if (shutdown) {
        // Response is flushed; take the whole server down. Stop() never
        // joins, so calling it from a connection thread cannot deadlock,
        // and running it synchronously keeps it inside this thread's
        // lifetime (Wait() joins us before the Server is destroyed).
        Stop();
        open = false;
      }
    }
    buffer.erase(0, line_start);
    scanned = buffer.size();
    if (open && buffer.size() > options_.max_line_bytes) {
      // An unterminated request line has outgrown the bound. Report the
      // limit (framing is lost, so the connection cannot be salvaged) and
      // close.
      write_all(
          "{\"ok\":false,\"error\":{\"code\":\"request_too_large\","
          "\"message\":\"request line exceeds " +
          std::to_string(options_.max_line_bytes) + "-byte limit\"}}\n");
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  // The fd itself is closed by Stop() (it owns connection_fds_) unless the
  // connection ended first; closing here would race Stop()'s close on a
  // reused descriptor, so hand ownership back instead.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (std::size_t i = 0; i < connection_fds_.size(); i++) {
    if (connection_fds_[i] == fd) {
      connection_fds_.erase(connection_fds_.begin() + i);
      ::close(fd);
      break;
    }
  }
}

void Server::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (int fd : connection_fds_) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

void Server::Wait() {
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // After the accept loop exits no new threads are created; join the rest.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (int fd : connection_fds_) {
    ::close(fd);
  }
  connection_fds_.clear();
}

}  // namespace gqd
