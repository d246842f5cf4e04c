#ifndef BURSTQ_NO_OBS

#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

namespace burstq::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 431:
      return "Request Header Fields Too Large";
    default:
      return "Error";
  }
}

void write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing sensible to do
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

struct HttpServer::Impl {
  int listen_fd{-1};
  std::uint16_t port{0};
  int read_timeout_ms{5000};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::thread acceptor;
};

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, HttpHandler handler) {
  BURSTQ_REQUIRE(impl_ == nullptr,
                 "HttpServer routes must be registered before start()");
  routes_[std::move(path)] = std::move(handler);
}

void HttpServer::set_read_timeout_ms(int ms) {
  BURSTQ_REQUIRE(impl_ == nullptr,
                 "HttpServer read timeout must be set before start()");
  BURSTQ_REQUIRE(ms > 0, "HttpServer read timeout must be positive");
  read_timeout_ms_ = ms;
}

void HttpServer::start(std::uint16_t port) {
  BURSTQ_REQUIRE(impl_ == nullptr, "HttpServer already running");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BURSTQ_REQUIRE(fd >= 0, "telemetry: socket() failed: " +
                              std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw InvalidArgument("telemetry: cannot listen on 127.0.0.1:" +
                          std::to_string(port) + ": " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  impl_ = new Impl();
  impl_->listen_fd = fd;
  impl_->port = ntohs(addr.sin_port);
  impl_->read_timeout_ms = read_timeout_ms_;
  Impl* impl = impl_;
  const std::map<std::string, HttpHandler>* routes = &routes_;
  impl->acceptor = std::thread([impl, routes] {
    while (!impl->stop.load(std::memory_order_acquire)) {
      const int conn = ::accept(impl->listen_fd, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) continue;
        break;  // listen socket shut down by stop()
      }
      // A stalled client must not pin the single acceptor thread: cap
      // how long each recv may block before we give up on the head.
      timeval timeout{};
      timeout.tv_sec = impl->read_timeout_ms / 1000;
      timeout.tv_usec = (impl->read_timeout_ms % 1000) * 1000;
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof timeout);

      // Read the request head (we never accept bodies).
      std::string req;
      char buf[1024];
      bool timed_out = false;
      while (req.size() < kMaxRequestBytes &&
             req.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(conn, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          timed_out = true;
          break;
        }
        if (n <= 0) break;
        req.append(buf, static_cast<std::size_t>(n));
      }
      const bool head_complete =
          req.find("\r\n\r\n") != std::string::npos;

      HttpResponse resp;
      const std::size_t line_end = req.find("\r\n");
      const std::size_t sp1 = req.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? sp1 : req.find(' ', sp1 + 1);
      if (timed_out && !head_complete) {
        resp = HttpResponse{408, "text/plain; charset=utf-8",
                            "request head not received in time\n"};
      } else if (!head_complete && req.size() >= kMaxRequestBytes) {
        resp = HttpResponse{431, "text/plain; charset=utf-8",
                            "request head exceeds " +
                                std::to_string(kMaxRequestBytes) +
                                " bytes\n"};
      } else if (line_end == std::string::npos ||
                 sp1 == std::string::npos ||
                 sp2 == std::string::npos || sp2 > line_end) {
        resp = HttpResponse{400, "text/plain; charset=utf-8",
                            "malformed request\n"};
      } else if (req.substr(0, sp1) != "GET") {
        resp = HttpResponse{405, "text/plain; charset=utf-8",
                            "only GET is supported\n"};
      } else {
        std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::size_t query = path.find('?');
        if (query != std::string::npos) path.resize(query);
        const auto it = routes->find(path);
        if (it == routes->end())
          resp = HttpResponse{404, "text/plain; charset=utf-8",
                              "no such endpoint: " + path + "\n"};
        else
          resp = it->second(path);
      }

      std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                         reason_phrase(resp.status) +
                         "\r\nContent-Type: " + resp.content_type +
                         "\r\nContent-Length: " +
                         std::to_string(resp.body.size()) +
                         "\r\nConnection: close\r\n\r\n";
      write_all(conn, head);
      write_all(conn, resp.body);
      // Count before closing: a client that has read the whole response
      // must already see it in requests_served().
      impl->served.fetch_add(1, std::memory_order_relaxed);
      ::shutdown(conn, SHUT_RDWR);
      ::close(conn);
    }
  });
}

void HttpServer::stop() {
  if (impl_ == nullptr) return;
  impl_->stop.store(true, std::memory_order_release);
  // Unblocks the acceptor's ::accept; on Linux shutdown() on a listening
  // socket makes pending and future accepts fail immediately.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  ::close(impl_->listen_fd);
  delete impl_;
  impl_ = nullptr;
}

bool HttpServer::running() const { return impl_ != nullptr; }

std::uint16_t HttpServer::port() const {
  return impl_ == nullptr ? 0 : impl_->port;
}

std::uint64_t HttpServer::requests_served() const {
  return impl_ == nullptr ? 0
                          : impl_->served.load(std::memory_order_relaxed);
}

}  // namespace burstq::obs

#endif  // BURSTQ_NO_OBS
