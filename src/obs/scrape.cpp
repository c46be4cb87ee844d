#include "obs/scrape.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/aggregate.h"
#include "obs/metrics.h"

namespace libra::obs {

namespace {

struct ScrapeMetrics {
  Counter& requests = Registry::global().counter("obs.scrape.requests");
  Counter& bad_requests =
      Registry::global().counter("obs.scrape.bad_requests");
};
ScrapeMetrics& scrape_metrics() {
  static ScrapeMetrics m;
  return m;
}

constexpr int kListenBacklog = 16;
// Per-connection recv/send deadline: a camped client cannot hold the
// accept thread longer than this.
constexpr int kIoTimeoutMs = 2000;

void set_io_deadline(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string http_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

ScrapeServer::ScrapeServer(const Aggregator& agg, ScrapeConfig cfg)
    : agg_(agg), cfg_(std::move(cfg)) {
  if (cfg_.port < 0 || cfg_.port > 65535) {
    throw std::invalid_argument("ScrapeServer: port must be in [0, 65535]");
  }
}

ScrapeServer::~ScrapeServer() { stop(); }

std::string ScrapeServer::address() const {
  return cfg_.host + ":" + std::to_string(resolved_port_);
}

void ScrapeServer::start() {
  if (running()) throw std::logic_error("ScrapeServer: already running");
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("ScrapeServer: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ScrapeServer: bad host address " + cfg_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ScrapeServer: bind(" + cfg_.host + ":" +
                             std::to_string(cfg_.port) + "): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    resolved_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ScrapeServer: listen(): " + err);
  }

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ScrapeServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
}

void ScrapeServer::accept_loop() {
  // Scrapes are rare (one per roll-up period per collector) and responses
  // are small, so connections are served inline on the accept thread; the
  // per-fd deadline bounds how long a camped client can hold it.
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop() or fatal error
    }
    set_io_deadline(fd, kIoTimeoutMs);
    serve_connection(fd);
    ::close(fd);
  }
}

void ScrapeServer::serve_connection(int fd) {
  ScrapeMetrics& metrics = scrape_metrics();
  std::string head;
  char chunk[2048];
  // Read until the end of the request head; everything past it (a body on
  // a GET) is ignored.
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find('\n') == std::string::npos) {
    if (head.size() > kMaxRequestBytes) {
      metrics.bad_requests.inc();
      send_all(fd, http_response(431, "Request Header Fields Too Large",
                                 "text/plain", "request too large\n"));
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      metrics.bad_requests.inc();
      return;  // peer vanished or deadline hit
    }
    head.append(chunk, static_cast<std::size_t>(n));
  }

  // Parse the request line: METHOD SP PATH SP VERSION.
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string line = head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    metrics.bad_requests.inc();
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    metrics.bad_requests.inc();
    send_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                               "only GET is served here\n"));
    return;
  }

  if (path == "/metrics") {
    metrics.requests.inc();
    send_all(fd, http_response(200, "OK", "text/plain; version=0.0.4",
                               agg_.prometheus_text()));
  } else if (path == "/healthz") {
    metrics.requests.inc();
    send_all(fd, http_response(200, "OK", "text/plain", "ok\n"));
  } else if (path == "/series.json") {
    metrics.requests.inc();
    send_all(fd, http_response(200, "OK", "application/json",
                               agg_.series_json()));
  } else {
    metrics.bad_requests.inc();
    send_all(fd, http_response(404, "Not Found", "text/plain",
                               "unknown path\n"));
  }
}

std::optional<HttpResponse> http_get(const std::string& host, int port,
                                     const std::string& path,
                                     int timeout_ms) {
  if (port <= 0 || port > 65535) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  set_io_deadline(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  if (!send_all(fd, req)) {
    ::close(fd);
    return std::nullopt;
  }
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF (HTTP/1.0 close-delimited) or deadline
    raw.append(chunk, static_cast<std::size_t>(n));
    if (raw.size() > (64u << 20)) break;  // runaway peer
  }
  ::close(fd);

  // "HTTP/1.x NNN ...\r\n...\r\n\r\n<body>"
  if (raw.compare(0, 5, "HTTP/") != 0) return std::nullopt;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return std::nullopt;
  HttpResponse resp;
  resp.status = std::atoi(raw.c_str() + sp + 1);
  if (resp.status < 100 || resp.status > 599) return std::nullopt;
  const std::size_t body_at = raw.find("\r\n\r\n");
  if (body_at == std::string::npos) return std::nullopt;
  resp.body = raw.substr(body_at + 4);
  return resp;
}

}  // namespace libra::obs
