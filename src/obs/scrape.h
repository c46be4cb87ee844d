// Minimal HTTP/1.0 scrape endpoint over an obs::Aggregator.
//
// Serves exactly three routes, TCP only, one short-lived connection per
// request (Connection: close), using the same raw-socket plumbing style as
// src/rpc:
//
//   GET /metrics      -> Aggregator::prometheus_text()  (text/plain)
//   GET /healthz      -> "ok"                            (text/plain)
//   GET /series.json  -> Aggregator::series_json()       (application/json)
//
// This is a scrape port, not a web server: requests are read with a small
// deadline and a hard size cap, anything but a well-formed GET of a known
// route gets a 4xx and a closed connection (tests/obs_test.cpp drives the
// hostile cases). Responses are built outside any registry lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

namespace libra::obs {

class Aggregator;

struct ScrapeConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is port() after start()
  // Request head cap; longer request lines/headers get 431 and a close.
  std::size_t max_request_bytes = 8192;
};

class ScrapeServer {
 public:
  // `agg` must outlive the server; the server only reads from it.
  ScrapeServer(const Aggregator& agg, ScrapeConfig cfg = {});
  ~ScrapeServer();
  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Bound TCP port (resolves ephemeral binds); valid after start().
  int port() const { return resolved_port_; }
  std::string address() const;

 private:
  void accept_loop();
  void serve_connection(int fd);

  const Aggregator& agg_;
  ScrapeConfig cfg_;
  // Atomic because stop() writes -1 (after shutdown()+close()) while the
  // accept loop is still reading the fd for its next ::accept call.
  std::atomic<int> listen_fd_{-1};
  int resolved_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

// Tiny blocking HTTP/1.0 GET used by `libra top`, the tests and benches.
// Returns nullopt on connect/send/recv failure or an unparsable response.
struct HttpResponse {
  int status = 0;
  std::string body;
};
std::optional<HttpResponse> http_get(const std::string& host, int port,
                                     const std::string& path,
                                     int timeout_ms = 2000);

}  // namespace libra::obs
