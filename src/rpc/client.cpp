#include "rpc/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ml/model_io.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace libra::rpc {

namespace {

// Client-side transport telemetry; rpc.client.outages is the transport
// failure count (each one becomes a BackendOutageError upstream).
struct ClientMetrics {
  obs::Counter& requests;
  obs::Counter& rows;
  obs::Counter& retries;
  obs::Counter& reconnects;
  obs::Counter& outages;
  obs::Counter& bytes_tx;
  obs::Counter& bytes_rx;
  obs::Histogram& rtt_us;
};
ClientMetrics& client_metrics() {
  obs::Registry& r = obs::Registry::global();
  static ClientMetrics m{r.counter("rpc.client.requests"),
                         r.counter("rpc.client.rows"),
                         r.counter("rpc.client.retries"),
                         r.counter("rpc.client.reconnects"),
                         r.counter("rpc.client.outages"),
                         r.counter("rpc.client.bytes_tx"),
                         r.counter("rpc.client.bytes_rx"),
                         r.histogram("rpc.client.rtt_us")};
  return m;
}

bool send_all(int fd, std::span<const std::uint8_t> bytes) {
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

// +inf (no deadline) stays the zero timeval, which setsockopt reads as
// "block forever"; the constructor rejects NaN and non-positive values.
// A finite deadline rounds up to whole microseconds, so a tiny one is at
// least 1 us rather than the zero timeval, and clamps at kMaxDeadlineUs
// (~31 years) so a huge one cannot overflow the conversion.
timeval deadline_to_timeval(double deadline_ms) {
  constexpr double kMaxDeadlineUs = 1e15;
  timeval tv{};
  if (std::isfinite(deadline_ms)) {
    const auto total_us = static_cast<std::int64_t>(
        std::min(std::ceil(deadline_ms * 1000.0), kMaxDeadlineUs));
    tv.tv_sec = static_cast<time_t>(total_us / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(total_us % 1000000);
  }
  return tv;
}

}  // namespace

ClientConfig parse_remote_addr(const std::string& addr) {
  ClientConfig cfg;
  std::string rest = addr;
  if (rest.rfind("unix:", 0) == 0) {
    rest = rest.substr(5);
    if (rest.empty()) {
      throw std::invalid_argument("remote address: empty unix socket path");
    }
    cfg.unix_socket = rest;
    return cfg;
  }
  if (rest.find('/') != std::string::npos) {  // bare filesystem path
    cfg.unix_socket = rest;
    return cfg;
  }
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
    throw std::invalid_argument(
        "remote address '" + addr +
        "' is not unix:PATH, a /path, or HOST:PORT");
  }
  cfg.host = rest.substr(0, colon);
  const std::string port_text = rest.substr(colon + 1);
  const char* const end = port_text.data() + port_text.size();
  int port = 0;
  const auto [stop, ec] = std::from_chars(port_text.data(), end, port);
  if (ec != std::errc() || stop != end || port <= 0 || port > 65535) {
    throw std::invalid_argument("remote address '" + addr +
                                "': bad port '" + port_text + "'");
  }
  cfg.port = port;
  return cfg;
}

DecisionClient::DecisionClient(ClientConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.unix_socket.empty() && (cfg_.port <= 0 || cfg_.port > 65535)) {
    throw std::invalid_argument("DecisionClient: TCP port must be in [1, 65535]");
  }
  if (!cfg_.unix_socket.empty() &&
      cfg_.unix_socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::invalid_argument("DecisionClient: unix socket path too long: " +
                                cfg_.unix_socket);
  }
  if (!(cfg_.deadline_ms > 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "DecisionClient: deadline_ms must be > 0 (+inf for none), got " +
        std::to_string(cfg_.deadline_ms));
  }
}

DecisionClient::~DecisionClient() { close(); }

std::string DecisionClient::address() const {
  if (!cfg_.unix_socket.empty()) return "unix:" + cfg_.unix_socket;
  return cfg_.host + ":" + std::to_string(cfg_.port);
}

bool DecisionClient::connect() {
  std::lock_guard<std::mutex> lock(mu_);
  return connect_locked();
}

void DecisionClient::close() {
  std::lock_guard<std::mutex> lock(mu_);
  close_locked();
}

bool DecisionClient::connect_locked() {
  if (fd_ >= 0) return true;
  int fd = -1;
  if (!cfg_.unix_socket.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
  }
  const timeval tv = deadline_to_timeval(cfg_.deadline_ms);
  if (tv.tv_sec != 0 || tv.tv_usec != 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  fd_ = fd;
  recv_buf_.clear();
  client_metrics().reconnects.inc();
  return true;
}

void DecisionClient::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_buf_.clear();
}

std::optional<Frame> DecisionClient::round_trip_locked(
    MsgType type, std::span<const std::uint8_t> payload) {
  if (fd_ < 0 && !connect_locked()) return std::nullopt;
  ClientMetrics& metrics = client_metrics();
  OBS_SPAN("rpc.client.round_trip", &metrics.rtt_us);
  const std::vector<std::uint8_t> bytes = encode_frame(type, payload);
  if (!send_all(fd_, bytes)) {
    close_locked();
    return std::nullopt;
  }
  metrics.bytes_tx.inc(bytes.size());
  std::uint8_t chunk[16384];
  for (;;) {
    std::size_t consumed = 0;
    std::optional<Frame> frame;
    try {
      frame = decode_frame(recv_buf_, consumed);
    } catch (const WireError&) {
      // Corrupted reply stream: no way to resync, drop the connection.
      close_locked();
      return std::nullopt;
    }
    if (frame.has_value()) {
      recv_buf_.erase(recv_buf_.begin(),
                      recv_buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return frame;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {  // server closed mid-reply
      close_locked();
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK here is the SO_RCVTIMEO deadline expiring.
      close_locked();
      return std::nullopt;
    }
    metrics.bytes_rx.inc(static_cast<std::uint64_t>(n));
    recv_buf_.insert(recv_buf_.end(), chunk, chunk + n);
  }
}

std::optional<Frame> DecisionClient::request_locked(
    MsgType type, std::span<const std::uint8_t> payload) {
  client_metrics().requests.inc();
  std::optional<Frame> reply = round_trip_locked(type, payload);
  if (!reply.has_value()) {
    // One fresh-connection retry covers the common "server restarted
    // between batches" case without hiding a real outage.
    client_metrics().retries.inc();
    if (connect_locked()) reply = round_trip_locked(type, payload);
  }
  if (!reply.has_value()) client_metrics().outages.inc();
  return reply;
}

std::optional<HelloMsg> DecisionClient::hello() {
  std::lock_guard<std::mutex> lock(mu_);
  HelloMsg msg;
  const std::optional<Frame> reply =
      request_locked(MsgType::kHello, msg.encode());
  if (!reply.has_value() || reply->type != MsgType::kHello) return std::nullopt;
  try {
    return HelloMsg::decode(reply->payload);
  } catch (const WireError&) {
    return std::nullopt;
  }
}

std::optional<std::vector<std::vector<double>>> DecisionClient::classify(
    const ml::DataSet& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassifyRequestMsg msg =
      ClassifyRequestMsg::from_dataset(next_request_id_++, rows);
  // Stamp the calling thread's trace context so the daemon's handling
  // spans nest under this decide span in a merged export.
  const obs::TraceContext ctx = obs::current_trace();
  msg.trace_id = ctx.trace_id;
  msg.parent_span_id = ctx.span_id;
  const std::optional<Frame> reply =
      request_locked(MsgType::kClassifyRequest, msg.encode());
  if (!reply.has_value()) return std::nullopt;
  if (reply->type != MsgType::kVerdictReply) {
    // Ack{ok=false} (model mismatch, no model loaded) or protocol noise:
    // either way the verdicts never arrived.
    client_metrics().outages.inc();
    return std::nullopt;
  }
  VerdictReplyMsg verdicts;
  try {
    verdicts = VerdictReplyMsg::decode(reply->payload);
  } catch (const WireError&) {
    close_locked();
    client_metrics().outages.inc();
    return std::nullopt;
  }
  if (verdicts.request_id != msg.request_id ||
      verdicts.num_rows() != rows.size()) {
    close_locked();
    client_metrics().outages.inc();
    return std::nullopt;
  }
  client_metrics().rows.inc(rows.size());
  return verdicts.to_votes();
}

std::optional<StatsMsg> DecisionClient::pull_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  // StatsPush here is a solicitation: an empty snapshot under our origin,
  // answered by the server's cumulative StatsAck.
  StatsMsg msg;
  msg.request_id = next_request_id_++;
  msg.origin = "controller";
  const std::optional<Frame> reply =
      request_locked(MsgType::kStatsPush, msg.encode());
  if (!reply.has_value() || reply->type != MsgType::kStatsAck) {
    return std::nullopt;
  }
  try {
    StatsMsg stats = StatsMsg::decode(reply->payload);
    if (stats.request_id != msg.request_id) return std::nullopt;
    return stats;
  } catch (const WireError&) {
    close_locked();
    return std::nullopt;
  }
}

std::optional<AckMsg> DecisionClient::push_model(
    const ml::RandomForest& forest) {
  std::ostringstream out;
  ml::save_forest(forest, out);
  return push_model_text(out.str());
}

std::optional<AckMsg> DecisionClient::push_model_text(
    const std::string& model_text) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelPushMsg msg;
  msg.request_id = next_request_id_++;
  msg.model_text = model_text;
  const std::optional<Frame> reply =
      request_locked(MsgType::kModelPush, msg.encode());
  if (!reply.has_value() || reply->type != MsgType::kAck) return std::nullopt;
  try {
    return AckMsg::decode(reply->payload);
  } catch (const WireError&) {
    return std::nullopt;
  }
}

RemoteBackend::RemoteBackend(ClientConfig cfg) : client_(std::move(cfg)) {}

bool RemoteBackend::available() {
  // connect() is a no-op when already connected, so this is cheap on the
  // happy path and doubles as the reconnect probe after an outage.
  return client_.connect();
}

std::optional<core::PeerStats> RemoteBackend::peer_stats() {
  std::optional<StatsMsg> stats = client_.pull_stats();
  if (!stats.has_value()) return std::nullopt;
  core::PeerStats out;
  out.origin = stats->origin.empty() ? "daemon:" + client_.address()
                                     : std::move(stats->origin);
  out.snapshot = std::move(stats->snapshot);
  return out;
}

std::vector<std::vector<double>> RemoteBackend::vote_batch(
    const ml::DataSet& rows) {
  std::optional<std::vector<std::vector<double>>> votes =
      client_.classify(rows);
  if (!votes.has_value()) {
    throw core::BackendOutageError("remote backend " + client_.address() +
                                   " failed to answer a classify batch of " +
                                   std::to_string(rows.size()) + " rows");
  }
  return std::move(*votes);
}

}  // namespace libra::rpc
