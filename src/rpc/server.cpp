#include "rpc/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ml/model_io.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace libra::rpc {

namespace {

constexpr int kListenBacklog = 16;

// Daemon-side serving telemetry: request/byte counters, batch shapes, and
// per-request handle latency -- the /metrics view of `libra serve`.
struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& requests;
  obs::Counter& rows;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Counter& model_pushes;
  obs::Counter& rejected_models;
  obs::Counter& wire_errors;
  obs::Counter& stats_pulls;
  obs::Histogram& batch_rows;
  obs::Histogram& handle_us;
  obs::Histogram& classify_us;
  obs::Histogram& swap_us;
  obs::Gauge& model_generation;
};
ServerMetrics& server_metrics() {
  obs::Registry& r = obs::Registry::global();
  static ServerMetrics m{r.counter("rpc.server.connections"),
                         r.counter("rpc.server.requests"),
                         r.counter("rpc.server.rows"),
                         r.counter("rpc.server.bytes_rx"),
                         r.counter("rpc.server.bytes_tx"),
                         r.counter("rpc.server.model_pushes"),
                         r.counter("rpc.server.rejected_models"),
                         r.counter("rpc.server.wire_errors"),
                         r.counter("rpc.server.stats_pulls"),
                         r.histogram("rpc.server.batch_rows"),
                         r.histogram("rpc.server.handle_us"),
                         r.histogram("rpc.server.classify_us"),
                         r.histogram("rpc.server.swap_us"),
                         r.gauge("rpc.server.model_generation")};
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

}  // namespace

DecisionServer::DecisionServer(ServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.unix_socket.empty() && (cfg_.port < 0 || cfg_.port > 65535)) {
    throw std::invalid_argument("DecisionServer: port must be in [0, 65535]");
  }
  if (!cfg_.unix_socket.empty() &&
      cfg_.unix_socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::invalid_argument("DecisionServer: unix socket path longer than " +
                                std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) +
                                " bytes: " + cfg_.unix_socket);
  }
  if (cfg_.num_workers < 0) {
    throw std::invalid_argument(
        "DecisionServer: num_workers must be >= 0, got " +
        std::to_string(cfg_.num_workers));
  }
}

DecisionServer::~DecisionServer() { stop(); }

std::string DecisionServer::address() const {
  if (!cfg_.unix_socket.empty()) return "unix:" + cfg_.unix_socket;
  return cfg_.host + ":" + std::to_string(resolved_port_);
}

void DecisionServer::set_forest(const ml::RandomForest& forest) {
  auto model = std::make_shared<ServingModel>();
  // Compile a private snapshot: the server must not share mutable state
  // with the caller's forest (which may refit concurrently).
  model->compiled = ml::CompiledForest(forest);
  model->num_features = forest.feature_importances().size();
  model->num_trees = static_cast<std::uint32_t>(model->compiled.num_trees());
  model->num_classes = model->compiled.num_classes();
  install_model(std::move(model));
}

void DecisionServer::install_model(std::shared_ptr<const ServingModel> model) {
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(model);
  const std::uint64_t generation =
      model_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  server_metrics().model_generation.set(static_cast<double>(generation));
}

std::shared_ptr<const DecisionServer::ServingModel> DecisionServer::model()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

void DecisionServer::start() {
  if (running()) throw std::logic_error("DecisionServer: already running");
  stopping_.store(false, std::memory_order_release);

  if (!cfg_.unix_socket.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("DecisionServer: socket(): ") +
                               std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg_.unix_socket.c_str());  // stale file from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("DecisionServer: bind(" + cfg_.unix_socket +
                               "): " + err);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("DecisionServer: socket(): ") +
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
      throw std::runtime_error("DecisionServer: bad host address " +
                               cfg_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("DecisionServer: bind(" + cfg_.host + ":" +
                               std::to_string(cfg_.port) + "): " + err);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      resolved_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("DecisionServer: listen(): " + err);
  }

  const int resolved = util::ThreadPool::resolve(cfg_.num_workers);
  workers_ = std::make_unique<util::ThreadPool>(std::max(resolved, 2));
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void DecisionServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Kick every live connection out of its blocking read so the handler
  // tasks can drain; the pool destructor joins them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  workers_.reset();  // drains + joins handlers; they close their own fds
  if (!cfg_.unix_socket.empty()) ::unlink(cfg_.unix_socket.c_str());
}

void DecisionServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop() or fatal error
    }
    server_metrics().connections.inc();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(fd);
    }
    workers_->submit([this, fd] { serve_connection(fd); });
  }
}

void DecisionServer::serve_connection(int fd) {
  ServerMetrics& metrics = server_metrics();
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[16384];
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    metrics.bytes_rx.inc(static_cast<std::uint64_t>(n));
    buf.insert(buf.end(), chunk, chunk + n);
    // Drain every complete frame in the buffer.
    for (;;) {
      std::size_t consumed = 0;
      std::optional<Frame> frame;
      try {
        frame = decode_frame(buf, consumed);
      } catch (const WireError& e) {
        // A corrupted stream cannot be resynchronized: report and drop the
        // connection (the client reconnects with a clean one).
        metrics.wire_errors.inc();
        AckMsg nack;
        nack.ok = false;
        nack.message = e.what();
        const std::vector<std::uint8_t> reply =
            encode_frame(MsgType::kAck, nack.encode());
        if (send_all(fd, reply)) {
          metrics.bytes_tx.inc(reply.size());
        }
        alive = false;
        break;
      }
      if (!frame.has_value()) break;  // partial frame, read more
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      const Frame reply = handle(*frame);
      const std::vector<std::uint8_t> bytes =
          encode_frame(reply.type, reply.payload);
      if (!send_all(fd, bytes)) {
        alive = false;
        break;
      }
      metrics.bytes_tx.inc(bytes.size());
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == fd) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

Frame DecisionServer::handle(const Frame& request) {
  ServerMetrics& metrics = server_metrics();
  OBS_SPAN("rpc.server.handle", &metrics.handle_us);
  metrics.requests.inc();
  try {
    switch (request.type) {
      case MsgType::kHello: {
        // Validate the client's hello, answer with the serving shape.
        (void)HelloMsg::decode(request.payload);
        HelloMsg reply;
        reply.version = kVersion;
        const std::shared_ptr<const ServingModel> m = model();
        reply.model_loaded = m != nullptr;
        if (m != nullptr) {
          reply.num_classes = m->num_classes;
          reply.num_trees = m->num_trees;
        }
        return {MsgType::kHello, reply.encode()};
      }
      case MsgType::kClassifyRequest:
        return handle_classify(request);
      case MsgType::kModelPush:
        return handle_model_push(request);
      case MsgType::kStatsPush: {
        // A stats solicitation: validate it, answer with this process's
        // cumulative registry snapshot under kStatsOrigin.
        const StatsMsg push = StatsMsg::decode(request.payload);
        metrics.stats_pulls.inc();
        StatsMsg reply;
        reply.request_id = push.request_id;
        reply.origin = kStatsOrigin;
        reply.snapshot = obs::Registry::global().snapshot();
        return {MsgType::kStatsAck, reply.encode()};
      }
      default: {
        AckMsg nack;
        nack.ok = false;
        nack.message = "unexpected message type " +
                       std::string(to_string(request.type));
        return {MsgType::kAck, nack.encode()};
      }
    }
  } catch (const std::exception& e) {
    // WireError from a message decoder, invalid_argument from model
    // validation: the peer sent something unusable, tell it so.
    metrics.wire_errors.inc();
    AckMsg nack;
    nack.ok = false;
    nack.message = e.what();
    return {MsgType::kAck, nack.encode()};
  }
}

Frame DecisionServer::handle_classify(const Frame& request) {
  ServerMetrics& metrics = server_metrics();
  const ClassifyRequestMsg msg = ClassifyRequestMsg::decode(request.payload);
  // Adopt the caller's trace context for the rest of this batch: the
  // classify span (and everything under it, e.g. forest batch spans)
  // parents under the controller-side decide span in a merged export.
  obs::TraceContextScope trace_scope({msg.trace_id, msg.parent_span_id});
  OBS_SPAN("rpc.server.classify", &metrics.classify_us);
  // Pin the serving model ONCE for the whole batch: a concurrent ModelPush
  // swaps the shared_ptr but can never change which forest these rows ride.
  const std::shared_ptr<const ServingModel> m = model();
  if (m == nullptr) {
    AckMsg nack;
    nack.ok = false;
    nack.message = "no model loaded (push one or start with a forest)";
    return {MsgType::kAck, nack.encode()};
  }
  if (msg.row_dim != m->num_features) {
    AckMsg nack;
    nack.ok = false;
    nack.message = "row_dim " + std::to_string(msg.row_dim) +
                   " does not match the serving model's " +
                   std::to_string(m->num_features) + " features";
    return {MsgType::kAck, nack.encode()};
  }
  const ml::DataSet rows = msg.to_dataset();
  metrics.rows.inc(rows.size());
  metrics.batch_rows.observe(static_cast<double>(rows.size()));
  const std::vector<std::vector<double>> votes =
      m->compiled.vote_fractions_batch(rows, nullptr);
  VerdictReplyMsg reply = VerdictReplyMsg::from_votes(msg.request_id, votes);
  // An empty batch still answers with the model's class count so the
  // client can sanity-check the reply shape.
  reply.num_classes = votes.empty()
                          ? static_cast<std::uint32_t>(m->num_classes)
                          : reply.num_classes;
  return {MsgType::kVerdictReply, reply.encode()};
}

Frame DecisionServer::handle_model_push(const Frame& request) {
  ServerMetrics& metrics = server_metrics();
  const ModelPushMsg msg = ModelPushMsg::decode(request.payload);
  AckMsg ack;
  ack.request_id = msg.request_id;
  try {
    // Untrusted input: load_forest runs the full import_model validation
    // (child ranges, cycles, label/class bounds), so a tampered payload is
    // rejected here and the serving model stays untouched.
    std::istringstream in(msg.model_text);
    const obs::StopWatch swap_watch;
    const ml::RandomForest pushed = ml::load_forest(in);
    auto model = std::make_shared<ServingModel>();
    model->compiled = ml::CompiledForest(pushed);
    model->num_features = pushed.feature_importances().size();
    model->num_trees = static_cast<std::uint32_t>(model->compiled.num_trees());
    model->num_classes = model->compiled.num_classes();
    install_model(std::move(model));
    // Validate -> compile -> install: the full off-path cost of shipping a
    // pushed model, not just the pointer swap (which is ~free).
    metrics.swap_us.observe(swap_watch.elapsed_us());
    metrics.model_pushes.inc();
    ack.ok = true;
  } catch (const std::exception& e) {
    metrics.rejected_models.inc();
    ack.ok = false;
    ack.message = std::string("model rejected: ") + e.what();
  }
  return {MsgType::kAck, ack.encode()};
}

}  // namespace libra::rpc
