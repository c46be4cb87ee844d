// The LiBRA inference daemon: owns compiled forests and answers batched
// classify RPCs over Unix-domain or TCP sockets (`libra serve`).
//
// Topology (ROADMAP item 2, Terragraph-style controller/minion): the fleet
// process keeps the controllers and the per-link RNG streams; this server
// is a stateless vote calculator. Feature rows arrive already jittered, so
// serving the same forest locally or through a loopback socket produces
// bit-identical verdicts (vote fractions are integer tree counts divided
// by num_trees -- exact doubles -- shipped as raw bit patterns).
//
// Concurrency: one accept thread plus connection handlers dispatched onto
// a util::ThreadPool. The serving forest lives behind a
// shared_ptr<const CompiledForest>; each ClassifyRequest pins the pointer
// once for its whole batch, and ModelPush validates (load_forest ->
// import_model discipline), compiles, then swaps the pointer under a mutex
// -- so a hot swap never mixes forests inside one batch and never blocks
// in-flight batches on the old model (they finish on the pinned pointer).
// tests/rpc_test.cpp hammers exactly this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ml/compiled_forest.h"
#include "ml/random_forest.h"
#include "rpc/wire.h"
#include "util/thread_pool.h"

namespace libra::rpc {

// Origin label on StatsAck replies -- the label the daemon's metrics
// appear under in the controller's merged scrape.
inline constexpr std::string_view kStatsOrigin = "daemon";

struct ServerConfig {
  // Non-empty: listen on this Unix-domain socket path (the file is
  // unlinked on bind and again on stop). Empty: TCP on host:port.
  std::string unix_socket;
  std::string host = "127.0.0.1";  // an IPv4 address; start() parses it
  int port = 0;  // TCP only; 0 picks an ephemeral port (see DecisionServer::port())
  // Connection-handler workers (a handler owns its connection until the
  // peer disconnects): 0 = hardware_concurrency(), clamped to a minimum of
  // 2 so one camped connection cannot starve the accept queue.
  int num_workers = 4;
};

class DecisionServer {
 public:
  // Throws std::invalid_argument on a TCP port outside [0, 65535], a Unix
  // socket path too long for sockaddr_un, or a negative num_workers.
  explicit DecisionServer(ServerConfig cfg);
  ~DecisionServer();  // stop()s if still running

  DecisionServer(const DecisionServer&) = delete;
  DecisionServer& operator=(const DecisionServer&) = delete;

  // Install the serving forest (compiles a snapshot of `forest`). May be
  // called before start() or while serving -- the swap is atomic per batch.
  // Throws std::logic_error when the forest is unfitted.
  void set_forest(const ml::RandomForest& forest);

  // Bind, listen, and spin up the accept loop. Throws std::runtime_error
  // on socket/bind/listen failure (address in use, bad path, ...).
  void start();
  // Shut the listener and every live connection down, join the handlers.
  // Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Resolved TCP port after start() (== cfg.port unless it was 0).
  int port() const { return resolved_port_; }
  // Human-readable bound address: "unix:PATH" or "HOST:PORT".
  std::string address() const;

  // Monotonic swap count: 0 until the first set_forest()/ModelPush install,
  // then +1 per installed model (rejected pushes don't advance it). The
  // trainer's swap tests read this to prove a push actually landed.
  std::uint64_t model_generation() const {
    return model_generation_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void serve_connection(int fd);
  // Dispatch one decoded frame to its reply frame. Pure request/reply --
  // all socket IO stays in serve_connection.
  Frame handle(const Frame& request);
  Frame handle_classify(const Frame& request);
  Frame handle_model_push(const Frame& request);

  // One immutable serving model: the compiled forest plus the row shape
  // requests are validated against. Swapped as a unit so a batch can never
  // see one model's arena with another's dimensions.
  struct ServingModel {
    ml::CompiledForest compiled;
    std::size_t num_features = 0;
    std::uint32_t num_trees = 0;
    int num_classes = 0;
  };
  std::shared_ptr<const ServingModel> model() const;
  void install_model(std::shared_ptr<const ServingModel> model);

  ServerConfig cfg_;
  // Atomic because stop() writes -1 (after shutdown()+close()) while the
  // accept loop is still reading the fd for its next ::accept call.
  std::atomic<int> listen_fd_{-1};
  int resolved_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::unique_ptr<util::ThreadPool> workers_;

  mutable std::mutex model_mu_;
  std::shared_ptr<const ServingModel> model_;
  std::atomic<std::uint64_t> model_generation_{0};

  // Live connection fds, tracked so stop() can shutdown() blocked readers.
  std::mutex conns_mu_;
  std::vector<int> conns_;
};

}  // namespace libra::rpc
