// Shared fixtures for the trace/core/sim tests: hand-built PairTraces and
// CaseRecords with known ground truth, so labeling and simulation can be
// checked against closed-form expectations, and a backend wrapper that
// holds a fleet run part-way until a background thread has acted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/decision_backend.h"
#include "trace/collector.h"

namespace libra::testing {

inline constexpr int kNumMcs = 9;

// A PairTrace where MCSs [0, highest_working] deliver their full rate and
// everything above delivers nothing.
inline trace::PairTrace make_trace(int highest_working,
                                   double rate_scale = 1.0) {
  const double rates[kNumMcs] = {300,  385,  770,  1155, 1540,
                                 1925, 2310, 3080, 4750};
  trace::PairTrace t;
  t.tx_beam = 0;
  t.rx_beam = 0;
  t.snr_db = 10.0 + 2.0 * highest_working;
  t.noise_dbm = -74.0;
  t.tof_ns = 20.0;
  t.pdp.assign(64, 1e-12);
  t.pdp[20] = 1e-6;
  t.csi.assign(32, 1.0);
  t.throughput_mbps.resize(kNumMcs);
  t.cdr.resize(kNumMcs);
  for (int m = 0; m < kNumMcs; ++m) {
    const bool works = m <= highest_working;
    t.cdr[(std::size_t)m] = works ? 0.95 : 0.0;
    t.throughput_mbps[(std::size_t)m] =
        works ? rates[m] * 0.92 * rate_scale : 0.0;
  }
  return t;
}

// A case where the initial state supports MCS `init`, the impaired state
// supports `after_ra` on the initial pair, `after_ba` on the new best pair,
// and `after_failover` on the MOCA-style failover pair (defaults to the
// new-best behavior). after_* = -1 means nothing works on that pair.
inline trace::CaseRecord make_record(int init, int after_ra, int after_ba,
                                     trace::Impairment imp =
                                         trace::Impairment::kDisplacement,
                                     int after_failover = -2) {
  trace::CaseRecord rec;
  rec.impairment = imp;
  rec.env_name = "synthetic";
  rec.position_id = "synthetic#0";
  rec.init_best = make_trace(init);
  rec.init_mcs = init;
  rec.new_at_init_pair = make_trace(after_ra);
  rec.new_best = make_trace(after_ba);
  rec.init_failover = make_trace(init > 0 ? init - 1 : 0);
  rec.new_at_failover =
      make_trace(after_failover == -2 ? after_ba : after_failover);
  return rec;
}

// Serves through `inner`, but while hold(batch) is true for the batch-th
// vote_batch call (0-based) it keeps re-issuing that batch to `inner` -- the
// fleet's tick stays in flight and keeps using the backend -- and then
// returns the last answer. Re-issuing is safe because a backend's votes for
// the same rows are a pure function of its model. The 30 s cap keeps a
// broken test from deadlocking the suite.
class HoldingBackend final : public core::DecisionBackend {
 public:
  HoldingBackend(core::DecisionBackend* inner,
                 std::function<bool(std::size_t batch)> hold)
      : inner_(inner), hold_(std::move(hold)) {}

  std::string_view name() const override { return inner_->name(); }
  bool local() const override { return inner_->local(); }
  bool available() override { return inner_->available(); }
  double deadline_ms() const override { return inner_->deadline_ms(); }
  std::optional<core::PeerStats> peer_stats() override {
    return inner_->peer_stats();
  }
  std::vector<std::vector<double>> vote_batch(
      const ml::DataSet& rows) override {
    const std::size_t batch = batches_.fetch_add(1);
    std::vector<std::vector<double>> votes = inner_->vote_batch(rows);
    const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (hold_(batch) && std::chrono::steady_clock::now() < cap) {
      std::this_thread::yield();
      votes = inner_->vote_batch(rows);
    }
    return votes;
  }

 private:
  core::DecisionBackend* inner_;
  std::function<bool(std::size_t)> hold_;
  std::atomic<std::size_t> batches_{0};
};

}  // namespace libra::testing
