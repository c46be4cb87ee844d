// A Tx-Rx 60 GHz link: environment + two phased arrays + the ray-traced
// multipath channel between them. Produces, per beam pair, the quantities
// the X60 testbed logs: received power, SNR, and per-path contributions
// (from which the PHY layer synthesizes the PDP and the ToF).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "array/phased_array.h"
#include "channel/link_budget.h"
#include "channel/path_tracer.h"
#include "env/environment.h"

namespace libra::channel {

// A hidden-terminal interferer (Sec. 4.2 "Interference"): a CSMA 60 GHz
// source at a fixed position that transmits in bursts (duty_cycle fraction
// of airtime). During a burst its power reaches the Rx through the Rx beam
// pattern and the multipath between interferer and Rx. Because the coupling
// depends on the Rx beam's gain toward the interferer, changing beams can
// sometimes mitigate it -- which is why BA still wins about a third of the
// interference cases in the paper's dataset (Table 1) -- but bursts arriving
// through the serving beam cannot be escaped, which is why RA usually wins.
struct Interferer {
  geom::Vec2 position;
  double eirp_dbm = 20.0;
  double duty_cycle = 1.0;  // fraction of airtime the interferer transmits
};

struct PathContribution {
  double rx_power_dbm;  // through the current beam pair, incl. blockage
  double delay_ns;
  double aod_deg;
  double aoa_deg;
  int bounces;
};

// One beam pair's paths as the channel memo holds them: each path's
// contribution and its received power in mW (dbm_to_mw of rx_power_dbm,
// the terms the pair's total power sums), so a PDP built from them runs no
// pow of its own.
struct PairChannel {
  std::vector<PathContribution> contributions;
  std::vector<double> rx_power_mw;  // one per contribution, same order
};

class Link {
  // The beam-independent terms of one path's received power.
  struct PathTerms {
    double path_loss_db;
    double reflection_loss_db;
    double blockage_db;  // summed over the path's legs
  };

 public:
  // Throws std::invalid_argument on a null environment or array, or on a
  // non-finite tx_power_dbm.
  Link(const env::Environment* env, array::PhasedArray* tx,
       array::PhasedArray* rx, LinkBudgetConfig cfg = {});

  // Re-run the ray tracer for the Tx-Rx paths and the interferer's paths.
  // Must be called after the Tx or Rx moves or the environment's walls
  // change; it also drops the channel memo. Rotations and blocker changes
  // need no refresh: blockage is applied per query, and the memo's key
  // holds both boresights and the environment's blocker generation.
  void refresh();

  // Per-path received power for a beam pair (blockage applied per leg),
  // in dBm and in mW. The paths are immutable and shared: repeated queries
  // of an unchanged link hand out the same object, and a deferred PHY
  // observation keeps it.
  std::shared_ptr<const PairChannel> pair_channel(array::BeamId tx_beam,
                                                  array::BeamId rx_beam) const;

  // Total received power: non-coherent sum over paths, plus the fade.
  // Returns a very low floor (-200 dBm) when no path exists.
  double rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const;

  // The per-sweep table of an exhaustive sector sweep (docs/architecture.md,
  // "Sweep kernel"). It evaluates each path's beam-independent terms and
  // both arrays' per-beam gain tables once, and serves
  //  - exact entries: rx_power_dbm(tb, rb), bit-identical to the per-pair
  //    query (the same per-path formula, left-to-right sum and
  //    total_power_dbm), without writing the channel memo;
  //  - upper bounds: tx_bound_dbm(tb) >= rx_power_dbm(tb, rb) for every
  //    Rx beam rb, and rx_bound_dbm(rb) >= rx_power_dbm(tb, rb) for every
  //    Tx beam tb. A Tx beam's bound pairs its own gain toward each path
  //    with the best gain any Rx beam has toward it (and vice versa). The
  //    linear sum adds a certified upper bound on each path's mW term
  //    (util::dbm_to_mw_upper_bound: exp2f, not pow), and is inflated by
  //    kBoundSlack, which dwarfs the <= 1 ULP error of log10 (not
  //    documented to be monotone) and the term bound's rounding at the
  //    bottom of the float range. The bound never falls below the
  //    no-signal floor.
  // The table reads the link at construction and at every exact query, so
  // it is valid only while the link, its arrays and its environment stay
  // unchanged.
  class SweepTable {
   public:
    static constexpr double kBoundSlack = 1e-9;  // relative, on the mW sum

    explicit SweepTable(const Link& link);
    double rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const;
    double tx_bound_dbm(array::BeamId tx_beam) const {
      return tx_bound_dbm_[static_cast<std::size_t>(tx_beam)];
    }
    double rx_bound_dbm(array::BeamId rx_beam) const {
      return rx_bound_dbm_[static_cast<std::size_t>(rx_beam)];
    }

   private:
    const Link* link_;
    std::size_t n_paths_;
    std::vector<PathTerms> terms_;
    // Beam-major: entry b * n_paths_ + i is beam b's gain toward path i.
    std::vector<double> tx_gain_;
    std::vector<double> rx_gain_;
    std::vector<double> tx_bound_dbm_;
    std::vector<double> rx_bound_dbm_;
  };

  // SINR over the effective noise floor seen by this Rx beam while the
  // interferer (if any) is transmitting (thermal + interferer coupling).
  // With no interferer this equals snr_clean_db.
  double snr_db(array::BeamId tx_beam, array::BeamId rx_beam) const;

  // SNR excluding the burst interferer (between bursts).
  double snr_clean_db(array::BeamId tx_beam, array::BeamId rx_beam) const;

  // Noise floor between interference bursts: the thermal floor.
  double clean_floor_dbm() const { return thermal_floor_dbm_; }
  // Effective noise floor for a given Rx beam. With kQuasiOmni this is what
  // a COTS device would report as its noise level.
  double noise_floor_dbm(array::BeamId rx_beam = array::kQuasiOmni) const;

  // Temporal fading offset (dB) applied to the received signal power on
  // every path; driven by a channel::FadingProcess during live sessions.
  // Not part of the memo: it is added to the memoized sum per query.
  void set_fade_db(double fade_db) { fade_db_ = fade_db; }
  double fade_db() const { return fade_db_; }

  // Directional hidden-terminal interferer; coupling depends on the Rx beam.
  // Re-traces the interferer's paths and drops the interference memo.
  // Throws std::invalid_argument unless duty_cycle is in [0, 1]: the SNR
  // averages the clean and jammed regimes with weights 1 - duty and duty.
  void set_interferer(std::optional<Interferer> interferer);
  const std::optional<Interferer>& interferer() const { return interferer_; }
  // Interference power (dBm) leaking into the given Rx beam; -inf-ish floor
  // when no interferer is present.
  double interference_power_dbm(array::BeamId rx_beam) const;

  const std::vector<Path>& paths() const { return paths_; }
  const env::Environment& environment() const { return *env_; }
  array::PhasedArray& tx() { return *tx_; }
  array::PhasedArray& rx() { return *rx_; }
  const array::PhasedArray& tx() const { return *tx_; }
  const array::PhasedArray& rx() const { return *rx_; }
  const LinkBudgetConfig& budget() const { return cfg_; }

 private:
  PathTerms path_terms(const Path& p) const;
  // The per-path power formula every query shares. The left-to-right order
  // is part of the bit-exactness contract: pre-summing the losses would
  // round differently.
  double path_power_dbm(const PathTerms& t, double tx_gain_dbi,
                        double rx_gain_dbi) const {
    return cfg_.tx_power_dbm + tx_gain_dbi + rx_gain_dbi - t.path_loss_db -
           t.reflection_loss_db - t.blockage_db;
  }
  // A non-coherent sum (mW) as dBm plus the fade, or the no-signal floor.
  double total_power_dbm(double total_mw) const;

  // Channel memo (docs/architecture.md, "Channel memo"): the last beam
  // pair's contributions, their mW values and the mW sum, valid while every
  // input the per-path formula reads is unchanged. Boresights are compared
  // bit for bit. Fading stays outside. The arrays' codebooks are fixed for
  // the link's life and their positions enter only through refresh().
  struct ChannelKey {
    array::BeamId tx_beam = 0;
    array::BeamId rx_beam = 0;
    std::uint64_t tx_boresight_bits = 0;
    std::uint64_t rx_boresight_bits = 0;
    std::uint64_t paths_version = 0;       // refresh() count
    std::uint64_t blocker_generation = 0;  // env::Environment's
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelEntry {
    ChannelKey key;
    std::shared_ptr<const PairChannel> paths;
    double total_mw = 0.0;  // paths->rx_power_mw summed left to right
  };
  // The memo entry for a beam pair, recomputed on a key miss. Hits and
  // misses count into channel.memo_hits and channel.memo_misses.
  const ChannelEntry& channel(array::BeamId tx_beam,
                              array::BeamId rx_beam) const;

  // Interference memo: one Rx beam's interference power, valid while the
  // Rx boresight and the interferer's paths (set_interferer(), refresh())
  // are unchanged. Blockers do not attenuate interference.
  struct InterferenceKey {
    array::BeamId rx_beam = 0;
    std::uint64_t rx_boresight_bits = 0;
    std::uint64_t interferer_version = 0;  // set_interferer()/refresh()
    bool operator==(const InterferenceKey&) const = default;
  };
  struct InterferenceEntry {
    InterferenceKey key;
    double power_dbm = 0.0;
  };

  const env::Environment* env_;  // non-owning
  array::PhasedArray* tx_;       // non-owning
  array::PhasedArray* rx_;       // non-owning
  LinkBudgetConfig cfg_;
  PathTracer tracer_;
  std::vector<Path> paths_;
  // Multipath from the interferer to the Rx: interference arrives from
  // several directions (LOS + reflections), so switching the Rx beam only
  // partially escapes it -- the reason RA remains the better choice in most
  // interference cases (Table 1).
  std::vector<Path> interferer_paths_;
  double thermal_floor_dbm_;
  double fade_db_ = 0.0;
  std::optional<Interferer> interferer_;

  // The memos mutate inside const queries, so a Link is queried by one
  // thread at a time (a fleet shard owns its links).
  std::uint64_t paths_version_ = 0;
  std::uint64_t interferer_version_ = 0;
  mutable std::optional<ChannelEntry> channel_memo_;
  mutable std::optional<InterferenceEntry> interference_memo_;
};

}  // namespace libra::channel
