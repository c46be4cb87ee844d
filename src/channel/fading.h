// Temporal channel fading.
//
// The ray tracer gives the deterministic geometry; real links additionally
// see slow log-normal shadowing (people moving nearby, small sway) and
// residual fast fading. This process generates a dB offset that evolves as
// an AR(1) (Gauss-Markov) sequence with a configurable coherence time --
// the standard model for shadowing dynamics. Sessions apply it through
// Link::set_fade_db.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace libra::channel {

struct FadingConfig {
  double sigma_db = 1.5;          // stationary standard deviation
  double coherence_time_ms = 200; // autocorrelation ~ exp(-dt / tau);
                                  // 0 = white (uncorrelated) fading
};

// Throws std::invalid_argument naming the first bad field: sigma_db and
// coherence_time_ms must be finite and >= 0. A NaN sigma would otherwise
// read as "fading off" (SessionDriver fades only when sigma_db > 0), and a
// NaN or negative coherence time as white fading.
inline const FadingConfig& validated(const FadingConfig& cfg) {
  const auto check = [](double v, const char* field) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw std::invalid_argument(std::string("FadingConfig: ") + field +
                                  " must be finite and >= 0, got " +
                                  std::to_string(v));
    }
  };
  check(cfg.sigma_db, "sigma_db");
  check(cfg.coherence_time_ms, "coherence_time_ms");
  return cfg;
}

class FadingProcess {
 public:
  // Throws std::invalid_argument on an invalid config (validated()).
  FadingProcess(FadingConfig cfg, std::uint64_t seed)
      : cfg_(validated(cfg)), rng_(seed) {}

  // Advance the process by dt and return the current fade offset (dB).
  double advance(double dt_ms) {
    const double rho =
        cfg_.coherence_time_ms > 0
            ? std::exp(-dt_ms / cfg_.coherence_time_ms)
            : 0.0;
    fade_db_ = rho * fade_db_ +
               std::sqrt(1.0 - rho * rho) * rng_.gaussian(0.0, cfg_.sigma_db);
    return fade_db_;
  }

  double current_db() const { return fade_db_; }
  const FadingConfig& config() const { return cfg_; }

 private:
  FadingConfig cfg_;
  util::Rng rng_;
  double fade_db_ = 0.0;
};

}  // namespace libra::channel
