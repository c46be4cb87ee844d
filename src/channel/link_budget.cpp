#include "channel/link_budget.h"

#include <algorithm>
#include <cmath>

namespace libra::channel {

namespace {

// 20·log10(carrier), computed once with the C library's log10 at run time.
// GCC folds log10 of a constant with correctly rounded arithmetic, one ulp
// above glibc's result for this carrier, and that ulp would move every path
// loss and the golden digest.
double carrier_term_db() {
  static const double term = [] {
    volatile double carrier_hz = libra::util::k60GHzFrequencyHz;
    return 20.0 * std::log10(carrier_hz);
  }();
  return term;
}

}  // namespace

double fspl_db(double distance_m) {
  const double d = std::max(distance_m, 0.1);  // near-field guard
  return 20.0 * std::log10(d) + carrier_term_db() +
         20.0 * std::log10(4.0 * M_PI / libra::util::kSpeedOfLightMps);
}

double path_loss_db(double distance_m) {
  return fspl_db(distance_m) + kOxygenDbPerM * distance_m +
         kImplementationLossDb;
}

double thermal_noise_floor_dbm() {
  return -174.0 + 10.0 * std::log10(kBandwidthHz) + kNoiseFigureDb;
}

}  // namespace libra::channel
