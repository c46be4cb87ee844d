// 60 GHz link-budget math: free-space path loss, atmospheric (oxygen)
// absorption, thermal noise floor over the 802.11ad channel bandwidth.
#pragma once

#include "util/units.h"

namespace libra::channel {

// The carrier is util::k60GHzFrequencyHz.
inline constexpr double kBandwidthHz = 1.76e9;  // 802.11ad SC PHY occupied
inline constexpr double kNoiseFigureDb = 7.0;
inline constexpr double kOxygenDbPerM = 0.016;  // ~16 dB/km O2 at 60 GHz
inline constexpr double kImplementationLossDb = 3.0;
static_assert(kBandwidthHz > 0.0 && kOxygenDbPerM >= 0.0);

struct LinkBudgetConfig {
  double tx_power_dbm = 3.0;           // per-element PA power; with the
                                       // array gains this spans MCS 2-8
                                       // over the measured 2.5-30 m range
};

// Free-space path loss (dB) at distance d (m) on the carrier.
double fspl_db(double distance_m);

// FSPL + oxygen absorption + implementation loss.
double path_loss_db(double distance_m);

// Thermal noise floor (dBm): -174 dBm/Hz + 10log10(B) + NF.
double thermal_noise_floor_dbm();

}  // namespace libra::channel
