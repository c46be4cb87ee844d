// SNR -> codeword error model.
//
// Each X60 slot carries 92 CRC-protected codewords (Sec. 4.1); the codeword
// delivery ratio (CDR) is the per-frame fraction that pass CRC. We model the
// per-codeword success probability as a logistic function of the SNR margin
// over the MCS threshold, which matches the sharp waterfall of LDPC-coded SC
// transmission. MAC throughput is PHY rate x CDR x framing efficiency.
#pragma once

#include "phy/mcs.h"

namespace libra::phy {

// Logistic steepness: dB of margin to go from 50% to ~90% success.
inline constexpr double kWaterfallWidthDb = 0.9;
static_assert(kWaterfallWidthDb > 0.0);
// Fraction of a slot usable for MAC payload (preamble/header/GI overhead).
inline constexpr double kFramingEfficiency = 0.92;

class ErrorModel {
 public:
  explicit ErrorModel(const McsTable* table);

  // P(codeword passes CRC) at the given SNR and MCS.
  double codeword_success_prob(McsIndex mcs, double snr_db) const;

  // Expected CDR (equals the success probability; a frame carries 9200
  // codewords so the empirical CDR concentrates tightly around it).
  double expected_cdr(McsIndex mcs, double snr_db) const;

  // Expected MAC-layer throughput (Mbps) at the given SNR and MCS.
  double expected_throughput_mbps(McsIndex mcs, double snr_db) const;

  const McsTable& table() const { return *table_; }

 private:
  const McsTable* table_;  // non-owning
};

}  // namespace libra::phy
