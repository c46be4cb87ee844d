#include "mac/beacon_interval.h"

#include <cmath>
#include <stdexcept>

namespace libra::mac {

int sectors_for_beamwidth(double coverage_deg, double beamwidth_deg) {
  if (beamwidth_deg <= 0.0 || coverage_deg <= 0.0) {
    throw std::invalid_argument("beamwidth/coverage must be positive");
  }
  return static_cast<int>(std::ceil(coverage_deg / beamwidth_deg));
}

double full_sls_duration_ms(int tx_sectors, int rx_sectors) {
  // Initiator sweep, MBIFS, responder sweep, feedback (Sec. 2's O(N) SLS).
  const double tx_us = tx_sectors * kSswFrameUs + (tx_sectors - 1) * kSbifsUs;
  const double rx_us = rx_sectors * kSswFrameUs + (rx_sectors - 1) * kSbifsUs;
  return (tx_us + kMbifsUs + rx_us + kMbifsUs + kFeedbackUs) / 1000.0;
}

double expected_abft_intervals(int contenders) {
  if (contenders < 1) throw std::invalid_argument("contenders < 1");
  if (contenders == 1) return 1.0;
  // A station succeeds in a BI if no other contender picked its slot:
  // p = (1 - 1/slots)^(contenders-1); geometric expectation 1/p.
  const double p = std::pow(1.0 - 1.0 / kAbftSlots, contenders - 1);
  return 1.0 / p;
}

}  // namespace libra::mac
