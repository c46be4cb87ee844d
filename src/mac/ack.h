// Block-ACK model. COTS devices trigger RA when no Block ACK arrives after
// an AMPDU (Sec. 3); LiBRA's Tx-initiated design also keys off missing ACKs
// (Sec. 7, issue 3). An ACK comes back as long as at least one MPDU of the
// aggregate decodes, so the miss probability is the probability that every
// subframe fails.
#pragma once

#include "phy/error_model.h"
#include "util/rng.h"

namespace libra::mac {

// Number of independently CRC'd subframes whose joint failure loses the
// Block ACK. An AMPDU carries tens of MPDUs; the ACK itself is sent at a
// robust control rate, so data decode dominates.
inline constexpr int kAckSubframes = 32;
static_assert(kAckSubframes >= 1);

class AckModel {
 public:
  explicit AckModel(const phy::ErrorModel* error_model);

  // P(Block ACK received) for a frame at this MCS and SNR.
  double ack_probability(phy::McsIndex mcs, double snr_db) const;

  bool ack_received(phy::McsIndex mcs, double snr_db, util::Rng& rng) const;

 private:
  const phy::ErrorModel* error_model_;  // non-owning
};

}  // namespace libra::mac
