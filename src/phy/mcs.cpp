#include "phy/mcs.h"

#include <stdexcept>

namespace libra::phy {

McsTable::McsTable() {
  // X60-like ladder: 300 Mbps .. 4.75 Gbps over 9 steps. Thresholds follow
  // the usual ~2-2.5 dB per modulation/coding step at a 2 GHz symbol rate.
  entries_ = {
      {0, "BPSK", 0.50, 300.0, 3.0, 180},
      {1, "BPSK", 0.63, 385.0, 4.5, 225},
      {2, "QPSK", 0.50, 770.0, 7.0, 360},
      {3, "QPSK", 0.75, 1155.0, 9.5, 540},
      {4, "QPSK", 1.00, 1540.0, 12.0, 720},
      {5, "16QAM", 0.63, 1925.0, 14.5, 810},
      {6, "16QAM", 0.75, 2310.0, 17.0, 900},
      {7, "16QAM", 1.00, 3080.0, 20.5, 1000},
      {8, "64QAM", 0.80, 4750.0, 24.5, 1080},
  };
}

const McsEntry& McsTable::entry(McsIndex i) const {
  if (i < 0 || i >= size()) throw std::out_of_range("MCS index");
  return entries_[static_cast<std::size_t>(i)];
}

McsIndex McsTable::highest_supported(double snr_db) const {
  McsIndex best = -1;
  for (const McsEntry& e : entries_) {
    if (snr_db >= e.snr_threshold_db) best = e.index;
  }
  return best;
}

}  // namespace libra::phy
