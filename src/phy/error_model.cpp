#include "phy/error_model.h"

#include <cmath>
#include <stdexcept>

namespace libra::phy {

ErrorModel::ErrorModel(const McsTable* table) : table_(table) {
  if (!table_) throw std::invalid_argument("null MCS table");
}

double ErrorModel::codeword_success_prob(McsIndex mcs, double snr_db) const {
  const double margin = snr_db - table_->entry(mcs).snr_threshold_db;
  // Logistic scaled so +width dB of margin ~ 90% success.
  const double k = std::log(9.0) / kWaterfallWidthDb;
  return 1.0 / (1.0 + std::exp(-k * margin));
}

double ErrorModel::expected_cdr(McsIndex mcs, double snr_db) const {
  return codeword_success_prob(mcs, snr_db);
}

double ErrorModel::expected_throughput_mbps(McsIndex mcs, double snr_db) const {
  return table_->rate_mbps(mcs) * expected_cdr(mcs, snr_db) *
         kFramingEfficiency;
}

}  // namespace libra::phy
