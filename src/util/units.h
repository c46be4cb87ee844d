// Small strongly-typed helpers for the physical units used throughout the
// library: decibels, milliwatts, seconds/milliseconds, bits and bytes.
//
// The simulation mixes link-budget math (dB domain) with throughput
// accounting (linear domain); keeping the conversions in one place avoids
// the classic factor-of-10 bugs.
#pragma once

#include <cmath>
#include <limits>

namespace libra::util {

inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }
inline double linear_to_db(double linear) { return 10.0 * std::log10(linear); }

inline double dbm_to_mw(double dbm) { return db_to_linear(dbm); }
inline double mw_to_dbm(double mw) { return linear_to_db(mw); }

// An upper bound on dbm_to_mw(dbm) that runs exp2f instead of pow, for
// sums that only have to bound (channel::Link::SweepTable). With
// t = dbm * log2(10) / 10 the term is 2^t, and for -126 <= t < 127:
//  - t itself is off by at most ~3e-14 (two double roundings);
//  - rounding t to float moves it by at most 127 * 2^-24 = 7.6e-6, a
//    relative error of at most 2^7.6e-6 - 1 = 5.3e-6 in 2^t;
//  - exp2f is within 1 ulp, 2^-23 = 1.2e-7 relative;
// so the factor 1 + 1e-5 covers them all, and pow's own ulp. Below that
// range (about -379 dBm) the bound is the smallest normal float, 2^-126,
// which is at least 2^t up to t's double rounding (~2e-14 relative). Above
// it (about +382 dBm), or for a NaN, the bound is +inf.
inline double dbm_to_mw_upper_bound(double dbm) {
  constexpr double kLog2TenOverTen = 0.33219280948873623;  // log2(10) / 10
  const double t = dbm * kLog2TenOverTen;
  if (t < -126.0) return 0x1p-126;
  if (!(t < 127.0)) return std::numeric_limits<double>::infinity();
  return static_cast<double>(std::exp2(static_cast<float>(t))) * (1.0 + 1e-5);
}

// Sum two powers expressed in dBm (linear-domain addition).
inline double dbm_add(double a_dbm, double b_dbm) {
  return mw_to_dbm(dbm_to_mw(a_dbm) + dbm_to_mw(b_dbm));
}

constexpr double kSpeedOfLightMps = 299792458.0;
constexpr double k60GHzFrequencyHz = 60.48e9;  // 802.11ad channel 2 center.

constexpr double kNsPerSecond = 1e9;

}  // namespace libra::util
