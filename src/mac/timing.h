// MAC timing: the protocol parameter sets used in the LiBRA evaluation
// (Sec. 8.1) and the worst-case recovery delay they imply.
#pragma once

namespace libra::mac {

// The four (BA overhead, alpha) points x two FAT values of Sec. 8.1. The
// frame aggregation time is one RA probe: 2 ms = max in 802.11ad, 10 ms = max
// in 802.11ac, also X60. The BA overheads are 0.5 ms and 5 ms (O(N)
// quasi-omni, 30-degree / 3-degree beams) and 150 ms and 250 ms (O(N^2)
// directional, 9/7-degree beams).
inline constexpr double kBaOverheadsMs[] = {0.5, 5.0, 150.0, 250.0};
inline constexpr double kFatsMs[] = {2.0, 10.0};

// Utility weight alpha of Eqn. (1): 0.7 with low BA overhead, 0.5 with high.
inline double alpha_for_ba_overhead(double ba_overhead_ms) {
  return ba_overhead_ms <= 10.0 ? 0.7 : 0.5;
}

// Worst-case link recovery delay Dmax (Sec. 5.2): RA probes all MCSs, fails,
// performs BA, then probes all MCSs again.
double worst_case_delay_ms(int num_mcs, double fat_ms, double ba_overhead_ms);

}  // namespace libra::mac
