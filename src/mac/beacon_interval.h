// 802.11ad beamforming-training timing (Sec. 8.1's BA overhead derivation).
//
// The paper's four BA-overhead operating points are not arbitrary: 0.5 ms
// and 5 ms follow from the O(N) quasi-omni sector sweep with 30-degree and
// 3-degree beams (Eqn. 2 of [24]), and 150/250 ms from the O(N^2)
// directional search with 9/7-degree beams. This module implements that
// arithmetic from first principles -- SSW frame airtime, short/medium
// inter-frame spaces, the feedback exchange, and the beacon-interval
// structure (BTI / A-BFT / DTI) inside which training happens.
#pragma once

namespace libra::mac {

// Single SSW frame airtime and the inter-frame spaces of 802.11ad.
inline constexpr double kSswFrameUs = 15.8;  // 26-byte SSW frame, control rate
inline constexpr double kSbifsUs = 1.0;      // short BF IFS between SSW frames
inline constexpr double kMbifsUs = 9.0;      // medium BF IFS between phases
inline constexpr double kFeedbackUs = 40.0;  // SSW-Feedback + SSW-ACK exchange

// Beacon-interval structure: beam training opportunities occur in the BTI
// (initiator sweep) and A-BFT (responder slots); data flows in the DTI.
inline constexpr double kBeaconIntervalMs = 102.4;  // 802.11ad default BI
inline constexpr int kAbftSlots = 8;  // responder SSW slots per BI

// Number of sectors needed to cover `coverage_deg` with `beamwidth_deg`
// beams (ceil).
int sectors_for_beamwidth(double coverage_deg, double beamwidth_deg);

// Both-sides O(N) training: initiator + responder sweeps + feedback (the
// COTS/standard path with quasi-omni reception).
double full_sls_duration_ms(int tx_sectors, int rx_sectors);

// How many beacon intervals a responder needs, in expectation, to complete
// its A-BFT training when `contenders` stations pick among the slots
// uniformly (collisions void a slot).
double expected_abft_intervals(int contenders);

}  // namespace libra::mac
