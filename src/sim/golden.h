// Canonical faulted-fleet regression run (the golden-trace gate).
//
// run_canonical_faulted_fleet() builds a fixed 3-station mixed fleet (two
// LiBRA stations, one RA-first baseline) over a self-contained synthetic
// classifier, attaches faults::demo_plan(fault_seed), and runs it to
// completion with frame logs kept. Everything -- dataset, forest seed,
// station geometry, scripts -- is hard-coded here, so the run is a pure
// function of (fleet_seed, fault_seed).
//
// degradation_digest() folds the per-link frame logs into one FNV-1a 64
// value over integer-ish fields only (link index, frame index, MCS, action,
// ACK) -- deliberately excluding goodput and timestamps, whose doubles
// depend on libm rounding and would make the digest platform-sensitive.
// tests/faults_test.cpp pins the digest for the default seeds;
// tools/fault_digest prints it so a refresh is one command.
#pragma once

#include <cstdint>

#include "sim/fleet.h"

namespace libra::sim {

inline constexpr std::uint64_t kGoldenFleetSeed = 77;
inline constexpr std::uint64_t kGoldenFaultSeed = 1234;
// The pinned digest of the canonical run at the seeds above. Refresh after
// a deliberate behavior change by running `build/tools/fault_digest` and
// pasting the value it prints.
inline constexpr std::uint64_t kGoldenDigest = 0xf0f4504f268110c8ULL;

// Run the canonical faulted fleet. Deterministic for fixed seeds at any
// forest thread count (the fleet determinism contract).
FleetResult run_canonical_faulted_fleet(std::uint64_t fleet_seed,
                                        std::uint64_t fault_seed);

// FNV-1a 64 over (link idx, frame idx, mcs, action, ack) of every frame of
// every link, in order.
std::uint64_t degradation_digest(const FleetResult& result);

}  // namespace libra::sim
