// Golden-digest refresh helper: runs the canonical faulted fleet
// (sim/golden.h) and prints the degradation digest for the default seeds,
// in exactly the form kGoldenDigest expects. One line, one command:
//
//   build/tools/fault_digest
//   -> fault digest (fleet_seed=77, fault_seed=1234): 0x1234abcd...ULL
//
// Paste the printed constant into sim/golden.h when a deliberate behavior
// change moves the canonical run.
#include <cstdio>

#include "sim/golden.h"

int main() {
  const libra::sim::FleetResult result =
      libra::sim::run_canonical_faulted_fleet(libra::sim::kGoldenFleetSeed,
                                              libra::sim::kGoldenFaultSeed);
  const std::uint64_t digest = libra::sim::degradation_digest(result);
  std::printf("fault digest (fleet_seed=%llu, fault_seed=%llu): 0x%016llxULL\n",
              static_cast<unsigned long long>(libra::sim::kGoldenFleetSeed),
              static_cast<unsigned long long>(libra::sim::kGoldenFaultSeed),
              static_cast<unsigned long long>(digest));
  if (digest == libra::sim::kGoldenDigest) {
    std::printf("matches sim/golden.h kGoldenDigest\n");
  } else {
    std::printf("DIFFERS from sim/golden.h kGoldenDigest (0x%016llxULL)\n",
                static_cast<unsigned long long>(libra::sim::kGoldenDigest));
  }
  return 0;
}
