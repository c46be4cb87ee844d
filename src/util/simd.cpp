#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace libra::util::simd {

namespace {

// Nesting depth of ScopedForceScalar guards (test-only override).
std::atomic<int> g_force_scalar_depth{0};

bool env_truthy(const char* value) {
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
         std::strcmp(value, "TRUE") == 0 || std::strcmp(value, "yes") == 0 ||
         std::strcmp(value, "on") == 0;
}

// CPU/env detection happens once; the result never changes within a
// process (the env knob is read at first use, like a flag).
struct Detection {
  bool force_scalar_env = false;
  Isa hardware = Isa::kScalar;
};

const Detection& detect() {
  static const Detection d = [] {
    Detection out;
    out.force_scalar_env = env_truthy(std::getenv("LIBRA_FORCE_SCALAR"));
#if LIBRA_SIMD_X86
    if (__builtin_cpu_supports("avx2")) out.hardware = Isa::kAvx2;
#endif
    return out;
  }();
  return d;
}

}  // namespace

Isa active_isa() {
  const Detection& d = detect();
  if (d.force_scalar_env) return Isa::kScalar;
  if (g_force_scalar_depth.load(std::memory_order_relaxed) > 0) {
    return Isa::kScalar;
  }
  return d.hardware;
}

const char* active_isa_name() {
  return active_isa() == Isa::kAvx2 ? "avx2" : "scalar";
}

bool force_scalar_env() { return detect().force_scalar_env; }

ScopedForceScalar::ScopedForceScalar() {
  g_force_scalar_depth.fetch_add(1, std::memory_order_relaxed);
}

ScopedForceScalar::~ScopedForceScalar() {
  g_force_scalar_depth.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace libra::util::simd
