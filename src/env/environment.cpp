#include "env/environment.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace libra::env {

Environment::Environment(std::string name, std::vector<geom::Wall> walls)
    : name_(std::move(name)), walls_(std::move(walls)) {}

namespace {
std::uint64_t next_blocker_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Bitwise, not ==: a blocker at -0.0 is not assumed to attenuate like one
// at +0.0, and a NaN field always counts as a change.
bool same_bits(const Blocker& a, const Blocker& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.position.x) == bits(b.position.x) &&
         bits(a.position.y) == bits(b.position.y) &&
         bits(a.radius_m) == bits(b.radius_m) &&
         bits(a.attenuation_db) == bits(b.attenuation_db);
}
}  // namespace

void Environment::add_blocker(const Blocker& b) {
  blockers_.push_back(b);
  blocker_generation_ = next_blocker_generation();
}

void Environment::clear_blockers() {
  blockers_.clear();
  blocker_generation_ = next_blocker_generation();
}

void Environment::set_blockers(std::span<const Blocker> blockers) {
  if (std::equal(blockers.begin(), blockers.end(), blockers_.begin(),
                 blockers_.end(), same_bits)) {
    return;
  }
  blockers_.assign(blockers.begin(), blockers.end());
  blocker_generation_ = next_blocker_generation();
}

double Environment::blockage_loss_db(geom::Vec2 a, geom::Vec2 b) const {
  double loss = 0.0;
  const geom::Segment ray{a, b};
  for (const Blocker& blk : blockers_) {
    const double d = geom::point_segment_distance(blk.position, ray);
    if (d >= blk.radius_m) continue;
    // Linear taper from full attenuation at the disc center to 0 at the rim
    // approximates partial (grazing) occlusion; the paper observes SNR drops
    // spanning 1-15 dB under "blockage" because the LOS was often only
    // partially blocked (Sec. 6.1.2).
    const double frac = 1.0 - d / blk.radius_m;
    loss += blk.attenuation_db * frac;
  }
  return loss;
}

Environment::BoundingBox Environment::bounding_box() const {
  BoundingBox box{{1e18, 1e18}, {-1e18, -1e18}};
  for (const geom::Wall& w : walls_) {
    for (geom::Vec2 p : {w.seg.a, w.seg.b}) {
      box.min.x = std::min(box.min.x, p.x);
      box.min.y = std::min(box.min.y, p.y);
      box.max.x = std::max(box.max.x, p.x);
      box.max.y = std::max(box.max.y, p.y);
    }
  }
  return box;
}

geom::Vec2 Environment::clamp_inside(geom::Vec2 p, double margin_m) const {
  const BoundingBox box = bounding_box();
  return {std::clamp(p.x, box.min.x + margin_m, box.max.x - margin_m),
          std::clamp(p.y, box.min.y + margin_m, box.max.y - margin_m)};
}

}  // namespace libra::env
