// 2-D geometry primitives for the indoor ray tracer.
//
// Environments are modeled in plan view (the paper's rooms are traversed at a
// fixed antenna height, and the phased arrays steer only in azimuth, so a 2-D
// model captures the beam/path interaction that matters for BA-vs-RA).
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

namespace libra::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double s) const { return {x * s, y * s}; }
  double dot(Vec2 o) const { return x * o.x + y * o.y; }
  double cross(Vec2 o) const { return x * o.y - y * o.x; }
  double norm() const { return std::hypot(x, y); }
  Vec2 normalized() const {
    const double n = norm();
    return n > 0 ? Vec2{x / n, y / n} : Vec2{};
  }
  // Angle of this vector in degrees, in (-180, 180].
  double angle_deg() const { return std::atan2(y, x) * 180.0 / M_PI; }
};

inline double distance(Vec2 a, Vec2 b) { return (b - a).norm(); }

// Normalize an angle difference to (-180, 180].
double wrap_angle_deg(double deg);

struct Segment {
  Vec2 a;
  Vec2 b;

  Vec2 direction() const { return (b - a).normalized(); }
};

// Proper intersection of two segments (excluding collinear overlap).
// Returns the intersection point if the segments cross.
std::optional<Vec2> intersect(const Segment& s1, const Segment& s2);

// True if segment pq crosses segment wall strictly between its endpoints.
bool segments_cross(const Segment& s1, const Segment& s2);

// Mirror point p across the infinite line through the segment.
Vec2 mirror(Vec2 p, const Segment& line);

// Distance from point p to segment s.
double point_segment_distance(Vec2 p, const Segment& s);

// A wall with a material reflection loss (dB lost per bounce at 60 GHz).
// Typical values: drywall ~10 dB, glass/metal ~5-7 dB, brick ~13 dB.
struct Wall {
  Segment seg;
  double reflection_loss_db = 10.0;
  std::string name;
};

}  // namespace libra::geom
