#include <gtest/gtest.h>

#include <cmath>

#include "geom/geometry.h"

namespace libra::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_DOUBLE_EQ((a + b).x, 4);
  EXPECT_DOUBLE_EQ((a + b).y, 1);
  EXPECT_DOUBLE_EQ((a - b).x, -2);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
}

TEST(Vec2, NormAndNormalized) {
  const Vec2 v{3, 4};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.x, 0.6, 1e-12);
}

TEST(Vec2, NormalizedZeroIsZero) {
  const Vec2 z{};
  EXPECT_DOUBLE_EQ(z.normalized().x, 0.0);
  EXPECT_DOUBLE_EQ(z.normalized().y, 0.0);
}

TEST(Vec2, AngleDeg) {
  EXPECT_NEAR((Vec2{1, 0}).angle_deg(), 0.0, 1e-12);
  EXPECT_NEAR((Vec2{0, 1}).angle_deg(), 90.0, 1e-12);
  EXPECT_NEAR((Vec2{-1, 0}).angle_deg(), 180.0, 1e-12);
  EXPECT_NEAR((Vec2{0, -1}).angle_deg(), -90.0, 1e-12);
  EXPECT_NEAR((Vec2{1, 1}).angle_deg(), 45.0, 1e-12);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

class WrapAngle : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WrapAngle, WrapsIntoRange) {
  const auto [in, expected] = GetParam();
  EXPECT_NEAR(wrap_angle_deg(in), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WrapAngle,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{180.0, 180.0},
                      std::pair{-180.0, 180.0}, std::pair{190.0, -170.0},
                      std::pair{-190.0, 170.0}, std::pair{360.0, 0.0},
                      std::pair{720.0 + 30.0, 30.0},
                      std::pair{-720.0 - 30.0, -30.0}));

TEST(Segment, Direction) {
  const Segment s{{0, 0}, {0, 2}};
  EXPECT_NEAR(s.direction().y, 1.0, 1e-12);
}

TEST(Intersect, CrossingSegments) {
  const auto p = intersect({{0, 0}, {2, 2}}, {{0, 2}, {2, 0}});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-12);
  EXPECT_NEAR(p->y, 1.0, 1e-12);
}

TEST(Intersect, NonCrossing) {
  EXPECT_FALSE(intersect({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}).has_value());
}

TEST(Intersect, ParallelSegments) {
  EXPECT_FALSE(intersect({{0, 0}, {1, 1}}, {{0, 1}, {1, 2}}).has_value());
}

TEST(Intersect, TouchingAtEndpointCounts) {
  // intersect() is inclusive of endpoints (used to find reflection points).
  const auto p = intersect({{0, 0}, {1, 1}}, {{1, 1}, {2, 0}});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-9);
}

TEST(SegmentsCross, StrictInteriorOnly) {
  // Proper crossing.
  EXPECT_TRUE(segments_cross({{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}));
  // Shared endpoint does NOT count (a reflected leg leaving a wall).
  EXPECT_FALSE(segments_cross({{0, 0}, {1, 1}}, {{1, 1}, {2, 0}}));
  // One endpoint lying on the other's interior does not count either.
  EXPECT_FALSE(segments_cross({{0, 0}, {1, 0}}, {{1, 0}, {1, 1}}));
  // Disjoint.
  EXPECT_FALSE(segments_cross({{0, 0}, {1, 0}}, {{3, 3}, {4, 4}}));
}

TEST(Mirror, AcrossHorizontalLine) {
  const Segment wall{{0, 1}, {10, 1}};
  const Vec2 m = mirror({3, 4}, wall);
  EXPECT_NEAR(m.x, 3.0, 1e-12);
  EXPECT_NEAR(m.y, -2.0, 1e-12);
}

TEST(Mirror, AcrossDiagonalLine) {
  const Segment wall{{0, 0}, {1, 1}};  // y = x
  const Vec2 m = mirror({2, 0}, wall);
  EXPECT_NEAR(m.x, 0.0, 1e-12);
  EXPECT_NEAR(m.y, 2.0, 1e-12);
}

TEST(Mirror, PointOnLineIsFixed) {
  const Segment wall{{0, 0}, {5, 0}};
  const Vec2 m = mirror({2, 0}, wall);
  EXPECT_NEAR(m.x, 2.0, 1e-12);
  EXPECT_NEAR(m.y, 0.0, 1e-12);
}

TEST(Mirror, IsInvolution) {
  const Segment wall{{1, -2}, {4, 7}};
  const Vec2 p{3.3, 0.7};
  const Vec2 twice = mirror(mirror(p, wall), wall);
  EXPECT_NEAR(twice.x, p.x, 1e-12);
  EXPECT_NEAR(twice.y, p.y, 1e-12);
}

TEST(PointSegmentDistance, PerpendicularFoot) {
  EXPECT_DOUBLE_EQ(point_segment_distance({1, 1}, {{0, 0}, {2, 0}}), 1.0);
}

TEST(PointSegmentDistance, BeyondEndpointsUsesEndpoint) {
  EXPECT_DOUBLE_EQ(point_segment_distance({5, 4}, {{0, 0}, {2, 0}}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance({-3, 4}, {{0, 0}, {2, 0}}), 5.0);
}

TEST(PointSegmentDistance, DegenerateSegment) {
  EXPECT_DOUBLE_EQ(point_segment_distance({3, 4}, {{0, 0}, {0, 0}}), 5.0);
}

// Image-method identity: the unfolded path through the mirror image has the
// same total length as the reflected path.
TEST(Mirror, ImageMethodPreservesPathLength) {
  const Segment wall{{0, 5}, {10, 5}};
  const Vec2 tx{1, 1}, rx{7, 2};
  const Vec2 image = mirror(tx, wall);
  const auto hit = intersect({image, rx}, wall);
  ASSERT_TRUE(hit.has_value());
  const double reflected = distance(tx, *hit) + distance(*hit, rx);
  EXPECT_NEAR(reflected, distance(image, rx), 1e-9);
  // Specular law: the incoming and outgoing rays make equal angles with
  // the (horizontal) wall, so their direction angles have equal magnitude.
  const double in_angle = std::abs((*hit - tx).angle_deg());
  const double out_angle = std::abs((rx - *hit).angle_deg());
  EXPECT_NEAR(in_angle, out_angle, 1e-6);
}

}  // namespace
}  // namespace libra::geom
