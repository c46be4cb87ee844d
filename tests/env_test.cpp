#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "env/environment.h"
#include "env/registry.h"

namespace libra::env {
namespace {

Environment box() {
  return Environment("box", rectangle_walls(10, 5, 8, 8, 8, 8));
}

TEST(Environment, RectangleWallsFormClosedLoop) {
  const auto walls = rectangle_walls(10, 5, 1, 2, 3, 4);
  ASSERT_EQ(walls.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& cur = walls[i];
    const auto& next = walls[(i + 1) % 4];
    EXPECT_DOUBLE_EQ(cur.seg.b.x, next.seg.a.x);
    EXPECT_DOUBLE_EQ(cur.seg.b.y, next.seg.a.y);
  }
  EXPECT_DOUBLE_EQ(walls[0].reflection_loss_db, 1);
  EXPECT_DOUBLE_EQ(walls[2].reflection_loss_db, 3);
}

TEST(Blocker, CenteredHitFullAttenuation) {
  Environment e = box();
  e.add_blocker({{5, 2}, 0.25, 28.0});
  EXPECT_NEAR(e.blockage_loss_db({1, 2}, {9, 2}), 28.0, 1e-9);
}

TEST(Blocker, GrazingHitPartialAttenuation) {
  Environment e = box();
  e.add_blocker({{5, 2.2}, 0.25, 28.0});
  const double loss = e.blockage_loss_db({1, 2}, {9, 2});
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 28.0 * 0.3);
}

TEST(Blocker, MissedEntirely) {
  Environment e = box();
  e.add_blocker({{5, 3.5}, 0.25, 28.0});
  EXPECT_DOUBLE_EQ(e.blockage_loss_db({1, 2}, {9, 2}), 0.0);
}

TEST(Blocker, MultipleBlockersAccumulate) {
  Environment e = box();
  e.add_blocker({{3, 2}, 0.25, 10.0});
  e.add_blocker({{7, 2}, 0.25, 15.0});
  EXPECT_NEAR(e.blockage_loss_db({1, 2}, {9, 2}), 25.0, 1e-9);
}

TEST(Blocker, ClearBlockersResets) {
  Environment e = box();
  e.add_blocker({{5, 2}, 0.25, 28.0});
  e.clear_blockers();
  EXPECT_DOUBLE_EQ(e.blockage_loss_db({1, 2}, {9, 2}), 0.0);
  EXPECT_TRUE(e.blockers().empty());
}

// The blocker generation is what channel::Link's memo keys on: a new one
// on every real change, the same one while the list is re-asserted.
TEST(Blocker, GenerationChangesOnlyWithTheList) {
  Environment e = box();
  EXPECT_EQ(e.blocker_generation(), 0u);
  const Blocker a{{5, 2}, 0.25, 28.0};
  const Blocker b{{3, 2}, 0.4, 12.0};
  e.set_blockers(std::vector<Blocker>{});
  EXPECT_EQ(e.blocker_generation(), 0u);  // already empty
  e.add_blocker(a);
  const std::uint64_t g1 = e.blocker_generation();
  EXPECT_NE(g1, 0u);
  e.set_blockers(std::vector<Blocker>{a});
  EXPECT_EQ(e.blocker_generation(), g1);
  e.set_blockers(std::vector<Blocker>{a, b});
  const std::uint64_t g2 = e.blocker_generation();
  EXPECT_NE(g2, g1);
  e.set_blockers(std::vector<Blocker>{b, a});  // order counts
  EXPECT_NE(e.blocker_generation(), g2);
  Blocker nudged = b;
  nudged.attenuation_db = std::nextafter(b.attenuation_db, 0.0);
  const std::uint64_t g3 = e.blocker_generation();
  e.set_blockers(std::vector<Blocker>{nudged, a});
  EXPECT_NE(e.blocker_generation(), g3);
  ASSERT_EQ(e.blockers().size(), 2u);
  EXPECT_EQ(e.blockers()[0].attenuation_db, nudged.attenuation_db);
  const std::uint64_t g4 = e.blocker_generation();
  e.clear_blockers();
  EXPECT_NE(e.blocker_generation(), g4);
  EXPECT_TRUE(e.blockers().empty());
}

// Generations come from one process-wide counter: equal generations mean
// equal lists even across copies and assignments, so a link whose
// environment is assigned over never keeps a stale memo entry.
TEST(Blocker, GenerationsAreUniqueAcrossEnvironments) {
  Environment e1 = box();
  Environment e2 = box();
  e1.add_blocker({{5, 2}, 0.25, 28.0});
  e2.add_blocker({{6, 2}, 0.25, 28.0});
  EXPECT_NE(e1.blocker_generation(), e2.blocker_generation());
  const Environment copy = e1;
  EXPECT_EQ(copy.blocker_generation(), e1.blocker_generation());
  e1 = e2;
  EXPECT_EQ(e1.blocker_generation(), e2.blocker_generation());
  EXPECT_EQ(e1.blockers()[0].position.x, 6.0);
}

TEST(Environment, BoundingBox) {
  const Environment e = box();
  const auto bb = e.bounding_box();
  EXPECT_DOUBLE_EQ(bb.min.x, 0);
  EXPECT_DOUBLE_EQ(bb.min.y, 0);
  EXPECT_DOUBLE_EQ(bb.max.x, 10);
  EXPECT_DOUBLE_EQ(bb.max.y, 5);
}

TEST(Environment, ClampInside) {
  const Environment e = box();
  const auto p = e.clamp_inside({20, -5}, 0.5);
  EXPECT_DOUBLE_EQ(p.x, 9.5);
  EXPECT_DOUBLE_EQ(p.y, 0.5);
  const auto q = e.clamp_inside({5, 2}, 0.5);
  EXPECT_DOUBLE_EQ(q.x, 5);
  EXPECT_DOUBLE_EQ(q.y, 2);
}

TEST(Registry, TrainingEnvironmentsMatchTable1) {
  const auto envs = training_environments();
  ASSERT_EQ(envs.size(), 6u);  // lobby, lab, conference, 3 corridors
  EXPECT_EQ(envs[0].name(), "lobby");
  EXPECT_EQ(envs[1].name(), "lab");
  EXPECT_EQ(envs[2].name(), "conference_room");
}

TEST(Registry, TestingEnvironmentsMatchTable2) {
  const auto envs = testing_environments();
  ASSERT_EQ(envs.size(), 2u);
  EXPECT_EQ(envs[0].name(), "building1_corridor");
  EXPECT_EQ(envs[1].name(), "building2_open_area");
}

TEST(Registry, LobbyHasPillars) {
  const Environment lobby = make_lobby();
  EXPECT_GT(lobby.walls().size(), 4u);
}

TEST(Registry, LabCabinetsBlockCrossRoomPath) {
  const Environment lab = make_lab();
  // The cabinet row at y=6.4 blocks a straight path crossing it.
  const geom::Segment path{{5, 5}, {5, 8}};
  bool blocked = false;
  for (const geom::Wall& w : lab.walls()) {
    blocked |= geom::segments_cross(path, w.seg);
  }
  EXPECT_TRUE(blocked);
}

TEST(Registry, CorridorDimensions) {
  const Environment narrow = make_corridor(1.74);
  const auto bb = narrow.bounding_box();
  EXPECT_NEAR(bb.max.y - bb.min.y, 1.74, 1e-9);
  EXPECT_NEAR(bb.max.x - bb.min.x, 30.0, 1e-9);
}

TEST(Registry, Building1WallsAreLossier) {
  // Old construction: per-bounce loss higher than the main building's
  // drywall, which is what degrades cross-building model accuracy.
  const Environment b1 = make_building1_corridor();
  const Environment corr = make_corridor(3.2);
  EXPECT_GT(b1.walls()[0].reflection_loss_db,
            corr.walls()[0].reflection_loss_db);
}

}  // namespace
}  // namespace libra::env
