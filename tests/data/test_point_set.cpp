#include "data/point_set.hpp"

#include <gtest/gtest.h>

namespace eth {
namespace {

PointSet make_points() {
  PointSet ps(3);
  ps.set_position(0, {0, 0, 0});
  ps.set_position(1, {1, 2, 3});
  ps.set_position(2, {-1, -2, -3});
  Field id("id", 3, 1);
  id.set(0, 10);
  id.set(1, 11);
  id.set(2, 12);
  ps.point_fields().add(std::move(id));
  return ps;
}

TEST(PointSet, KindCountBounds) {
  const PointSet ps = make_points();
  EXPECT_EQ(ps.kind(), DataSetKind::kPointSet);
  EXPECT_EQ(ps.num_points(), 3);
  const AABB box = ps.bounds();
  EXPECT_EQ(box.lo, (Vec3f{-1, -2, -3}));
  EXPECT_EQ(box.hi, (Vec3f{1, 2, 3}));
}

TEST(PointSet, EmptyBounds) {
  const PointSet ps;
  EXPECT_TRUE(ps.bounds().is_empty());
  EXPECT_EQ(ps.num_points(), 0);
}

TEST(PointSet, ResizeKeepsFieldsInSync) {
  PointSet ps = make_points();
  ps.resize(5);
  EXPECT_EQ(ps.num_points(), 5);
  EXPECT_EQ(ps.point_fields().get("id").tuples(), 5);
  EXPECT_EQ(ps.point_fields().get("id").get(1), 11);
  EXPECT_THROW(ps.resize(-1), Error);
}

TEST(PointSet, SubsetCarriesFields) {
  const PointSet ps = make_points();
  const std::vector<Index> keep{2, 0};
  const PointSet sub = ps.subset(keep);
  EXPECT_EQ(sub.num_points(), 2);
  EXPECT_EQ(sub.position(0), (Vec3f{-1, -2, -3}));
  EXPECT_EQ(sub.position(1), (Vec3f{0, 0, 0}));
  EXPECT_EQ(sub.point_fields().get("id").get(0), 12);
  EXPECT_EQ(sub.point_fields().get("id").get(1), 10);
}

TEST(PointSet, SubsetGathersMultiComponentFieldsInKeepOrder) {
  PointSet ps = make_points();
  Field vel("velocity", 3, 3);
  for (Index i = 0; i < 3; ++i) vel.set_vec3(i, {Real(i), Real(10 + i), Real(20 + i)});
  ps.point_fields().add(std::move(vel));
  const std::vector<Index> keep{1, 1, 2};
  const PointSet sub = ps.subset(keep);
  ASSERT_EQ(sub.num_points(), 3);
  ASSERT_EQ(sub.point_fields().size(), 2u);
  EXPECT_EQ(sub.point_fields().at(0).name(), "id");
  EXPECT_EQ(sub.point_fields().at(1).name(), "velocity");
  const Field& got = sub.point_fields().get("velocity");
  EXPECT_EQ(got.components(), 3);
  EXPECT_EQ(got.get_vec3(0), (Vec3f{1, 11, 21}));
  EXPECT_EQ(got.get_vec3(1), (Vec3f{1, 11, 21}));
  EXPECT_EQ(got.get_vec3(2), (Vec3f{2, 12, 22}));
  EXPECT_EQ(sub.position(2), (Vec3f{-1, -2, -3}));
  EXPECT_EQ(ps.subset(std::vector<Index>{}).num_points(), 0);
}

TEST(PointSet, SubsetRejectsOutOfRange) {
  const PointSet ps = make_points();
  const std::vector<Index> bad{0, 3};
  EXPECT_THROW(ps.subset(bad), Error);
  const std::vector<Index> neg{-1};
  EXPECT_THROW(ps.subset(neg), Error);
}

TEST(PointSet, CloneIsDeep) {
  PointSet ps = make_points();
  const auto clone = ps.clone();
  ps.set_position(0, {99, 99, 99});
  ps.point_fields().get("id").set(0, -1);
  const auto& cloned = static_cast<const PointSet&>(*clone);
  EXPECT_EQ(cloned.position(0), (Vec3f{0, 0, 0}));
  EXPECT_EQ(cloned.point_fields().get("id").get(0), 10);
}

TEST(PointSet, ByteSizeIncludesPositionsAndFields) {
  const PointSet ps = make_points();
  EXPECT_EQ(ps.byte_size(), 3 * sizeof(Vec3f) + 3 * sizeof(Real));
}

TEST(PointSet, PushBackGrows) {
  PointSet ps;
  ps.push_back({1, 1, 1});
  ps.push_back({2, 2, 2});
  EXPECT_EQ(ps.num_points(), 2);
  EXPECT_EQ(ps.position(1), (Vec3f{2, 2, 2}));
}

} // namespace
} // namespace eth
