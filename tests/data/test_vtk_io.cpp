#include "data/vtk_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "data/point_set.hpp"
#include "data/structured_grid.hpp"

namespace eth {
namespace {

class VtkIoTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Per-test, per-process directory: ctest runs every TEST_F as its
    // own process, possibly in parallel, and TearDown deletes the tree.
    dir_ = std::filesystem::temp_directory_path() /
           ("eth_vtk_io_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(VtkIoTest, PointSetFileRoundTrip) {
  PointSet ps(3);
  ps.set_position(0, {1, 2, 3});
  ps.set_position(2, {-1, 0, 1});
  Field id("id", 3, 1);
  id.set(1, 42);
  ps.point_fields().add(std::move(id));

  write_dataset(ps, path("points.eth"));
  const auto restored = read_dataset(path("points.eth"));
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  EXPECT_EQ(r.num_points(), 3);
  EXPECT_EQ(r.position(0), (Vec3f{1, 2, 3}));
  EXPECT_EQ(r.point_fields().get("id").get(1), 42);
}

TEST_F(VtkIoTest, TypedReadEnforcesKind) {
  StructuredGrid g({2, 2, 2}, {0, 0, 0}, {1, 1, 1});
  g.add_scalar_field("t");
  write_dataset(g, path("grid.eth"));
  const auto grid = read_dataset_as<StructuredGrid>(path("grid.eth"));
  EXPECT_EQ(grid->dims(), (Vec3i{2, 2, 2}));
  EXPECT_THROW(read_dataset_as<PointSet>(path("grid.eth")), Error);
}

TEST_F(VtkIoTest, ProbeReportsKindAndSize) {
  const PointSet ps(100);
  write_dataset(ps, path("probe.eth"));
  const auto [kind, bytes] = probe_dataset(path("probe.eth"));
  EXPECT_EQ(kind, DataSetKind::kPointSet);
  EXPECT_GT(bytes, 100u * sizeof(Vec3f) - 1);
}

TEST_F(VtkIoTest, HeaderIsHumanReadable) {
  const PointSet ps(1);
  write_dataset(ps, path("header.eth"));
  std::ifstream f(path("header.eth"));
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "# eth DataFile v1");
  std::getline(f, line);
  EXPECT_EQ(line, "kind PointSet");
  std::getline(f, line);
  EXPECT_EQ(line.substr(0, 6), "bytes ");
}

TEST_F(VtkIoTest, MissingFileThrows) {
  EXPECT_THROW(read_dataset(path("missing.eth")), Error);
  EXPECT_THROW(probe_dataset(path("missing.eth")), Error);
}

TEST_F(VtkIoTest, ForeignFileRejected) {
  std::ofstream f(path("foreign.eth"));
  f << "not an eth file\nat all\n";
  f.close();
  EXPECT_THROW(read_dataset(path("foreign.eth")), Error);
}

TEST_F(VtkIoTest, TruncatedPayloadRejected) {
  const PointSet ps(50);
  write_dataset(ps, path("trunc.eth"));
  // Chop the file short.
  const auto size = std::filesystem::file_size(path("trunc.eth"));
  std::filesystem::resize_file(path("trunc.eth"), size / 2);
  EXPECT_THROW(read_dataset(path("trunc.eth")), Error);
}

TEST_F(VtkIoTest, HeaderPayloadKindMismatchRejected) {
  const PointSet ps(2);
  write_dataset(ps, path("tamper.eth"));
  // Tamper: rewrite the header kind while keeping the payload.
  std::ifstream in(path("tamper.eth"), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto pos = content.find("kind PointSet");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 13, "kind TriangleMesh");
  // Keep byte count line unchanged; payload still says PointSet.
  std::ofstream out(path("tamper2.eth"), std::ios::binary);
  out << content;
  out.close();
  EXPECT_THROW(read_dataset(path("tamper2.eth")), Error);
}

} // namespace
} // namespace eth
