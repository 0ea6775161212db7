#include "data/tet_mesh.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "pipeline/isosurface.hpp"

namespace eth {
namespace {

/// A single unit tetrahedron with scalar = x + 2y + 3z.
TetMesh unit_tet() {
  TetMesh mesh;
  mesh.add_vertex({0, 0, 0});
  mesh.add_vertex({1, 0, 0});
  mesh.add_vertex({0, 1, 0});
  mesh.add_vertex({0, 0, 1});
  mesh.add_tet(0, 1, 2, 3);
  Field f("s", 4, 1);
  for (Index i = 0; i < 4; ++i) {
    const Vec3f p = mesh.vertices()[static_cast<std::size_t>(i)];
    f.set(i, p.x + 2 * p.y + 3 * p.z);
  }
  mesh.point_fields().add(std::move(f));
  return mesh;
}

StructuredGrid linear_grid(Index n = 8) {
  StructuredGrid g({n, n, n}, {0, 0, 0}, {1, 1, 1});
  Field& f = g.add_scalar_field("s");
  for (Index k = 0; k < n; ++k)
    for (Index j = 0; j < n; ++j)
      for (Index i = 0; i < n; ++i) {
        const Vec3f p = g.point_position(i, j, k);
        f.set(g.point_index(i, j, k), p.x + 2 * p.y - p.z);
      }
  return g;
}

TEST(TetMesh, BasicsAndVolume) {
  const TetMesh mesh = unit_tet();
  EXPECT_EQ(mesh.kind(), DataSetKind::kTetMesh);
  EXPECT_EQ(mesh.num_points(), 4);
  EXPECT_EQ(mesh.num_tets(), 1);
  EXPECT_NEAR(mesh.tet_volume(0), 1.0f / 6, 1e-6);
  EXPECT_NEAR(mesh.total_volume(), 1.0f / 6, 1e-6);
  EXPECT_EQ(mesh.bounds().hi, (Vec3f{1, 1, 1}));
  EXPECT_THROW(unit_tet().add_tet(0, 1, 2, 9), Error);
}

TEST(TetMesh, SampleInterpolatesLinearFieldExactly) {
  const TetMesh mesh = unit_tet();
  const Field& f = mesh.point_fields().get("s");
  Rng rng(3);
  int inside_hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Vec3f p = rng.point_in_box({0, 0, 0}, {1, 1, 1});
    Real value = 0;
    const bool inside = mesh.sample(f, p, value);
    const bool geometrically_inside = (p.x + p.y + p.z) <= 1.0f;
    if (geometrically_inside) {
      ASSERT_TRUE(inside);
      EXPECT_NEAR(value, p.x + 2 * p.y + 3 * p.z, 1e-4);
      ++inside_hits;
    }
  }
  EXPECT_GT(inside_hits, 20);
  // Clearly outside.
  Real value = 0;
  EXPECT_FALSE(mesh.sample(f, {5, 5, 5}, value));
}

TEST(TetMesh, FromStructuredFillsTheGridVolume) {
  const StructuredGrid grid = linear_grid(6);
  const TetMesh mesh = TetMesh::from_structured(grid);
  EXPECT_EQ(mesh.num_points(), grid.num_points());
  EXPECT_EQ(mesh.num_tets(), grid.num_cells() * 6);
  // The 6-tet split tiles each unit cell exactly.
  EXPECT_NEAR(mesh.total_volume(), float(grid.num_cells()), 1e-2);
  // Fields carried over.
  EXPECT_TRUE(mesh.point_fields().has("s"));
}

TEST(TetMesh, SampleMatchesStructuredTrilinearOnLinearField) {
  const StructuredGrid grid = linear_grid(6);
  const TetMesh mesh = TetMesh::from_structured(grid);
  const Field& gf = grid.point_fields().get("s");
  const Field& mf = mesh.point_fields().get("s");
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3f p = rng.point_in_box({0.1f, 0.1f, 0.1f}, {4.9f, 4.9f, 4.9f});
    Real tet_value = 0;
    ASSERT_TRUE(mesh.sample(mf, p, tet_value));
    EXPECT_NEAR(tet_value, grid.sample(gf, p), 1e-3);
  }
}

TEST(TetMesh, SerializationRoundTrip) {
  const TetMesh mesh = unit_tet();
  const auto bytes = wire_message_for_dataset(mesh).flatten();
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kTetMesh);
  const auto& r = static_cast<const TetMesh&>(*restored);
  EXPECT_EQ(r.num_points(), 4);
  EXPECT_EQ(r.num_tets(), 1);
  EXPECT_EQ(r.vertices()[3], (Vec3f{0, 0, 1}));
  EXPECT_EQ(r.point_fields().get("s").get(3), 3);
}

TEST(TetMesh, IsosurfaceOnTetsMatchesStructuredContour) {
  // Contouring the tessellated grid must produce (nearly) the same
  // surface area as contouring the structured grid directly: both use
  // the same Kuhn decomposition.
  const Index n = 10;
  StructuredGrid grid({n, n, n}, {0, 0, 0}, {1, 1, 1});
  Field& f = grid.add_scalar_field("d");
  const Vec3f center{Real(n - 1) / 2, Real(n - 1) / 2, Real(n - 1) / 2};
  for (Index k = 0; k < n; ++k)
    for (Index j = 0; j < n; ++j)
      for (Index i = 0; i < n; ++i)
        f.set(grid.point_index(i, j, k), length(grid.point_position(i, j, k) - center));

  const auto area_of = [](const TriangleMesh& m) {
    double area = 0;
    for (Index t = 0; t < m.num_triangles(); ++t) {
      Index a, b, c;
      m.triangle(t, a, b, c);
      area += 0.5 * length(cross(
                        m.vertices()[static_cast<std::size_t>(b)] -
                            m.vertices()[static_cast<std::size_t>(a)],
                        m.vertices()[static_cast<std::size_t>(c)] -
                            m.vertices()[static_cast<std::size_t>(a)]));
    }
    return area;
  };

  IsosurfaceExtractor structured("d", 3.0f);
  structured.set_input(std::shared_ptr<const DataSet>(grid.clone().release()));
  const auto& surf_grid = static_cast<const TriangleMesh&>(*structured.update());

  auto tets = std::make_shared<TetMesh>(TetMesh::from_structured(grid));
  IsosurfaceExtractor unstructured("d", 3.0f);
  unstructured.set_input(std::shared_ptr<const DataSet>(tets));
  const auto& surf_tets = static_cast<const TriangleMesh&>(*unstructured.update());

  ASSERT_GT(surf_tets.num_triangles(), 0);
  EXPECT_EQ(surf_tets.num_triangles(), surf_grid.num_triangles());
  EXPECT_NEAR(area_of(surf_tets) / area_of(surf_grid), 1.0, 1e-3);
  ASSERT_TRUE(surf_tets.has_normals());
}

} // namespace
} // namespace eth
