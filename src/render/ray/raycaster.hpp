#pragma once
// RaycastRenderer: the geometry-free rendering back-end (paper §III,
// §IV-C). "The raycasting method operates directly on the data": rays
// from the camera through every pixel intersect the dataset without any
// intermediate triangle representation, so per-frame cost is a function
// of the number of RAYS, not the number of data elements — the property
// behind the paper's scaling findings (3, 7).
//
// Three paths:
//  * render_spheres — HACC particles through a SphereBVH (build the
//    structure once per dataset, reuse across the timestep's images).
//  * render_volume_iso — isosurface by ray marching + bisection
//    refinement; per-ray cost ~ data resolution in 1-D (n^(1/3)).
//  * render_volume_slice — O(1) ray/plane intersection + trilinear
//    lookup per pixel.

#include <memory>
#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "data/image.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "render/ray/bvh.hpp"

namespace eth {

struct SphereRaycastOptions {
  Real world_radius = 0.0f; ///< 0 = auto: bounds diagonal / 500
  Vec4f uniform_color{0.9f, 0.9f, 0.95f, 1.0f};
  const TransferFunction* colormap = nullptr;
  std::string scalar_field;
  Real ambient = 0.25f;
  SphereBVH::SplitMethod split = SphereBVH::SplitMethod::kBinnedSAH;
  /// Sized for the SIMD leaf kernel: larger leaves trade a few extra
  /// sphere tests for far fewer node visits, and the vector kernel
  /// amortizes the tests across full lanes (64 = eight AVX2 packs).
  /// bench_ablation_bvh's BM_BvhTraverse leaf sweep (1/4/16/64) under
  /// ETH_SIMD=native and scalar regenerates the choice: the vector path
  /// is fastest at 64, while the scalar path pays a little for the
  /// tests the lanes hide. The tree is identical for every ETH_SIMD
  /// setting, so the scalar↔vector bit-identity contract is unaffected.
  int max_leaf_size = 64;
};

struct IsoRaycastOptions {
  Real isovalue = 0.5f;
  Vec4f uniform_color{0.9f, 0.6f, 0.3f, 1.0f};
  const TransferFunction* colormap = nullptr; ///< colors by isovalue when set
  Real ambient = 0.25f;
  /// Step length as a fraction of the minimum grid spacing ("the
  /// appropriate sampling along the ray is proportionate to the
  /// resolution of the data in 1-D").
  Real step_scale = 1.0f;
  int bisection_iterations = 6;
};

struct SliceRaycastOptions {
  Vec3f plane_origin;
  Vec3f plane_normal{0, 0, 1};
  const TransferFunction* colormap = nullptr;
  Real ambient = 0.35f;
};

struct DvrRaycastOptions {
  /// Maps field value to color AND opacity (the transfer function's
  /// alpha channel drives absorption).
  const TransferFunction* transfer = nullptr;
  Real step_scale = 1.0f;      ///< step as a fraction of min grid spacing
  Real opacity_scale = 1.0f;   ///< global density multiplier
  Real early_termination_alpha = 0.98f;
};

/// Min/max macrocell grid for empty-space skipping during isosurface
/// ray marching (the standard OSPRay-style acceleration): each
/// macrocell stores the value range of the data samples it covers, so
/// rays skip regions that cannot contain the isovalue.
class MinMaxGrid {
public:
  MinMaxGrid() = default;

  /// Build over `field` of `grid`, `cells_per_macrocell` data cells per
  /// macrocell per axis.
  MinMaxGrid(const StructuredGrid& grid, const Field& field,
             Index cells_per_macrocell = 4);

  bool empty() const { return ranges_.empty(); }
  Vec3i dims() const { return dims_; }
  Real macro_extent() const { return extent_; }
  Vec3f origin() const { return origin_; }

  /// Could the macrocell containing world point `p` hold `isovalue`?
  /// Points outside the grid return false.
  bool may_contain(Vec3f p, Real isovalue) const;

  /// Resident size (the memoization layer's byte budget).
  Bytes byte_size() const {
    return static_cast<Bytes>(ranges_.size() * sizeof(std::pair<Real, Real>));
  }

private:
  Vec3i dims_{0, 0, 0};
  Vec3f origin_;
  Vec3f inv_cell_;
  Real extent_ = 0; ///< smallest macrocell world extent (skip distance)
  std::vector<std::pair<Real, Real>> ranges_;
};

/// The sphere path's immutable per-dataset setup product: the BVH plus
/// the resolved world radius it was built with. Shareable (shared_ptr)
/// so the artifact cache can own one copy reused across images,
/// timesteps and sweep points.
struct SphereAccel {
  SphereBVH bvh;
  Real radius = 0; ///< resolved (auto already applied)

  Bytes byte_size() const { return bvh.byte_size(); }
};

class RaycastRenderer {
public:
  /// Build (or rebuild) the sphere acceleration structure for `points`.
  /// Separate from rendering so the harness can charge the O(N log N)
  /// setup once per timestep while rendering many images.
  void build_spheres(const PointSet& points, const SphereRaycastOptions& options,
                     cluster::PerfCounters& counters);

  /// Cache-friendly form of build_spheres: build and return the
  /// shareable structure without adopting it. Pure — the result is a
  /// function of (points, geometry options) only.
  static std::shared_ptr<const SphereAccel> build_sphere_accel(
      const PointSet& points, const SphereRaycastOptions& options,
      cluster::PerfCounters& counters);

  /// Adopt a previously built (possibly cache-owned) structure in
  /// place of building one.
  void adopt_spheres(std::shared_ptr<const SphereAccel> accel) {
    spheres_ = std::move(accel);
  }
  std::shared_ptr<const SphereAccel> shared_spheres() const { return spheres_; }

  bool has_sphere_structure() const { return spheres_ && !spheres_->bvh.empty(); }
  const SphereBVH& sphere_bvh() const {
    static const SphereBVH kEmpty;
    return spheres_ ? spheres_->bvh : kEmpty;
  }

  /// Build the min/max macrocell structure for `field_name` of `grid`,
  /// once per timestep; render_volume_iso then skips empty space.
  void build_volume(const StructuredGrid& grid, const std::string& field_name,
                    cluster::PerfCounters& counters);

  /// Cache-friendly form of build_volume (see build_sphere_accel).
  static std::shared_ptr<const MinMaxGrid> build_volume_accel(
      const StructuredGrid& grid, const std::string& field_name,
      cluster::PerfCounters& counters);

  void adopt_volume(std::shared_ptr<const MinMaxGrid> minmax) {
    minmax_ = std::move(minmax);
  }
  std::shared_ptr<const MinMaxGrid> shared_volume() const { return minmax_; }

  bool has_volume_structure() const { return minmax_ && !minmax_->empty(); }

  /// Raycast the prepared spheres. Requires build_spheres() first.
  void render_spheres(const PointSet& points, const Camera& camera, ImageBuffer& image,
                      const SphereRaycastOptions& options,
                      cluster::PerfCounters& counters) const;

  /// Ray-marched isosurface of `field_name` on a structured grid.
  void render_volume_iso(const StructuredGrid& grid, const std::string& field_name,
                         const Camera& camera, ImageBuffer& image,
                         const IsoRaycastOptions& options,
                         cluster::PerfCounters& counters) const;

  /// Slicing plane through a structured grid; scalar through colormap.
  void render_volume_slice(const StructuredGrid& grid, const std::string& field_name,
                           const Camera& camera, ImageBuffer& image,
                           const SliceRaycastOptions& options,
                           cluster::PerfCounters& counters) const;

  /// Single-pass scene render: every primary ray resolves the
  /// isosurface AND all slicing planes in one traversal, keeping the
  /// nearest hit — how a real raycaster composes a multi-object scene,
  /// paying the per-ray setup once instead of once per object.
  void render_volume_scene(const StructuredGrid& grid, const std::string& field_name,
                           const Camera& camera, ImageBuffer& image,
                           const IsoRaycastOptions& iso_options,
                           std::span<const SliceRaycastOptions> slices,
                           cluster::PerfCounters& counters) const;

  /// Direct volume rendering: front-to-back emission/absorption
  /// integration through the transfer function, with early ray
  /// termination. The image's color channel holds PREMULTIPLIED rgba
  /// (so partial images alpha-composite across ranks in view order);
  /// depth records the volume entry point.
  void render_volume_dvr(const StructuredGrid& grid, const std::string& field_name,
                         const Camera& camera, ImageBuffer& image,
                         const DvrRaycastOptions& options,
                         cluster::PerfCounters& counters) const;

private:
  // Shared immutable setup products: built here or adopted from the
  // artifact cache; rendering only reads them.
  std::shared_ptr<const SphereAccel> spheres_;
  std::shared_ptr<const MinMaxGrid> minmax_;
};

} // namespace eth
