#pragma once
// SphereBVH: the "specialized acceleration structure" of the paper's
// raycast-spheres method (§IV-C): particles are inserted "at a cost of
// roughly O(N log N)" and traversal finds ray/sphere hits "with a cost
// that is sub-linear in the number of particles".
//
// Binned-SAH builder over 32-byte nodes in depth-first layout; leaves
// reference a permuted primitive index array. The build cost is exactly
// the "additional setup phase" the paper's performance-counter analysis
// attributes raycasting's extra computation to — the harness times
// build and traversal separately.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "common/aabb.hpp"
#include "render/camera.hpp"

namespace eth {

struct SphereHit {
  Real t = -1;       ///< ray parameter of the nearest hit (< 0 = miss)
  Index primitive = -1;
  Vec3f normal;      ///< outward unit normal at the hit point

  bool valid() const { return t >= 0; }
};

class SphereBVH {
public:
  enum class SplitMethod { kBinnedSAH, kMedian };

  SphereBVH() = default;
  /// Build over `centers` with a common `radius`. Empty input allowed;
  /// non-finite centers are rejected with eth::Error.
  SphereBVH(std::span<const Vec3f> centers, Real radius,
            SplitMethod split = SplitMethod::kBinnedSAH, int max_leaf_size = 4);

  bool empty() const { return prim_order_.empty(); }
  Index num_primitives() const { return static_cast<Index>(prim_order_.size()); }
  Index num_nodes() const { return static_cast<Index>(nodes_.size()); }
  AABB bounds() const { return nodes_.empty() ? AABB::empty() : nodes_[0].box; }
  Real radius() const { return radius_; }

  /// Resident size (the memoization layer's byte budget).
  Bytes byte_size() const {
    return static_cast<Bytes>(nodes_.size() * sizeof(Node) +
                              prim_order_.size() * sizeof(Index) +
                              3 * cx_.size() * sizeof(Real));
  }

  /// Nearest sphere intersection along `ray` within (tmin, tmax).
  SphereHit intersect(const Ray& ray, Real tmin, Real tmax,
                      cluster::PerfCounters& counters) const;

  /// Depth of the tree (diagnostics / ablation benches).
  int max_depth() const;

  /// Invariant check used by property tests: every primitive is
  /// referenced exactly once, every leaf's primitives are inside its box
  /// and no interior node sits at or below the depth cap. Throws
  /// eth::Error on violation.
  void validate(std::span<const Vec3f> centers) const;

private:
  struct BuildRecord; ///< (center, input index): one sphere during the build

  /// Nodes at this depth become leaves, which bounds the traversal stack.
  static constexpr int kMaxDepth = 64;

  struct Node {
    AABB box;
    // Interior: left child = index + 1, right child = `right_or_first`.
    // Leaf: `right_or_first` = first primitive slot, `count` > 0.
    Index right_or_first = 0;
    Index count = 0; ///< 0 for interior nodes

    bool is_leaf() const { return count > 0; }
  };

  Index build_recursive(std::span<BuildRecord> records, std::span<std::uint8_t> bin_ids,
                        Index begin, Index end, const AABB& centroid_box,
                        SplitMethod split, int max_leaf_size, int depth);
  /// Moves the records of [begin, end) whose cached bin is at most
  /// `last_left_bin` to [begin, mid), `mid` being begin plus their count.
  /// It swaps the k-th misplaced record from the left with the k-th
  /// misplaced record from the right: the very swaps libstdc++'s
  /// bidirectional std::partition makes, so the records land where it
  /// would put them.
  static void partition_by_bin(std::span<BuildRecord> records,
                               std::span<const std::uint8_t> bin_ids, Index begin,
                               Index mid, Index end, int last_left_bin);
  int depth_of(Index node) const;
  Vec3f center(Index slot) const {
    const auto s = static_cast<std::size_t>(slot);
    return {cx_[s], cy_[s], cz_[s]};
  }

  std::vector<Node> nodes_;
  std::vector<Index> prim_order_;
  // Leaf-order SoA copies of the centers: the SIMD leaf kernel loads W
  // contiguous spheres per axis (DESIGN.md §14).
  std::vector<Real> cx_, cy_, cz_;
  Real radius_ = 0;
};

/// Analytic ray/sphere test used by both the BVH and the brute-force
/// reference in tests. Returns the smallest t in (tmin, tmax) or -1.
Real ray_sphere(const Ray& ray, Vec3f center, Real radius, Real tmin, Real tmax);

} // namespace eth
