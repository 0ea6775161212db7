#include "render/ray/bvh.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/simd_kernels.hpp"

namespace eth {

Real ray_sphere(const Ray& ray, Vec3f center, Real radius, Real tmin, Real tmax) {
  const Vec3f oc = ray.origin - center;
  // Direction is unit length, so a = 1.
  const Real half_b = dot(oc, ray.direction);
  const Real c = length2(oc) - radius * radius;
  const Real disc = half_b * half_b - c;
  if (disc < 0) return Real(-1);
  const Real sqrt_d = std::sqrt(disc);
  Real t = -half_b - sqrt_d;
  if (t <= tmin) t = -half_b + sqrt_d; // ray starts inside: use exit point
  if (t <= tmin || t >= tmax) return Real(-1);
  return t;
}

// One sphere as the build sees it: its center and its input index in 16
// contiguous bytes, so every pass over a node is a sequential scan instead
// of a gather through the permutation.
struct SphereBVH::BuildRecord {
  Vec3f center;
  std::uint32_t id;
};

SphereBVH::SphereBVH(std::span<const Vec3f> centers, Real radius, SplitMethod split,
                     int max_leaf_size) {
  require(radius > 0 || centers.empty(), "SphereBVH: radius must be positive");
  require(max_leaf_size >= 1, "SphereBVH: max_leaf_size must be >= 1");
  require(centers.size() <= std::numeric_limits<std::uint32_t>::max(),
          "SphereBVH: more than 2^32-1 spheres");
  radius_ = radius;
  const std::size_t n = centers.size();
  if (n == 0) return;

  std::vector<BuildRecord> records(n);
  std::vector<std::uint8_t> bin_ids(n);
  AABB centroid_box;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3f c = centers[i];
    records[i] = {c, static_cast<std::uint32_t>(i)};
    centroid_box.extend(c);
    finite = finite && std::isfinite(c.x) && std::isfinite(c.y) && std::isfinite(c.z);
  }
  // A NaN or infinite center would make its bin index undefined.
  require(finite, "SphereBVH: sphere centers must be finite");
  nodes_.reserve(2 * n);
  build_recursive(records, bin_ids, 0, static_cast<Index>(n), centroid_box, split,
                  max_leaf_size, 0);

  // The records now sit in leaf order: the permutation and the SoA
  // copies the SIMD leaf kernel loads W spheres per axis from.
  prim_order_.resize(n);
  cx_.resize(n);
  cy_.resize(n);
  cz_.resize(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    prim_order_[slot] = records[slot].id;
    cx_[slot] = records[slot].center.x;
    cy_[slot] = records[slot].center.y;
    cz_[slot] = records[slot].center.z;
  }
}

void SphereBVH::partition_by_bin(std::span<BuildRecord> records,
                                 std::span<const std::uint8_t> bin_ids, Index begin,
                                 Index mid, Index end, int last_left_bin) {
  // Offsets of misplaced records, collected a block at a time without a
  // data-dependent branch: left-side slots ascending, right-side descending.
  constexpr Index kBlock = 128;
  Index left[kBlock];
  Index right[kBlock];
  Index next_left = begin; // next unscanned slot of [begin, mid)
  Index next_right = end;  // one past the next unscanned slot of [mid, end)
  Index nl = 0, pl = 0, nr = 0, pr = 0;
  for (;;) {
    while (pl == nl && next_left < mid) {
      pl = nl = 0;
      for (const Index stop = std::min(mid, next_left + kBlock); next_left < stop;
           ++next_left) {
        left[nl] = next_left;
        nl += bin_ids[static_cast<std::size_t>(next_left)] > last_left_bin;
      }
    }
    while (pr == nr && next_right > mid) {
      pr = nr = 0;
      for (const Index stop = std::max(mid, next_right - kBlock); next_right > stop;) {
        --next_right;
        right[nr] = next_right;
        nr += bin_ids[static_cast<std::size_t>(next_right)] <= last_left_bin;
      }
    }
    // Both sides hold equally many misplaced records, so one side running
    // out means every pair is swapped.
    if (pl == nl || pr == nr) return;
    const Index pairs = std::min(nl - pl, nr - pr);
    for (Index k = 0; k < pairs; ++k)
      std::swap(records[static_cast<std::size_t>(left[pl + k])],
                records[static_cast<std::size_t>(right[pr + k])]);
    pl += pairs;
    pr += pairs;
  }
}

Index SphereBVH::build_recursive(std::span<BuildRecord> records,
                                 std::span<std::uint8_t> bin_ids, Index begin, Index end,
                                 const AABB& centroid_box, SplitMethod split,
                                 int max_leaf_size, int depth) {
  const Index node_index = static_cast<Index>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].box = centroid_box.inflated(radius_);

  const Index count = end - begin;
  if (count <= max_leaf_size || depth >= kMaxDepth ||
      centroid_box.diagonal() <= Real(0)) {
    nodes_[static_cast<std::size_t>(node_index)].right_or_first = begin;
    nodes_[static_cast<std::size_t>(node_index)].count = count;
    return node_index;
  }

  const int axis = centroid_box.longest_axis();
  const auto first = records.begin() + begin;
  const auto last = records.begin() + end;
  Index mid = begin + count / 2;
  AABB left_box;
  AABB right_box;
  int best_split = -1; // SAH: last bin left of the winning plane

  if (split == SplitMethod::kBinnedSAH) {
    // Binned SAH: 16 bins along the widest centroid axis.
    constexpr int kBins = 16;
    struct Bin {
      AABB box;
      Index count = 0;
    };
    Bin bins[kBins];
    const Real lo = centroid_box.lo[axis];
    const Real span = std::max(centroid_box.extent()[axis], Real(1e-12));
    const auto bin_of = [&](Vec3f c) {
      return std::min<int>(kBins - 1, static_cast<int>((c[axis] - lo) / span * kBins));
    };
    for (Index s = begin; s < end; ++s) {
      const Vec3f c = records[static_cast<std::size_t>(s)].center;
      const int b = bin_of(c);
      bin_ids[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(b);
      bins[b].box.extend(c);
      ++bins[b].count;
    }
    // Sweep for the cheapest split plane by surface-area heuristic. The
    // bin unions on either side of the winning plane are exactly the
    // children's centroid boxes, so the children skip their bounds pass.
    AABB right_acc[kBins];
    AABB acc;
    for (int b = kBins - 1; b > 0; --b) {
      acc.extend(bins[b].box);
      right_acc[b] = acc;
    }
    Real best_cost = std::numeric_limits<Real>::max();
    Index best_left_count = 0;
    AABB left_acc;
    Index left_count = 0;
    for (int b = 0; b + 1 < kBins; ++b) {
      left_acc.extend(bins[b].box);
      left_count += bins[b].count;
      const Index right_count = count - left_count;
      if (left_count == 0 || right_count == 0) continue;
      const Real cost = left_acc.surface_area() * Real(left_count) +
                        right_acc[b + 1].surface_area() * Real(right_count);
      if (cost < best_cost) {
        best_cost = cost;
        best_split = b;
        best_left_count = left_count;
        left_box = left_acc;
      }
    }
    if (best_split >= 0) {
      mid = begin + best_left_count; // both sides non-empty: begin < mid < end
      partition_by_bin(records, bin_ids, begin, mid, end, best_split);
      right_box = right_acc[best_split + 1];
    }
  }
  if (best_split < 0) {
    // Median split, or SAH with every centroid in one bin.
    std::nth_element(first, records.begin() + mid, last,
                     [axis](const BuildRecord& a, const BuildRecord& b) {
                       return a.center[axis] < b.center[axis];
                     });
    for (auto it = first; it != records.begin() + mid; ++it) left_box.extend(it->center);
    for (auto it = records.begin() + mid; it != last; ++it) right_box.extend(it->center);
  }

  build_recursive(records, bin_ids, begin, mid, left_box, split, max_leaf_size,
                  depth + 1);
  const Index right_child = build_recursive(records, bin_ids, mid, end, right_box, split,
                                            max_leaf_size, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].right_or_first = right_child;
  nodes_[static_cast<std::size_t>(node_index)].count = 0;
  return node_index;
}

SphereHit SphereBVH::intersect(const Ray& ray, Real tmin, Real tmax,
                               cluster::PerfCounters& counters) const {
  SphereHit hit;
  if (nodes_.empty()) return hit;

  const Vec3f inv_d{Real(1) / ray.direction.x, Real(1) / ray.direction.y,
                    Real(1) / ray.direction.z};
  Real closest = tmax;
  Index visited = 0;
  Index slot = -1; // leaf-order slot of the accepted sphere
  const simd::KernelTable* table = simd::active_kernels();

  // Interior nodes sit at depth < kMaxDepth. Popping one at depth d leaves
  // at most one pending right sibling per depth 1..d on the stack, then
  // pushes its two children: d + 2 <= kMaxDepth + 1 entries.
  Index stack[kMaxDepth + 1];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--top])];
    ++visited;
    if (!node.box.hit(ray.origin, inv_d, tmin, closest)) continue;
    if (node.is_leaf()) {
      if (table != nullptr) {
        const auto first = static_cast<std::size_t>(node.right_or_first);
        table->leaf_intersect(cx_.data() + first, cy_.data() + first,
                              cz_.data() + first, node.count, node.right_or_first,
                              ray.origin.x, ray.origin.y, ray.origin.z,
                              ray.direction.x, ray.direction.y, ray.direction.z,
                              radius_, tmin, closest, slot);
      } else {
        for (Index s = node.right_or_first; s < node.right_or_first + node.count;
             ++s) {
          const Real t = ray_sphere(ray, center(s), radius_, tmin, closest);
          if (t > 0) {
            closest = t;
            slot = s;
          }
        }
      }
    } else {
      // Push children; near-first ordering is approximated by pushing
      // the right child first so the left (index+1, contiguous) child
      // pops next.
      stack[top++] = node.right_or_first;
      stack[top++] = static_cast<Index>(&node - nodes_.data()) + 1;
    }
  }
  if (slot >= 0) {
    // Same expression and inputs as the old per-accept update, deferred
    // to the winning sphere so the leaf loop only tracks (closest, slot).
    hit.t = closest;
    hit.primitive = prim_order_[static_cast<std::size_t>(slot)];
    hit.normal = normalize(ray.origin + ray.direction * closest - center(slot));
  }
  counters.bvh_nodes_visited += visited;
  return hit;
}

int SphereBVH::max_depth() const { return nodes_.empty() ? 0 : depth_of(0); }

int SphereBVH::depth_of(Index node_index) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (node.is_leaf()) return 1;
  return 1 + std::max(depth_of(node_index + 1), depth_of(node.right_or_first));
}

void SphereBVH::validate(std::span<const Vec3f> centers) const {
  require(centers.size() == prim_order_.size(), "SphereBVH::validate: size mismatch");
  if (centers.empty()) return;
  require(max_depth() <= kMaxDepth + 1, "SphereBVH::validate: tree deeper than the cap");

  std::vector<char> seen(centers.size(), 0);
  for (std::size_t node_index = 0; node_index < nodes_.size(); ++node_index) {
    const Node& node = nodes_[node_index];
    if (!node.is_leaf()) {
      require(node.right_or_first > static_cast<Index>(node_index) &&
                  node.right_or_first < static_cast<Index>(nodes_.size()),
              "SphereBVH::validate: bad child index");
      continue;
    }
    for (Index s = node.right_or_first; s < node.right_or_first + node.count; ++s) {
      require(s >= 0 && s < static_cast<Index>(prim_order_.size()),
              "SphereBVH::validate: leaf slot out of range");
      const Index prim = prim_order_[static_cast<std::size_t>(s)];
      require(seen[static_cast<std::size_t>(prim)] == 0,
              "SphereBVH::validate: primitive referenced twice");
      seen[static_cast<std::size_t>(prim)] = 1;
      const AABB sphere_box =
          AABB::of(centers[static_cast<std::size_t>(prim)], centers[static_cast<std::size_t>(prim)])
              .inflated(radius_);
      require(node.box.contains(sphere_box.lo) && node.box.contains(sphere_box.hi),
              "SphereBVH::validate: primitive outside its leaf box");
    }
  }
  for (const char s : seen)
    require(s == 1, "SphereBVH::validate: primitive missing from every leaf");
}

} // namespace eth
