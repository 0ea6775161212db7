#include "render/ray/bvh.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "sim/hacc_generator.hpp"

namespace eth {
namespace {

std::vector<Vec3f> random_centers(Index n, std::uint64_t seed) {
  std::vector<Vec3f> centers(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (Vec3f& c : centers) c = rng.point_in_box({-10, -10, -10}, {10, 10, 10});
  return centers;
}

/// Brute-force reference for nearest sphere hit.
SphereHit brute_force(const Ray& ray, std::span<const Vec3f> centers, Real radius,
                      Real tmin, Real tmax) {
  SphereHit best;
  Real closest = tmax;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    const Real t = ray_sphere(ray, centers[i], radius, tmin, closest);
    if (t > 0) {
      closest = t;
      best.t = t;
      best.primitive = static_cast<Index>(i);
      best.normal = normalize(ray.origin + ray.direction * t - centers[i]);
    }
  }
  return best;
}

TEST(RaySphere, DirectHitAndMiss) {
  const Ray ray{{0, 0, -10}, {0, 0, 1}};
  const Real t = ray_sphere(ray, {0, 0, 0}, 1.0f, 0, 100);
  EXPECT_NEAR(t, 9.0f, 1e-4);
  EXPECT_LT(ray_sphere(ray, {5, 0, 0}, 1.0f, 0, 100), 0);
  // Behind the origin: no hit.
  EXPECT_LT(ray_sphere(ray, {0, 0, -20}, 1.0f, 0, 100), 0);
}

TEST(RaySphere, RayStartingInsideHitsExitPoint) {
  const Ray ray{{0, 0, 0}, {0, 0, 1}};
  const Real t = ray_sphere(ray, {0, 0, 0}, 2.0f, 0, 100);
  EXPECT_NEAR(t, 2.0f, 1e-4);
}

TEST(SphereBVH, EmptyBuild) {
  const SphereBVH bvh;
  EXPECT_TRUE(bvh.empty());
  cluster::PerfCounters counters;
  const SphereHit hit = bvh.intersect({{0, 0, 0}, {0, 0, 1}}, 0, 100, counters);
  EXPECT_FALSE(hit.valid());
}

TEST(SphereBVH, SingleSphere) {
  const std::vector<Vec3f> centers{{0, 0, 5}};
  const SphereBVH bvh(centers, 1.0f);
  bvh.validate(centers);
  cluster::PerfCounters counters;
  const SphereHit hit = bvh.intersect({{0, 0, 0}, {0, 0, 1}}, 0.01f, 100, counters);
  ASSERT_TRUE(hit.valid());
  EXPECT_EQ(hit.primitive, 0);
  EXPECT_NEAR(hit.t, 4.0f, 1e-4);
  EXPECT_NEAR(hit.normal.z, -1.0f, 1e-4);
}

class BvhPropertyTest
    : public ::testing::TestWithParam<std::tuple<Index, SphereBVH::SplitMethod, int>> {};

TEST_P(BvhPropertyTest, StructuralInvariantsHold) {
  const auto [n, split, leaf] = GetParam();
  const auto centers = random_centers(n, 100 + static_cast<std::uint64_t>(n));
  const SphereBVH bvh(centers, 0.3f, split, leaf);
  EXPECT_EQ(bvh.num_primitives(), n);
  bvh.validate(centers); // coverage + containment invariants
  EXPECT_GE(bvh.max_depth(), 1);
  EXPECT_LE(bvh.max_depth(), 64);
}

TEST_P(BvhPropertyTest, HitsMatchBruteForce) {
  const auto [n, split, leaf] = GetParam();
  const auto centers = random_centers(n, 5000 + static_cast<std::uint64_t>(n));
  const Real radius = 0.4f;
  const SphereBVH bvh(centers, radius, split, leaf);
  Rng rng(321);
  cluster::PerfCounters counters;
  for (int trial = 0; trial < 100; ++trial) {
    const Ray ray{rng.point_in_box({-15, -15, -15}, {15, 15, 15}), rng.unit_vector()};
    const SphereHit fast = bvh.intersect(ray, 0.001f, 1000, counters);
    const SphereHit slow = brute_force(ray, centers, radius, 0.001f, 1000);
    ASSERT_EQ(fast.valid(), slow.valid());
    if (fast.valid()) {
      EXPECT_NEAR(fast.t, slow.t, 1e-3);
      EXPECT_EQ(fast.primitive, slow.primitive);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesSplitsLeaves, BvhPropertyTest,
    ::testing::Combine(::testing::Values<Index>(1, 2, 7, 64, 500),
                       ::testing::Values(SphereBVH::SplitMethod::kBinnedSAH,
                                         SphereBVH::SplitMethod::kMedian),
                       ::testing::Values(1, 4, 16)));

TEST(SphereBVH, DuplicateCentersHandled) {
  // All centroids identical: the degenerate-split path must terminate.
  std::vector<Vec3f> centers(50, Vec3f{1, 1, 1});
  const SphereBVH bvh(centers, 0.5f, SphereBVH::SplitMethod::kBinnedSAH, 4);
  bvh.validate(centers);
  cluster::PerfCounters counters;
  const SphereHit hit = bvh.intersect({{1, 1, -5}, {0, 0, 1}}, 0.01f, 100, counters);
  EXPECT_TRUE(hit.valid());
  EXPECT_NEAR(hit.t, 5.5f, 1e-3);
}

// Layout golden: the tree the builder emits is pinned, not just its
// invariants, so a rewrite of the build must reproduce it node for node.
// Per input the root bounds are pinned as bit patterns; per (input,
// split, leaf size) the node count, the depth and an XXH64 over a 64x64
// ray fan: each ray's (primitive, bits of t), then the summed
// bvh_nodes_visited. The ±0 input is here because a centroid box built
// from bin unions may pick the other zero than one built point by point.
struct LayoutInput {
  const char* name;
  std::vector<Vec3f> centers;
  Real radius;
};

std::vector<LayoutInput> layout_inputs() {
  std::vector<LayoutInput> inputs;
  inputs.push_back({"random20k", random_centers(20000, 4242), 0.05f});
  sim::HaccParams hacc;
  hacc.num_particles = 50000;
  hacc.seed = 99;
  const auto points = sim::generate_hacc(hacc);
  inputs.push_back({"hacc50k",
                    {points->positions().begin(), points->positions().end()},
                    0.2f});
  inputs.push_back({"duplicates", std::vector<Vec3f>(300, Vec3f{2, -1, 3}), 0.5f});
  std::vector<Vec3f> coplanar = random_centers(3000, 17);
  for (Vec3f& c : coplanar) c.z = 0;
  inputs.push_back({"coplanar", std::move(coplanar), 0.1f});
  // Every coordinate drawn from {+0, -0, ±1, ±2.5, uniform}: the zeros
  // of both signs land in the same bins and the same children, and the
  // many exact duplicates make the reported primitive depend on the
  // order of the spheres inside a leaf.
  std::vector<Vec3f> zeros(2000);
  Rng rng(7);
  const Real picks[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.5f, -2.5f};
  for (Vec3f& c : zeros)
    for (int a = 0; a < 3; ++a) {
      const auto k = rng.uniform_index(8);
      c[a] = k < 6 ? picks[k] : Real(rng.uniform(-3, 3));
    }
  inputs.push_back({"signed_zeros", std::move(zeros), 0.25f});
  inputs.push_back({"one", {Vec3f{0.5f, -0.25f, 4}}, 1.0f});
  inputs.push_back({"two", {Vec3f{-1, 0, 0}, Vec3f{1, 0.5f, 0}}, 0.75f});
  return inputs;
}

std::uint64_t ray_fan_digest(const SphereBVH& bvh) {
  const AABB box = bvh.bounds();
  const Vec3f e = box.extent();
  const Vec3f origin = box.center() - Vec3f{0.1f * e.x, 0.2f * e.y, 2 * e.z + 1};
  Fingerprinter fp;
  cluster::PerfCounters counters;
  constexpr int kFan = 64;
  for (int j = 0; j < kFan; ++j)
    for (int i = 0; i < kFan; ++i) {
      const Vec3f target{box.lo.x + e.x * (Real(i) + 0.5f) / kFan,
                         box.lo.y + e.y * (Real(j) + 0.5f) / kFan, box.center().z};
      const Ray ray{origin, normalize(target - origin)};
      const SphereHit hit = bvh.intersect(ray, 1e-3f, 1e6f, counters);
      const std::int64_t prim = hit.primitive;
      const std::uint32_t t_bits = std::bit_cast<std::uint32_t>(hit.t);
      fp.update(&prim, sizeof(prim));
      fp.update(&t_bits, sizeof(t_bits));
    }
  const std::int64_t visited = counters.bvh_nodes_visited;
  fp.update(&visited, sizeof(visited));
  return fp.digest();
}

struct LayoutPin {
  const char* input;
  SphereBVH::SplitMethod split;
  int leaf;
  Index nodes;
  int depth;
  std::uint64_t fan;
};

struct BoundsPin {
  const char* input;
  std::uint32_t bits[6]; ///< lo.x lo.y lo.z hi.x hi.y hi.z
};

constexpr auto kSah = SphereBVH::SplitMethod::kBinnedSAH;
constexpr auto kMed = SphereBVH::SplitMethod::kMedian;

// clang-format off
constexpr BoundsPin kBoundsPins[] = {
    {"random20k", {0xc120ccac, 0xc120c470, 0xc120ca99, 0x4120c8f8, 0x4120cc19, 0x4120c4e1}},
    {"hacc50k", {0xbe4ac6cd, 0xbe4b2264, 0xbe4be6dc, 0x42c86630, 0x42c8656e, 0x42c86434}},
    {"duplicates", {0x3fc00000, 0xbfc00000, 0x40200000, 0x40200000, 0xbf000000, 0x40600000}},
    {"coplanar", {0xc121676e, 0xc1218982, 0xbdcccccd, 0x4121637c, 0x412183f5, 0x3dcccccd}},
    {"signed_zeros", {0xc04eb3ee, 0xc04f31ef, 0xc04e2e53, 0x404f8b16, 0x404f7b46, 0x404fcd5c}},
    {"one", {0xbf000000, 0xbfa00000, 0x40400000, 0x3fc00000, 0x3f400000, 0x40a00000}},
    {"two", {0xbfe00000, 0xbf400000, 0xbf400000, 0x3fe00000, 0x3fa00000, 0x3f400000}},
};

constexpr LayoutPin kLayoutPins[] = {
    {"random20k", kSah, 1, 39999, 18, 0xa92d3c6449aad9b8ull},
    {"random20k", kSah, 4, 13429, 16, 0x1b5cb140bdcd0faaull},
    {"random20k", kSah, 16, 3679, 13, 0x7dcb94dcaaa1a33full},
    {"random20k", kMed, 1, 39999, 16, 0xdef467772a8760d2ull},
    {"random20k", kMed, 4, 15423, 14, 0xb8988eae0c06c672ull},
    {"random20k", kMed, 16, 4095, 12, 0x984f4766a22fbb25ull},
    {"hacc50k", kSah, 1, 99999, 25, 0x47819ba6747e4e2aull},
    {"hacc50k", kSah, 4, 33707, 23, 0xf4ed4d6eca1a6dc4ull},
    {"hacc50k", kSah, 16, 9249, 19, 0xc73b82f246ea7041ull},
    {"hacc50k", kMed, 1, 99999, 17, 0xe767082a892af122ull},
    {"hacc50k", kMed, 4, 32767, 15, 0xe900ac8077abd2d6ull},
    {"hacc50k", kMed, 16, 8191, 13, 0x00e23771ff4cd500ull},
    {"duplicates", kSah, 1, 1, 1, 0xe36c7b1d4761a419ull},
    {"duplicates", kSah, 4, 1, 1, 0xe36c7b1d4761a419ull},
    {"duplicates", kSah, 16, 1, 1, 0xe36c7b1d4761a419ull},
    {"duplicates", kMed, 1, 1, 1, 0xe36c7b1d4761a419ull},
    {"duplicates", kMed, 4, 1, 1, 0xe36c7b1d4761a419ull},
    {"duplicates", kMed, 16, 1, 1, 0xe36c7b1d4761a419ull},
    {"coplanar", kSah, 1, 5999, 15, 0x3f951a69a9f2a57bull},
    {"coplanar", kSah, 4, 2021, 13, 0x4963cb95d7555550ull},
    {"coplanar", kSah, 16, 529, 10, 0x207942fcad324fe7ull},
    {"coplanar", kMed, 1, 5999, 13, 0xd5ae5e08690a3a9aull},
    {"coplanar", kMed, 4, 2047, 11, 0x448622f9e7884716ull},
    {"coplanar", kMed, 16, 511, 9, 0x9f94debb953ce2f1ull},
    {"signed_zeros", kSah, 1, 2503, 16, 0x85e09466ca108e27ull},
    {"signed_zeros", kSah, 4, 1311, 15, 0x213d75e13067af7cull},
    {"signed_zeros", kSah, 16, 429, 15, 0xf597df0631e94fb3ull},
    {"signed_zeros", kMed, 1, 3513, 12, 0xea225206059bbc05ull},
    {"signed_zeros", kMed, 4, 1023, 10, 0x27db07fba3ba3a62ull},
    {"signed_zeros", kMed, 16, 255, 8, 0x8f5acca2a54d3854ull},
    {"one", kSah, 1, 1, 1, 0x7cddb70e71c21164ull},
    {"one", kSah, 4, 1, 1, 0x7cddb70e71c21164ull},
    {"one", kSah, 16, 1, 1, 0x7cddb70e71c21164ull},
    {"one", kMed, 1, 1, 1, 0x7cddb70e71c21164ull},
    {"one", kMed, 4, 1, 1, 0x7cddb70e71c21164ull},
    {"one", kMed, 16, 1, 1, 0x7cddb70e71c21164ull},
    {"two", kSah, 1, 3, 2, 0xb1aecb25c1f6b857ull},
    {"two", kSah, 4, 1, 1, 0xe0c319063296ec4bull},
    {"two", kSah, 16, 1, 1, 0xe0c319063296ec4bull},
    {"two", kMed, 1, 3, 2, 0xb1aecb25c1f6b857ull},
    {"two", kMed, 4, 1, 1, 0xe0c319063296ec4bull},
    {"two", kMed, 16, 1, 1, 0xe0c319063296ec4bull},
};
// clang-format on

TEST(SphereBVH, LayoutGolden) {
  std::size_t checked = 0;
  for (const LayoutInput& in : layout_inputs()) {
    const BoundsPin* bounds_pin = nullptr;
    for (const BoundsPin& pin : kBoundsPins)
      if (std::string_view(pin.input) == in.name) bounds_pin = &pin;
    for (const auto split : {kSah, kMed})
      for (const int leaf : {1, 4, 16}) {
        const SphereBVH bvh(in.centers, in.radius, split, leaf);
        bvh.validate(in.centers);
        const AABB b = bvh.bounds();
        const Real box[6] = {b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z};
        const Index nodes = bvh.num_nodes();
        const int depth = bvh.max_depth();
        const std::uint64_t fan = ray_fan_digest(bvh);
        const char* split_name = split == kSah ? "kSah" : "kMed";
        char line[160];
        if (bounds_pin == nullptr) {
          std::string row = std::string("{\"") + in.name + "\", {";
          for (int k = 0; k < 6; ++k) {
            std::snprintf(line, sizeof line, "0x%08x%s", std::bit_cast<std::uint32_t>(box[k]),
                          k < 5 ? ", " : "}},");
            row += line;
          }
          ADD_FAILURE() << "unpinned bounds: " << row;
        } else {
          for (int k = 0; k < 6; ++k)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(box[k]), bounds_pin->bits[k])
                << in.name << " bounds[" << k << "]";
        }
        const LayoutPin* pin = nullptr;
        for (const LayoutPin& p : kLayoutPins)
          if (std::string_view(p.input) == in.name && p.split == split && p.leaf == leaf)
            pin = &p;
        if (pin == nullptr) {
          std::snprintf(line, sizeof line, "{\"%s\", %s, %d, %lld, %d, 0x%016llxull},",
                        in.name, split_name, leaf, static_cast<long long>(nodes), depth,
                        static_cast<unsigned long long>(fan));
          ADD_FAILURE() << "unpinned layout: " << line;
          continue;
        }
        EXPECT_EQ(nodes, pin->nodes) << in.name << " " << split_name << " leaf " << leaf;
        EXPECT_EQ(depth, pin->depth) << in.name << " " << split_name << " leaf " << leaf;
        EXPECT_EQ(fan, pin->fan) << in.name << " " << split_name << " leaf " << leaf;
        ++checked;
      }
  }
  EXPECT_EQ(checked, std::size(kLayoutPins));
}

TEST(SphereBVH, TraversalIsSubLinear) {
  // The paper's cost claim: per-ray work is sub-linear in particle
  // count. Measure nodes visited per ray at two sizes.
  const Real radius = 0.1f;
  cluster::PerfCounters small_counters, large_counters;
  const auto small = random_centers(1000, 1);
  const auto large = random_centers(16000, 2);
  const SphereBVH bvh_small(small, radius);
  const SphereBVH bvh_large(large, radius);
  Rng rng(9);
  const int rays = 200;
  for (int i = 0; i < rays; ++i) {
    const Ray ray{rng.point_in_box({-15, -15, -15}, {-12, 15, 15}),
                  normalize(Vec3f{1, Real(rng.uniform(-0.3, 0.3)),
                                  Real(rng.uniform(-0.3, 0.3))})};
    bvh_small.intersect(ray, 0.001f, 1000, small_counters);
    bvh_large.intersect(ray, 0.001f, 1000, large_counters);
  }
  const double visits_small = double(small_counters.bvh_nodes_visited) / rays;
  const double visits_large = double(large_counters.bvh_nodes_visited) / rays;
  // 16x the primitives must NOT mean 16x the visits; logarithmic-ish.
  EXPECT_LT(visits_large / visits_small, 6.0);
}

TEST(SphereBVH, CountersAccumulateVisits) {
  const auto centers = random_centers(100, 77);
  const SphereBVH bvh(centers, 0.5f);
  cluster::PerfCounters counters;
  bvh.intersect({{0, 0, -20}, {0, 0, 1}}, 0.01f, 100, counters);
  EXPECT_GT(counters.bvh_nodes_visited, 0);
}

TEST(SphereBVH, RejectsBadParameters) {
  const auto centers = random_centers(10, 3);
  EXPECT_THROW(SphereBVH(centers, -1.0f), Error);
  EXPECT_THROW(SphereBVH(centers, 1.0f, SphereBVH::SplitMethod::kBinnedSAH, 0), Error);
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity()}) {
    auto poisoned = centers;
    poisoned[4].y = bad;
    EXPECT_THROW(SphereBVH(poisoned, 1.0f), Error);
  }
}

} // namespace
} // namespace eth
