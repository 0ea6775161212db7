// SimdGate (DESIGN.md §14): the SIMD kernel table promises output
// bit-identical to the scalar loop it replaces — not "close", equal
// under memcmp. Two layers enforce it here:
//
//  1. Kernel unit vectors: every table (w4 always, w8 when the build
//     has AVX2) runs the BVH leaf kernel against a scalar replica of
//     the call site's loop on inputs chosen to hit the hard cases —
//     tail elements (n not a multiple of the width), misses, roots
//     behind the origin and NaN centers that an unordered compare
//     would accept.
//
//  2. Full-harness mini-sweeps: HACC and xRAGE configurations run
//     end-to-end under ETH_SIMD=scalar and native at 1 and 8 pool
//     threads; final images memcmp-equal and every deterministic
//     counter identical per thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/simd.hpp"
#include "common/simd_kernels.hpp"
#include "common/string_util.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"
#include "render/ray/bvh.hpp"

#include "../metric_checks.hpp"

namespace eth {
namespace {

/// Pin the dispatched ISA for one scope; restores the ETH_SIMD
/// environment resolution on exit.
class ScopedIsa {
public:
  explicit ScopedIsa(const char* name) { simd::set_isa_override(name); }
  ~ScopedIsa() { simd::set_isa_override(nullptr); }

  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

/// Swap the global pool for one with `threads` workers for this scope.
class ScopedPool {
public:
  explicit ScopedPool(unsigned threads) : pool_(threads) { set_global_pool(&pool_); }
  ~ScopedPool() { set_global_pool(nullptr); }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

/// Every vector table this build provides (unit vectors run against
/// each so AVX2 coverage does not depend on the dispatch default).
std::vector<const simd::KernelTable*> vector_tables() {
  std::vector<const simd::KernelTable*> tables{simd::kernels_w4()};
  if (simd::kernels_w8() != nullptr) tables.push_back(simd::kernels_w8());
  return tables;
}

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

constexpr float kQnan = std::numeric_limits<float>::quiet_NaN();

TEST(SimdGateDispatch, TablesResolveAndLabel) {
  const simd::KernelTable* w4 = simd::kernels_w4();
  ASSERT_NE(w4, nullptr);
  EXPECT_EQ(w4->width, 4);
  if (const simd::KernelTable* w8 = simd::kernels_w8()) {
    EXPECT_EQ(w8->width, 8);
    EXPECT_STREQ(w8->name, "avx2");
  }
  {
    ScopedIsa scalar("scalar");
    EXPECT_EQ(simd::active_kernels(), nullptr);
    EXPECT_EQ(simd::isa_label(), "scalar");
  }
  {
    // `native` always lands on a vector table: the w4 reference build
    // exists on every platform.
    ScopedIsa native("native");
    const simd::KernelTable* table = simd::active_kernels();
    ASSERT_NE(table, nullptr);
    EXPECT_TRUE(table->width == 4 || table->width == 8);
    EXPECT_EQ(simd::isa_label(), std::string(table->name));
  }
}

// ------------------------------------------------------------ leaf batch

TEST(SimdGateKernels, LeafIntersectMatchesScalarLoop) {
  // 11 spheres: tail for both widths. Mix of hits, misses (disc < 0),
  // behind-origin roots, a ray-starts-inside case and a NaN center
  // (scalar: NaN t fails `t > 0`; vector: NaN disc fails the ordered
  // `disc >= 0` — both reject).
  const std::int64_t n = 11;
  const float radius = 0.5f;
  const Ray ray{{0, 0, -5}, {0, 0, 1}};
  const float tmin = 0.1f, tmax = 100.0f;
  std::vector<Vec3f> centers = {
      {0, 0, 0},      {0.2f, 0.1f, 2},  {5, 5, 5},      {0, 0, -20},
      {0.45f, 0, 1},  {0, 0, -4.8f},    {kQnan, 0, 3},  {0, 0.2f, 4},
      {0, 0, 0.001f}, {-0.3f, 0.3f, 6}, {0.1f, -0.1f, 8}};
  std::vector<float> cx(n), cy(n), cz(n);
  for (std::int64_t i = 0; i < n; ++i) {
    cx[i] = centers[std::size_t(i)].x;
    cy[i] = centers[std::size_t(i)].y;
    cz[i] = centers[std::size_t(i)].z;
  }

  // Scalar replica of the SphereBVH leaf loop.
  float ref_closest = tmax;
  std::int64_t ref_slot = -1;
  const std::int64_t base = 32;
  for (std::int64_t i = 0; i < n; ++i) {
    const Real t = ray_sphere(ray, centers[std::size_t(i)], radius, tmin, ref_closest);
    if (t > 0) {
      ref_closest = t;
      ref_slot = base + i;
    }
  }
  ASSERT_GE(ref_slot, 0) << "test scene must produce a hit";

  for (const simd::KernelTable* table : vector_tables()) {
    float closest = tmax;
    std::int64_t slot = -1;
    table->leaf_intersect(cx.data(), cy.data(), cz.data(), n, base, ray.origin.x,
                          ray.origin.y, ray.origin.z, ray.direction.x,
                          ray.direction.y, ray.direction.z, radius, tmin, closest,
                          slot);
    EXPECT_TRUE(bits_equal(&closest, &ref_closest, 1)) << table->name;
    EXPECT_EQ(slot, ref_slot) << table->name;
  }

  // All-miss batch: (closest, slot) must come back untouched.
  std::vector<float> fx(n, 50.0f), fy(n, 50.0f), fz(n, 50.0f);
  for (const simd::KernelTable* table : vector_tables()) {
    float closest = tmax;
    std::int64_t slot = -1;
    table->leaf_intersect(fx.data(), fy.data(), fz.data(), n, 0, ray.origin.x,
                          ray.origin.y, ray.origin.z, ray.direction.x,
                          ray.direction.y, ray.direction.z, radius, tmin, closest,
                          slot);
    EXPECT_EQ(closest, tmax) << table->name;
    EXPECT_EQ(slot, -1) << table->name;
  }
}

// ------------------------------------------------- full-harness sweeps

/// Keep the artifact cache out of the comparison: a cached BVH or
/// minmax artifact produced under one ISA would be replayed under the
/// other and mask a divergence.
class CacheOffGuard {
public:
  CacheOffGuard() : was_enabled_(global_artifact_cache().enabled()) {
    global_artifact_cache().set_enabled(false);
    global_artifact_cache().clear();
  }
  ~CacheOffGuard() {
    global_artifact_cache().set_enabled(was_enabled_);
    global_artifact_cache().clear();
  }

private:
  bool was_enabled_;
};

ExperimentSpec hacc_spec() {
  ExperimentSpec spec;
  spec.name = "simd-gate-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2500;
  spec.hacc.num_halos = 6;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 2;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

ExperimentSpec xrage_spec() {
  ExperimentSpec spec;
  spec.name = "simd-gate-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {18, 14, 12};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.volume_acceleration = true; // minmax skip path in the march
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

std::vector<SweepPoint> sampling_sweep(const ExperimentSpec& base) {
  // ratio 0.5 routes the grid/point data through SpatialSampler.
  return sweep_over<double>(
      base, {1.0, 0.5},
      [](const double& r) { return strprintf("s%.2f", r); },
      [](const double& r, ExperimentSpec& spec) { spec.viz.sampling_ratio = r; });
}

/// Run the sweep under ETH_SIMD=scalar and native at each thread count;
/// per thread count the scalar run is the golden reference the native
/// run must reproduce bit for bit.
void expect_simd_equivalence(const ExperimentSpec& base) {
  CacheOffGuard cache_off;
  const std::vector<SweepPoint> points = sampling_sweep(base);
  const Harness harness;

  for (const unsigned threads : {1u, 8u}) {
    ScopedPool pool(threads);

    std::vector<SweepOutcome> scalar_run, native_run;
    {
      ScopedIsa isa("scalar");
      scalar_run = run_sweep(harness, points);
    }
    {
      ScopedIsa isa("native");
      native_run = run_sweep(harness, points);
    }

    ASSERT_EQ(scalar_run.size(), native_run.size());
    for (std::size_t i = 0; i < scalar_run.size(); ++i) {
      const std::string what = base.name + " point " + scalar_run[i].label +
                               " at " + std::to_string(threads) + " threads";
      ASSERT_TRUE(scalar_run[i].result.final_image.has_value()) << what;
      ASSERT_TRUE(native_run[i].result.final_image.has_value()) << what;
      const auto golden = pack_image(*scalar_run[i].result.final_image);
      const auto native = pack_image(*native_run[i].result.final_image);
      ASSERT_EQ(golden.size(), native.size()) << what;
      EXPECT_EQ(std::memcmp(golden.data(), native.data(), golden.size()), 0)
          << "image differs: " << what;
      expect_deterministic_metrics_identical(scalar_run[i].result.counters,
                                             native_run[i].result.counters, what);
    }

    // Entire robustness tables — frame accounting, cache columns (all
    // zero with the cache disabled) and every other column — match.
    const ResultTable a = robustness_table("point", scalar_run);
    const ResultTable b = robustness_table("point", native_run);
    ASSERT_EQ(a.columns(), b.columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (std::size_t row = 0; row < a.num_rows(); ++row)
      for (std::size_t col = 0; col < a.num_columns(); ++col)
        EXPECT_EQ(a.cell(row, col), b.cell(row, col))
            << base.name << " " << threads << " threads row=" << row
            << " col=" << a.columns()[col];
  }
}

TEST(SimdGateHarness, HaccSphereSweepScalarVsNative) {
  expect_simd_equivalence(hacc_spec());
}

TEST(SimdGateHarness, XrageVolumeSweepScalarVsNative) {
  expect_simd_equivalence(xrage_spec());
}

} // namespace
} // namespace eth
