#include "sim/xrage_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace eth::sim {
namespace {

constexpr const char* kFields[] = {"temperature", "density", "pressure"};

// Pointwise reference for generate_xrage_block: the per-point lattice
// hash, trilinear value noise and 4-octave fbm that the generator
// replaces with per-block hash tables. The generator must reproduce
// these fields bit for bit.
Real ref_lattice_noise(std::uint64_t seed, Index i, Index j, Index k) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1)) ^
                (0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(j + 1)) ^
                (0x94D049BB133111EBull * static_cast<std::uint64_t>(k + 1)));
  return Real(double(sm.next() >> 11) * 0x1.0p-53);
}

Real ref_value_noise(std::uint64_t seed, Vec3f p) {
  const auto fi = static_cast<Index>(std::floor(p.x));
  const auto fj = static_cast<Index>(std::floor(p.y));
  const auto fk = static_cast<Index>(std::floor(p.z));
  const Real fx = p.x - Real(fi), fy = p.y - Real(fj), fz = p.z - Real(fk);
  const auto s = [&](Index di, Index dj, Index dk) {
    return ref_lattice_noise(seed, fi + di, fj + dj, fk + dk);
  };
  const Real c00 = lerp(s(0, 0, 0), s(1, 0, 0), fx);
  const Real c10 = lerp(s(0, 1, 0), s(1, 1, 0), fx);
  const Real c01 = lerp(s(0, 0, 1), s(1, 0, 1), fx);
  const Real c11 = lerp(s(0, 1, 1), s(1, 1, 1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

Real ref_fbm(std::uint64_t seed, Vec3f p) {
  Real sum = 0, amp = Real(0.5);
  Real norm = 0;
  for (int octave = 0; octave < 4; ++octave) {
    sum += amp * ref_value_noise(seed + static_cast<std::uint64_t>(octave) * 7919u, p);
    norm += amp;
    p = p * Real(2.03);
    amp *= Real(0.5);
  }
  return sum / norm;
}

/// Temperature, density and pressure of block [lo, hi), x fastest.
/// Adds the number of points that take the plume branch to `plume_points`.
std::vector<std::vector<Real>> ref_block(const XrageParams& p, Vec3i lo, Vec3i hi,
                                         Index& plume_points) {
  const Real spacing_val = p.domain_size / Real(p.dims.x - 1);
  const Vec3i dims{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  const auto n = static_cast<std::size_t>(dims.x * dims.y * dims.z);
  std::vector<std::vector<Real>> fields(3, std::vector<Real>(n));
  const Real sx = p.domain_size * Real(0.5);
  const Real sy = Real(0);
  const Real sz = spacing_val * Real(p.dims.z - 1) * Real(0.5);
  const Real t = Real(1) + Real(p.timestep);
  const Real shock_radius = Real(0.9) * std::sqrt(t) * p.domain_size * Real(0.08);
  const Real shock_width = shock_radius * Real(0.25);
  const Real plume_height = p.domain_size * Real(0.06) * t;
  const Real noise_scale = Real(6) / p.domain_size;
  std::size_t idx = 0;
  for (Index k = 0; k < dims.z; ++k)
    for (Index j = 0; j < dims.y; ++j)
      for (Index i = 0; i < dims.x; ++i, ++idx) {
        const Vec3f pos{spacing_val * Real(lo.x + i), spacing_val * Real(lo.y + j),
                        spacing_val * Real(lo.z + k)};
        const Vec3f rel{pos.x - sx, pos.y - sy, pos.z - sz};
        const Real r = length(rel);
        Real temp = Real(0.08) * (Real(1) - pos.y / (p.domain_size * Real(0.6)));
        temp = std::max(temp, Real(0.02));
        const Real core = std::exp(-(r * r) / (shock_radius * shock_radius * Real(0.18)));
        temp += Real(0.85) * core;
        const Real shell = std::exp(-((r - shock_radius) * (r - shock_radius)) /
                                    (2 * shock_width * shock_width));
        temp += Real(0.45) * shell;
        const Real horiz2 = rel.x * rel.x + rel.z * rel.z;
        const Real plume_r = shock_radius * Real(0.5) *
                             (Real(0.4) + Real(0.6) * pos.y / std::max(plume_height, Real(1e-3)));
        if (pos.y > 0 && pos.y < plume_height && horiz2 < plume_r * plume_r) {
          ++plume_points;
          const Real nz = ref_fbm(p.seed, pos * noise_scale + Vec3f{0, t * Real(0.7), 0});
          temp += Real(0.35) * nz * (Real(1) - pos.y / plume_height);
        }
        const Real rough = ref_fbm(p.seed + 1, pos * noise_scale * Real(2));
        temp *= Real(0.9) + Real(0.2) * rough;
        temp = clamp(temp, Real(0), Real(1));
        fields[0][idx] = temp;
        fields[1][idx] = clamp(Real(1.2) - temp + Real(0.3) * shell, Real(0.05), Real(2));
        fields[2][idx] = clamp(temp * (Real(0.8) + Real(0.4) * core), Real(0), Real(2));
      }
  return fields;
}

/// True when every field of `block` (covering [lo, hi) of `full`'s
/// index space) equals that region of `full` bit for bit.
bool block_matches_region(const StructuredGrid& block, const StructuredGrid& full, Vec3i lo) {
  const Vec3i d = block.dims();
  for (const char* name : kFields) {
    const std::span<const Real> b = block.point_fields().get(name).values();
    const std::span<const Real> f = full.point_fields().get(name).values();
    for (Index k = 0; k < d.z; ++k)
      for (Index j = 0; j < d.y; ++j) {
        const Real* brow = b.data() + block.point_index(0, j, k);
        const Real* frow = f.data() + full.point_index(lo.x, lo.y + j, lo.z + k);
        if (std::memcmp(brow, frow, static_cast<std::size_t>(d.x) * sizeof(Real)) != 0)
          return false;
      }
  }
  return true;
}

TEST(XrageGenerator, ProblemSizesMatchPaperRatios) {
  const auto s = XrageParams::small_problem();
  const auto m = XrageParams::medium_problem();
  const auto l = XrageParams::large_problem();
  // Paper: small 610x375x320, medium 1280x750x640, large 1840x1120x960
  // at 1/8 per axis. Check the ~27x total span (paper: "a 27-fold
  // increase in problem size").
  const auto cells = [](Vec3i d) { return double(d.x) * double(d.y) * double(d.z); };
  EXPECT_NEAR(cells(l.dims) / cells(s.dims), 27.0, 8.0);
  EXPECT_NEAR(cells(m.dims) / cells(s.dims), 8.0, 3.0);
}

TEST(XrageGenerator, FieldsPresentAndNormalized) {
  XrageParams p;
  p.dims = {24, 20, 16};
  const auto grid = generate_xrage(p);
  EXPECT_EQ(grid->dims(), (Vec3i{24, 20, 16}));
  for (const char* field : {"temperature", "density", "pressure"})
    EXPECT_TRUE(grid->point_fields().has(field));
  const auto [lo, hi] = grid->point_fields().get("temperature").range();
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, 1.0f);
  EXPECT_GT(hi, 0.3f); // the blast is hot
}

TEST(XrageGenerator, DeterministicForSeed) {
  XrageParams p;
  p.dims = {16, 16, 16};
  const auto a = generate_xrage(p);
  const auto b = generate_xrage(p);
  const Field& fa = a->point_fields().get("temperature");
  const Field& fb = b->point_fields().get("temperature");
  for (Index i = 0; i < a->num_points(); ++i) EXPECT_EQ(fa.get(i), fb.get(i));
}

TEST(XrageGenerator, HotCoreNearStrikePoint) {
  XrageParams p;
  p.dims = {32, 24, 24};
  p.timestep = 2;
  const auto grid = generate_xrage(p);
  const Field& t = grid->point_fields().get("temperature");
  const AABB box = grid->bounds();
  // Strike point: mid-x, y=0 (ground), mid-z.
  const Vec3f strike{box.center().x, 0, box.center().z};
  const Vec3f far_corner = box.hi;
  EXPECT_GT(grid->sample(t, strike), grid->sample(t, far_corner) + 0.2f);
}

TEST(XrageGenerator, ShockExpandsWithTime) {
  XrageParams p;
  p.dims = {32, 24, 24};
  const auto measure_hot_extent = [&](Index timestep) {
    XrageParams q = p;
    q.timestep = timestep;
    const auto grid = generate_xrage(q);
    const Field& t = grid->point_fields().get("temperature");
    Index hot = 0;
    for (const Real v : t.values())
      if (v > 0.5f) ++hot;
    return hot;
  };
  // The heated region grows as the blast develops.
  EXPECT_GT(measure_hot_extent(8), measure_hot_extent(0));
}

TEST(XrageGenerator, BlockEqualsFullGridRegion) {
  XrageParams p;
  p.dims = {20, 16, 12};
  const auto full = generate_xrage(p);
  const auto block = generate_xrage_block(p, {4, 2, 3}, {12, 10, 9});
  EXPECT_EQ(block->dims(), (Vec3i{8, 8, 6}));
  EXPECT_TRUE(block_matches_region(*block, *full, {4, 2, 3}));
  // Noise tables are built per block, so every share of a partitioned
  // run must still equal its region of the full grid, in every field.
  for (const int parts : {4, 8})
    for (int share = 0; share < parts; ++share) {
      const auto [lo, hi] = grid_block_range(p.dims, share, parts);
      const auto b = generate_xrage_block(p, lo, hi);
      EXPECT_TRUE(block_matches_region(*b, *full, lo))
          << "parts " << parts << " share " << share;
    }
}

TEST(XrageGenerator, TabledNoiseMatchesPointwiseReference) {
  Index plume_points = 0;
  const auto expect_matches = [&](const XrageParams& p, Vec3i lo, Vec3i hi) {
    const auto grid = generate_xrage_block(p, lo, hi);
    const auto ref = ref_block(p, lo, hi, plume_points);
    for (std::size_t f = 0; f < 3; ++f) {
      const std::span<const Real> got = grid->point_fields().get(kFields[f]).values();
      ASSERT_EQ(got.size(), ref[f].size());
      EXPECT_EQ(std::memcmp(got.data(), ref[f].data(), got.size() * sizeof(Real)), 0)
          << kFields[f] << " dims " << p.dims.x << "x" << p.dims.y << "x" << p.dims.z
          << " block [" << lo.x << "," << lo.y << "," << lo.z << ")-[" << hi.x << ","
          << hi.y << "," << hi.z << ") t " << p.timestep << " seed " << p.seed;
    }
  };
  // On the 8^3 grid neighbouring indices skip lattice cells in the high
  // octaves, so the compact per-axis slots have gaps. Timestep 8 lifts
  // the plume through many rows; the odd-width blocks leave a row tail
  // that no 4- or 8-lane vector loop covers whole.
  for (const Vec3i dims : {Vec3i{8, 8, 8}, Vec3i{37, 23, 19}, XrageParams::small_problem().dims})
    for (const Index timestep : {0, 2, 8})
      for (const std::uint64_t seed : {99ull, 7919ull}) {
        XrageParams p;
        p.dims = dims;
        p.timestep = timestep;
        p.seed = seed;
        for (const int parts : {1, 4, 8})
          for (int share = 0; share < parts; ++share) {
            const auto [lo, hi] = grid_block_range(dims, share, parts);
            expect_matches(p, lo, hi);
          }
        expect_matches(p, {1, 0, 2}, {dims.x, dims.y - 1, dims.z}); // width dims.x - 1
        expect_matches(p, {2, 1, 1}, {7, dims.y, 6});               // width 5
      }
  EXPECT_GT(plume_points, 0);
}

TEST(BlockFactorization, NearCubicAndComplete) {
  const Vec3i f = block_factorization({200, 200, 200}, 8);
  EXPECT_EQ(f.x * f.y * f.z, 8);
  EXPECT_EQ(f, (Vec3i{2, 2, 2}));
  const Vec3i f216 = block_factorization({230, 140, 120}, 216);
  EXPECT_EQ(f216.x * f216.y * f216.z, 216);
  // No block thinner than 2 points.
  EXPECT_GE(230 / f216.x, 2);
  EXPECT_GE(140 / f216.y, 2);
  EXPECT_GE(120 / f216.z, 2);
  // Prime part counts factor correctly.
  const Vec3i f7 = block_factorization({100, 100, 100}, 7);
  EXPECT_EQ(f7.x * f7.y * f7.z, 7);
}

TEST(BlockFactorization, ImpossibleSplitsThrow) {
  EXPECT_THROW(block_factorization({2, 2, 2}, 64), Error);
}

TEST(GridBlockRange, CoversGridWithOverlap) {
  const Vec3i dims{20, 16, 12};
  const int parts = 8;
  std::vector<char> covered(static_cast<std::size_t>(dims.x * dims.y * dims.z), 0);
  for (int share = 0; share < parts; ++share) {
    const auto [lo, hi] = grid_block_range(dims, share, parts);
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(lo[a], 0);
      EXPECT_LE(hi[a], dims[a]);
      EXPECT_GE(hi[a] - lo[a], 2);
    }
    for (Index k = lo.z; k < hi.z; ++k)
      for (Index j = lo.y; j < hi.y; ++j)
        for (Index i = lo.x; i < hi.x; ++i)
          covered[static_cast<std::size_t>(i + dims.x * (j + dims.y * k))] = 1;
  }
  for (const char c : covered) EXPECT_EQ(c, 1);
}

TEST(XrageGenerator, RejectsBadBlocksAndParams) {
  XrageParams p;
  p.dims = {8, 8, 8};
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {1, 8, 8}), Error); // too thin
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {9, 8, 8}), Error); // out of range
  EXPECT_THROW(generate_xrage_block(p, {-1, 0, 0}, {4, 4, 4}), Error);
  p.dims = {1, 8, 8};
  EXPECT_THROW(generate_xrage(p), Error);
  p = XrageParams{};
  p.domain_size = 0;
  EXPECT_THROW(generate_xrage(p), Error);
}

} // namespace
} // namespace eth::sim
