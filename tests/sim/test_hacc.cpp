#include "sim/hacc_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace eth::sim {
namespace {

// Serial per-particle reference for the parallel generator: one walk of
// the stream that keeps the particles of one slab. The generator must
// reproduce its slabs bit for bit, field for field.
struct RefHalo {
  Vec3f center;
  Real scale;
  Real sigma_v;
};

std::vector<RefHalo> ref_halos(const HaccParams& p) {
  std::vector<RefHalo> halos(static_cast<std::size_t>(p.num_halos));
  Rng rng(derive_seed(p.seed, 0xA105));
  const Real t = Real(p.timestep);
  for (RefHalo& h : halos) {
    const Vec3f base = rng.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
    const Vec3f drift = rng.unit_vector() * Real(rng.uniform(0.05, 0.25));
    Vec3f c = base + drift * t;
    for (int a = 0; a < 3; ++a) c[a] = c[a] - p.box_size * std::floor(c[a] / p.box_size);
    h.center = c;
    const Real contraction = Real(1) / (Real(1) + Real(0.05) * t);
    h.scale = p.halo_scale_radius * Real(rng.uniform(0.5, 1.8)) *
              std::max(contraction, Real(0.6));
    h.sigma_v = Real(rng.uniform(80.0, 250.0));
  }
  return halos;
}

Real ref_plummer_radius(Rng& rng, Real a) {
  const double u = std::max(1e-9, rng.uniform());
  const double r = double(a) / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
  return Real(std::min(r, double(a) * 25.0));
}

std::unique_ptr<PointSet> ref_generate_hacc_rank(const HaccParams& p, int rank, int ranks) {
  const std::vector<RefHalo> halos = ref_halos(p);
  const Real slab_lo = p.box_size * Real(rank) / Real(ranks);
  const Real slab_hi = p.box_size * Real(rank + 1) / Real(ranks);
  auto ps = std::make_unique<PointSet>();
  Field ids("id", 0, 1, FieldAssociation::kPoint);
  Field velocity("velocity", 0, 3, FieldAssociation::kPoint);
  Rng rng(derive_seed(p.seed, 0xBEEF + static_cast<std::uint64_t>(p.timestep)));
  const auto wrap = [&](Vec3f v) {
    for (int a = 0; a < 3; ++a) v[a] = v[a] - p.box_size * std::floor(v[a] / p.box_size);
    return v;
  };
  for (Index i = 0; i < p.num_particles; ++i) {
    Vec3f pos, vel;
    if (rng.uniform() < p.background_fraction) {
      pos = rng.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
      vel = rng.unit_vector() * Real(rng.uniform(10.0, 60.0));
    } else {
      const auto h = static_cast<std::size_t>(
          rng.uniform_index(static_cast<std::uint64_t>(p.num_halos)));
      const RefHalo& halo = halos[h];
      const Real r = ref_plummer_radius(rng, halo.scale);
      pos = wrap(halo.center + rng.unit_vector() * r);
      const Real sigma = halo.sigma_v / std::sqrt(Real(1) + r / halo.scale);
      vel = Vec3f{Real(rng.normal(0.0, sigma)), Real(rng.normal(0.0, sigma)),
                  Real(rng.normal(0.0, sigma))};
    }
    if (pos.x < slab_lo || pos.x >= slab_hi) continue;
    const Index local = ps->num_points();
    ps->push_back(pos);
    ids.resize(local + 1);
    ids.set(local, Real(i));
    velocity.resize(local + 1);
    velocity.set_vec3(local, vel);
  }
  ps->point_fields().add(std::move(ids));
  ps->point_fields().add(std::move(velocity));
  const Field& vel_field = ps->point_fields().get("velocity");
  Field speed("speed", ps->num_points(), 1, FieldAssociation::kPoint);
  for (Index i = 0; i < ps->num_points(); ++i) speed.set(i, length(vel_field.get_vec3(i)));
  ps->point_fields().add(std::move(speed));
  return ps;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Positions and every point field (names, order, bytes) equal.
::testing::AssertionResult identical(const PointSet& got, const PointSet& want) {
  if (!same_bytes(got.positions(), want.positions()))
    return ::testing::AssertionFailure()
           << "positions differ (" << got.num_points() << " vs " << want.num_points()
           << " points)";
  if (got.point_fields().size() != want.point_fields().size())
    return ::testing::AssertionFailure() << "field count differs";
  for (std::size_t f = 0; f < want.point_fields().size(); ++f) {
    const Field& g = got.point_fields().at(f);
    const Field& w = want.point_fields().at(f);
    if (g.name() != w.name() || g.components() != w.components() ||
        !same_bytes(g.values(), w.values()))
      return ::testing::AssertionFailure() << "field " << w.name() << " differs";
  }
  return ::testing::AssertionSuccess();
}

class PoolGuard {
public:
  explicit PoolGuard(unsigned threads) : pool_(threads) { set_global_pool(&pool_); }
  ~PoolGuard() { set_global_pool(nullptr); }

private:
  ThreadPool pool_;
};

TEST(HaccGenerator, ProducesRequestedCountApproximately) {
  HaccParams p;
  p.num_particles = 10000;
  const auto ps = generate_hacc(p);
  EXPECT_EQ(ps->num_points(), 10000);
}

TEST(HaccGenerator, CarriesPaperFields) {
  HaccParams p;
  p.num_particles = 100;
  const auto ps = generate_hacc(p);
  // "Each particle's data is composed of its ID, position vector, and
  // velocity vector."
  EXPECT_TRUE(ps->point_fields().has("id"));
  EXPECT_TRUE(ps->point_fields().has("velocity"));
  EXPECT_TRUE(ps->point_fields().has("speed"));
  EXPECT_EQ(ps->point_fields().get("velocity").components(), 3);
  // Speed is the velocity magnitude.
  const Field& vel = ps->point_fields().get("velocity");
  const Field& speed = ps->point_fields().get("speed");
  for (Index i = 0; i < ps->num_points(); ++i)
    EXPECT_NEAR(speed.get(i), length(vel.get_vec3(i)), 1e-3);
}

TEST(HaccGenerator, IdsAreUniqueAndStable) {
  HaccParams p;
  p.num_particles = 5000;
  const auto ps = generate_hacc(p);
  const Field& id = ps->point_fields().get("id");
  std::set<Real> ids;
  for (Index i = 0; i < ps->num_points(); ++i) ids.insert(id.get(i));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(ps->num_points()));
}

TEST(HaccGenerator, DeterministicForSeed) {
  HaccParams p;
  p.num_particles = 1000;
  p.seed = 555;
  const auto a = generate_hacc(p);
  const auto b = generate_hacc(p);
  ASSERT_EQ(a->num_points(), b->num_points());
  for (Index i = 0; i < a->num_points(); ++i)
    EXPECT_EQ(a->position(i), b->position(i));
}

TEST(HaccGenerator, StaysInsideTheBox) {
  HaccParams p;
  p.num_particles = 5000;
  p.box_size = 50;
  const auto ps = generate_hacc(p);
  for (const Vec3f pos : ps->positions()) {
    EXPECT_GE(pos.x, 0);
    EXPECT_LT(pos.x, 50.001f);
    EXPECT_GE(pos.y, 0);
    EXPECT_LT(pos.y, 50.001f);
    EXPECT_GE(pos.z, 0);
    EXPECT_LT(pos.z, 50.001f);
  }
}

TEST(HaccGenerator, ParticlesClusterIntoHalos) {
  // Clustering signature: the variance of per-cell counts of a
  // clustered distribution far exceeds a uniform one (Poisson).
  HaccParams p;
  p.num_particles = 20000;
  p.num_halos = 16;
  p.background_fraction = 0.2;
  const auto ps = generate_hacc(p);

  const int cells = 8;
  std::vector<double> counts(cells * cells * cells, 0);
  for (const Vec3f pos : ps->positions()) {
    const auto cx = std::min<Index>(cells - 1, Index(pos.x / p.box_size * cells));
    const auto cy = std::min<Index>(cells - 1, Index(pos.y / p.box_size * cells));
    const auto cz = std::min<Index>(cells - 1, Index(pos.z / p.box_size * cells));
    counts[static_cast<std::size_t>(cx + cells * (cy + cells * cz))] += 1;
  }
  RunningStats stats;
  for (const double c : counts) stats.add(c);
  // Poisson (uniform) would have variance ~ mean; halos push it way up.
  EXPECT_GT(stats.variance(), 5.0 * stats.mean());
}

TEST(HaccGenerator, TimestepsEvolve) {
  HaccParams p;
  p.num_particles = 2000;
  auto t0 = generate_hacc(p);
  p.timestep = 3;
  auto t3 = generate_hacc(p);
  // Same count, different configuration.
  EXPECT_EQ(t0->num_points(), t3->num_points());
  Index moved = 0;
  const Index n = std::min(t0->num_points(), t3->num_points());
  for (Index i = 0; i < n; ++i)
    if (!(t0->position(i) == t3->position(i))) ++moved;
  EXPECT_GT(moved, n / 2);
}

TEST(HaccGenerator, RankSlabsPartitionTheBox) {
  HaccParams p;
  p.num_particles = 8000;
  const int ranks = 4;
  Index total = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto slab = generate_hacc_rank(p, r, ranks);
    total += slab->num_points();
    const Real lo = p.box_size * Real(r) / ranks;
    const Real hi = p.box_size * Real(r + 1) / ranks;
    for (const Vec3f pos : slab->positions()) {
      EXPECT_GE(pos.x, lo);
      EXPECT_LT(pos.x, hi);
    }
  }
  // Union over ranks is exactly the full box.
  EXPECT_EQ(total, generate_hacc(p)->num_points());
}

TEST(HaccGenerator, ExtractSlabEqualsDirectGeneration) {
  // The bulk pre-pass path (generate once, slice) must be bit-identical
  // to per-rank generation, particle for particle, field for field.
  HaccParams p;
  p.num_particles = 5000;
  p.timestep = 2;
  const auto full = generate_hacc(p);
  for (const int ranks : {1, 3, 4}) {
    for (int r = 0; r < ranks; ++r) {
      const PointSet sliced = extract_hacc_slab(*full, p.box_size, r, ranks);
      const auto direct = generate_hacc_rank(p, r, ranks);
      ASSERT_EQ(sliced.num_points(), direct->num_points())
          << "rank " << r << "/" << ranks;
      for (Index i = 0; i < sliced.num_points(); ++i) {
        EXPECT_EQ(sliced.position(i), direct->position(i));
        EXPECT_EQ(sliced.point_fields().get("id").get(i),
                  direct->point_fields().get("id").get(i));
        EXPECT_EQ(sliced.point_fields().get("speed").get(i),
                  direct->point_fields().get("speed").get(i));
      }
    }
  }
}

TEST(HaccGenerator, SlabsMatchSerialReference) {
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(8)};
  for (const std::uint64_t seed : {1ull, 7919ull, 99ull})
    for (const Index count : {Index(0), Index(1), Index(17), Index(4097), Index(100'000)})
      for (const Index timestep : {Index(0), Index(3)})
        for (const int parts : {1, 2, 3, 4, 8}) {
          HaccParams p;
          p.seed = seed;
          p.num_particles = count;
          p.timestep = timestep;
          std::vector<std::unique_ptr<PointSet>> want;
          for (int r = 0; r < parts; ++r) want.push_back(ref_generate_hacc_rank(p, r, parts));
          for (ThreadPool& pool : pools) {
            SCOPED_TRACE(::testing::Message()
                         << "pool " << pool.size() << " seed " << seed << " count " << count
                         << " t " << timestep << " parts " << parts);
            set_global_pool(&pool);
            const std::vector<PointSet> slabs = generate_hacc_slabs(p, parts);
            ASSERT_EQ(slabs.size(), static_cast<std::size_t>(parts));
            for (int r = 0; r < parts; ++r) {
              const PointSet& ref = *want[static_cast<std::size_t>(r)];
              EXPECT_TRUE(identical(slabs[static_cast<std::size_t>(r)], ref)) << "slab " << r;
              // Rank mode runs the same core; one pool width covers it.
              if (pool.size() == 8) {
                EXPECT_TRUE(identical(*generate_hacc_rank(p, r, parts), ref)) << "rank " << r;
              }
            }
            set_global_pool(nullptr);
          }
        }
}

TEST(HaccGenerator, ChunkStartsSkipCachedVariates) {
  // A chunk may only begin where no Box-Muller variate is cached, so
  // some nominal starts n*c/chunks move forward. Find such a cut and
  // check the slabs across it against the reference.
  HaccParams p;
  p.num_particles = 100'000;
  const std::vector<Index> starts = hacc_chunk_starts(p);
  const auto chunks = static_cast<Index>(starts.size()) - 1;
  ASSERT_GT(chunks, 1);
  EXPECT_EQ(starts.front(), 0);
  EXPECT_EQ(starts.back(), p.num_particles);
  Index moved = 0;
  for (Index c = 1; c < chunks; ++c) {
    const Index nominal = p.num_particles * c / chunks;
    const Index start = starts[static_cast<std::size_t>(c)];
    EXPECT_GE(start, nominal);
    EXPECT_GE(start, starts[static_cast<std::size_t>(c - 1)]);
    if (start > nominal) ++moved;
  }
  EXPECT_GT(moved, 0) << "no chunk start fell after a cached variate";
  const PoolGuard pool(4);
  const std::vector<PointSet> slabs = generate_hacc_slabs(p, 3);
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(identical(slabs[static_cast<std::size_t>(r)], *ref_generate_hacc_rank(p, r, 3)));
}

TEST(HaccGenerator, ChunkCountIgnoresPoolWidth) {
  HaccParams p;
  p.num_particles = 50'000;
  std::vector<Index> at_one, at_eight;
  {
    const PoolGuard pool(1);
    at_one = hacc_chunk_starts(p);
  }
  {
    const PoolGuard pool(8);
    at_eight = hacc_chunk_starts(p);
  }
  EXPECT_EQ(at_one, at_eight);
}

TEST(HaccGenerator, SlabsRejectBadPartCount) {
  HaccParams p;
  p.num_particles = 10;
  EXPECT_THROW(generate_hacc_slabs(p, 0), Error);
  EXPECT_THROW(generate_hacc_rank(p, -1, 2), Error);
}

TEST(HaccGenerator, ExtractSlabRejectsBadArguments) {
  const PointSet empty;
  EXPECT_THROW(extract_hacc_slab(empty, 0.0f, 0, 1), Error);
  EXPECT_THROW(extract_hacc_slab(empty, 10.0f, 2, 2), Error);
  EXPECT_THROW(extract_hacc_slab(empty, 10.0f, 0, 0), Error);
}

TEST(HaccGenerator, RejectsBadParams) {
  HaccParams p;
  p.num_halos = 0;
  EXPECT_THROW(generate_hacc(p), Error);
  p = HaccParams{};
  p.background_fraction = 1.5;
  EXPECT_THROW(generate_hacc(p), Error);
  p = HaccParams{};
  p.box_size = 0;
  EXPECT_THROW(generate_hacc(p), Error);
  p = HaccParams{};
  EXPECT_THROW(generate_hacc_rank(p, 4, 4), Error);
}

} // namespace
} // namespace eth::sim
