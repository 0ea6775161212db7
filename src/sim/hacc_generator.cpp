#include "sim/hacc_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace eth::sim {

namespace {

struct Halo {
  Vec3f center;
  Real scale;    ///< Plummer a
  Real sigma_v;  ///< velocity dispersion
};

/// Halo catalogue for (seed, timestep): centers drift with a fixed
/// per-halo velocity; the profile deepens slightly as time advances.
std::vector<Halo> make_halos(const HaccParams& p) {
  std::vector<Halo> halos(static_cast<std::size_t>(p.num_halos));
  Rng rng(derive_seed(p.seed, 0xA105));
  const Real t = Real(p.timestep);
  for (Halo& h : halos) {
    const Vec3f base = rng.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
    const Vec3f drift = rng.unit_vector() * Real(rng.uniform(0.05, 0.25));
    Vec3f c = base + drift * t;
    // Periodic wrap.
    for (int a = 0; a < 3; ++a)
      c[a] = c[a] - p.box_size * std::floor(c[a] / p.box_size);
    h.center = c;
    // Contraction: structure grows denser with time, like gravitational
    // collapse (scale shrinks toward 60 % of initial).
    const Real contraction = Real(1) / (Real(1) + Real(0.05) * t);
    h.scale = p.halo_scale_radius * Real(rng.uniform(0.5, 1.8)) *
              std::max(contraction, Real(0.6));
    h.sigma_v = Real(rng.uniform(80.0, 250.0));
  }
  return halos;
}

/// Sample a radius from the Plummer profile with scale a from the
/// uniform draw `u` (inverse-CDF: r = a / sqrt(u^(-2/3) - 1)).
Real plummer_radius(double u, Real a) {
  u = std::max(1e-9, u);
  const double r = double(a) / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
  return Real(std::min(r, double(a) * 25.0)); // truncate the heavy tail
}

/// Periodic wrap into [0, box].
Vec3f wrap(Vec3f v, Real box) {
  for (int a = 0; a < 3; ++a) v[a] = v[a] - box * std::floor(v[a] / box);
  return v;
}

// The particle stream is cut into at most kMaxChunks chunks of at least
// kChunkGrain particles: a function of num_particles alone, so the cut
// is the same at every pool width.
constexpr Index kChunkGrain = 2048;
constexpr Index kMaxChunks = 64;

/// Draw policy of the pass that materializes particles: every draw is
/// real and feeds the math.
struct Draw {
  static constexpr bool kMaterialize = true;
  Rng& rng;
  double uniform() { return rng.uniform(); }
  double uniform(double lo, double hi) { return rng.uniform(lo, hi); }
  std::uint64_t uniform_index(std::uint64_t n) { return rng.uniform_index(n); }
  Vec3f unit_vector() { return rng.unit_vector(); }
  Vec3f point_in_box(Vec3f lo, Vec3f hi) { return rng.point_in_box(lo, hi); }
  double normal() { return rng.normal(); }
};

/// Draw policy of the schedule pass: advances the generator past the
/// same draws without their math. The values are placeholders that
/// next_particle never reads under this policy.
struct Skip {
  static constexpr bool kMaterialize = false;
  Rng& rng;
  double uniform() {
    rng.skip(1);
    return 0;
  }
  double uniform(double, double) {
    rng.skip(1);
    return 0;
  }
  std::uint64_t uniform_index(std::uint64_t) {
    rng.skip(1);
    return 0;
  }
  Vec3f unit_vector() {
    rng.skip(Rng::kUnitVectorDraws);
    return {};
  }
  Vec3f point_in_box(Vec3f, Vec3f) {
    rng.skip(Rng::kPointInBoxDraws);
    return {};
  }
  double normal() {
    rng.skip_normal();
    return 0;
  }
};

/// Everything a particle's math reads besides its draws.
struct Stream {
  const HaccParams& p;
  const std::vector<Halo>& halos;
};

/// One particle as the materializing pass leaves it in scratch: its
/// state plus the slab it routes to (-1: none).
struct Routed {
  Vec3f pos;
  Vec3f vel;
  int slab;
};

/// The draw sequence of one particle, written once for both passes:
/// the draws run under either policy, the math only under Draw. The
/// branch draw is real under both because it decides which draws
/// follow.
template <class Policy>
void next_particle(Policy d, const Stream& s, Routed& out) {
  const HaccParams& p = s.p;
  if (d.rng.uniform() < p.background_fraction) {
    const Vec3f pos = d.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
    const double speed = d.uniform(10.0, 60.0);
    const Vec3f dir = d.unit_vector();
    if constexpr (Policy::kMaterialize) {
      out.pos = pos;
      out.vel = dir * Real(speed);
    }
  } else {
    const std::uint64_t h = d.uniform_index(static_cast<std::uint64_t>(p.num_halos));
    const double u = d.uniform();
    const Vec3f dir = d.unit_vector();
    const double nx = d.normal();
    const double ny = d.normal();
    const double nz = d.normal();
    if constexpr (Policy::kMaterialize) {
      const Halo& halo = s.halos[static_cast<std::size_t>(h)];
      const Real r = plummer_radius(u, halo.scale);
      out.pos = wrap(halo.center + dir * r, p.box_size);
      // Dispersion falls off with radius, crudely virial; each
      // component is Rng::normal(0, sigma) spelled out.
      const Real sigma = halo.sigma_v / std::sqrt(Real(1) + r / halo.scale);
      out.vel = {Real(0.0 + double(sigma) * nx), Real(0.0 + double(sigma) * ny),
                 Real(0.0 + double(sigma) * nz)};
    }
  }
}

/// The serial schedule pass: walks the draw sequence under Skip and
/// cuts chunk c at the first particle at or after n*c/chunks where no
/// Box-Muller variate is cached, so every chunk resumes from a plain
/// copy of the generator. Calls on_chunk(c, begin, end, rng) as soon as
/// chunk c's end is found, `rng` being the generator at `begin`; the
/// last chunk runs to the end of the stream without being walked.
template <class OnChunk>
void plan_stream(const Stream& s, OnChunk&& on_chunk) {
  const Index n = s.p.num_particles;
  const Index chunks = plan_chunks(n, kChunkGrain, kMaxChunks);
  Rng rng(derive_seed(s.p.seed, 0xBEEF + static_cast<std::uint64_t>(s.p.timestep)));
  Routed unused{};
  Index i = 0;
  for (Index c = 0; c < chunks; ++c) {
    const Index begin = i;
    const Rng at_begin = rng;
    if (c + 1 == chunks) {
      i = n;
    } else {
      const Index nominal = n * (c + 1) / chunks;
      for (; i < n && (i < nominal || rng.normal_cached()); ++i)
        next_particle(Skip{rng}, s, unused);
    }
    on_chunk(c, begin, i, at_begin);
  }
}

void check_params(const HaccParams& p) {
  require(p.num_particles >= 0, "generate_hacc: negative particle count");
  require(p.num_halos > 0, "generate_hacc: need at least one halo");
  require(p.background_fraction >= 0.0 && p.background_fraction <= 1.0,
          "generate_hacc: background fraction must be in [0, 1]");
  require(p.box_size > 0, "generate_hacc: box size must be positive");
}

/// The generator core. The schedule pass hands each chunk to the pool
/// as soon as its end is known, and the chunk materializes its
/// particles into its own scratch block while the walk goes on; once
/// all are in, each slab's particles are scattered out in stream order.
/// Returns every slab, or only slab `only` when it is not negative.
/// Every buffer is allocated here, on the calling thread; pool workers
/// only fill them.
std::vector<PointSet> synthesize(const HaccParams& p, int parts, int only) {
  check_params(p);
  const std::vector<Halo> halos = make_halos(p);
  const Stream stream{p, halos};
  const Index n = p.num_particles;
  const Index chunks = plan_chunks(n, kChunkGrain, kMaxChunks);

  // Slab r is [bounds[r], bounds[r + 1]): the half-open predicate
  // x >= lo && x < hi with both bounds computed as box * r / parts.
  std::vector<Real> bounds(static_cast<std::size_t>(parts) + 1);
  for (int r = 0; r <= parts; ++r)
    bounds[static_cast<std::size_t>(r)] = p.box_size * Real(r) / Real(parts);
  const auto slab_of = [&](Real x) {
    const auto above = std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin();
    return above >= 1 && above <= parts ? static_cast<int>(above) - 1 : -1;
  };

  // Chunk c covers [starts[c], starts[c + 1]). Per-(chunk, slab)
  // counts, later each chunk's write cursors, sit in rows padded to a
  // cache line so chunks never share one. Each chunk's scratch block is
  // allocated as the walk reaches it. Blocks, not one stream-sized
  // buffer: freeing a buffer that large would raise glibc's dynamic
  // mmap threshold past the dump and proxy payloads, which then stay
  // behind in per-thread arenas (peak_rss_mb). Blocks are left
  // uninitialized: every entry is written by its chunk before anything
  // reads it, so their pages are first touched by the workers. Chunks
  // run on ChunkFanout, which emits no per-chunk trace spans, so trace
  // histograms do not depend on the particle count.
  std::vector<Index> starts(static_cast<std::size_t>(chunks) + 1, n);
  const Index stride = (parts + 7) / 8 * 8;
  std::vector<Index> cursor(static_cast<std::size_t>(chunks * stride), 0);
  using Block = std::unique_ptr<Routed[], void (*)(void*)>;
  std::vector<Block> scratch;
  scratch.reserve(static_cast<std::size_t>(chunks));
  {
    ChunkFanout fill(global_pool());
    plan_stream(stream, [&](Index c, Index begin, Index end, const Rng& at_begin) {
      starts[static_cast<std::size_t>(c)] = begin;
      const std::size_t bytes = sizeof(Routed) * static_cast<std::size_t>(end - begin);
      Routed* block = static_cast<Routed*>(std::malloc(std::max<std::size_t>(1, bytes)));
      require(block != nullptr, "generate_hacc: out of memory");
      scratch.emplace_back(block, &std::free);
      fill.submit(c, [&, c, begin, end, block, rng = at_begin]() mutable {
        Index* count = &cursor[static_cast<std::size_t>(c * stride)];
        for (Index i = begin; i < end; ++i) {
          Routed& q = block[i - begin];
          next_particle(Draw{rng}, stream, q);
          q.slab = slab_of(q.pos.x);
          if (q.slab >= 0) ++count[q.slab];
        }
      });
    });
    fill.join();
  }

  // Exclusive prefix over chunks: chunk c writes slab r from
  // cursor[c][r] on, so slabs keep stream order.
  std::vector<Index> sizes(static_cast<std::size_t>(parts), 0);
  for (Index c = 0; c < chunks; ++c)
    for (int r = 0; r < parts; ++r) {
      Index& at = cursor[static_cast<std::size_t>(c * stride + r)];
      const Index count = at;
      at = sizes[static_cast<std::size_t>(r)];
      sizes[static_cast<std::size_t>(r)] += count;
    }

  struct Sink {
    Vec3f* pos = nullptr; ///< null: slab not materialized
    Real* id = nullptr;
    Real* vel = nullptr;
    Real* speed = nullptr;
  };
  std::vector<Sink> sinks(static_cast<std::size_t>(parts));
  std::vector<PointSet> slabs(only < 0 ? static_cast<std::size_t>(parts) : 1);
  for (std::size_t k = 0; k < slabs.size(); ++k) {
    const int r = only < 0 ? static_cast<int>(k) : only;
    const Index size = sizes[static_cast<std::size_t>(r)];
    PointSet& ps = slabs[k];
    ps.resize(size);
    FieldCollection& fields = ps.point_fields();
    fields.add(Field("id", size, 1, FieldAssociation::kPoint));
    fields.add(Field("velocity", size, 3, FieldAssociation::kPoint));
    fields.add(Field("speed", size, 1, FieldAssociation::kPoint));
    sinks[static_cast<std::size_t>(r)] = {ps.positions().data(), fields.at(0).values().data(),
                                          fields.at(1).values().data(),
                                          fields.at(2).values().data()};
  }

  ChunkFanout scatter(global_pool());
  for (Index c = 0; c < chunks; ++c)
    scatter.submit(c, [&, c] {
      Index* at = &cursor[static_cast<std::size_t>(c * stride)];
      const Routed* block = scratch[static_cast<std::size_t>(c)].get();
      const Index begin = starts[static_cast<std::size_t>(c)];
      const Index end = starts[static_cast<std::size_t>(c + 1)];
      for (Index i = begin; i < end; ++i) {
        const Routed& q = block[i - begin];
        if (q.slab < 0) continue;
        const Sink& out = sinks[static_cast<std::size_t>(q.slab)];
        if (out.pos == nullptr) continue;
        const auto k = static_cast<std::size_t>(at[q.slab]++);
        out.pos[k] = q.pos;
        out.id[k] = Real(i);
        out.vel[3 * k] = q.vel.x;
        out.vel[3 * k + 1] = q.vel.y;
        out.vel[3 * k + 2] = q.vel.z;
        out.speed[k] = length(q.vel); // ready-to-color scalar
      }
    });
  scatter.join();
  return slabs;
}

} // namespace

std::vector<PointSet> generate_hacc_slabs(const HaccParams& p, int parts) {
  require(parts > 0, "generate_hacc_slabs: need at least one slab");
  return synthesize(p, parts, -1);
}

std::unique_ptr<PointSet> generate_hacc(const HaccParams& p) {
  return generate_hacc_rank(p, 0, 1);
}

std::unique_ptr<PointSet> generate_hacc_rank(const HaccParams& p, int rank, int ranks) {
  require(ranks > 0 && rank >= 0 && rank < ranks, "generate_hacc: bad rank");
  return std::make_unique<PointSet>(std::move(synthesize(p, ranks, rank).front()));
}

std::vector<Index> hacc_chunk_starts(const HaccParams& p) {
  check_params(p);
  const std::vector<Halo> halos = make_halos(p);
  std::vector<Index> starts;
  plan_stream(Stream{p, halos},
              [&](Index, Index begin, Index, const Rng&) { starts.push_back(begin); });
  starts.push_back(p.num_particles);
  return starts;
}

PointSet extract_hacc_slab(const PointSet& full, Real box_size, int rank, int ranks) {
  require(box_size > 0, "extract_hacc_slab: box size must be positive");
  require(ranks > 0 && rank >= 0 && rank < ranks, "extract_hacc_slab: bad rank");
  // The same half-open interval predicate the generator routes by,
  // over the same stream order.
  const Real slab_lo = box_size * Real(rank) / Real(ranks);
  const Real slab_hi = box_size * Real(rank + 1) / Real(ranks);
  // Slab membership is random along the stream, so both passes are
  // branch-free: count, then store every index and advance past kept
  // ones (one spare slot takes the last store).
  const std::span<const Vec3f> pos = full.positions();
  const auto in_slab = [&](const Vec3f& q) { return (q.x >= slab_lo) & (q.x < slab_hi); };
  const auto kept = static_cast<std::size_t>(std::count_if(pos.begin(), pos.end(), in_slab));
  std::vector<Index> keep(kept + 1);
  std::size_t at = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    keep[at] = static_cast<Index>(i);
    at += in_slab(pos[i]) ? 1 : 0;
  }
  keep.pop_back();
  return full.subset(keep);
}

} // namespace eth::sim
