#pragma once
// Synthetic HACC-like cosmology data.
//
// The paper's HACC runs use dark-sky n-body dumps of 0.25-1 billion
// particles whose science content is the halo structure ("render the
// point-cloud data in a manner that makes visual identification of
// halos easy"). Those dumps are not available here, so this generator
// produces the closest synthetic equivalent: a periodic box of
// particles clustered into Plummer-profile halos over a uniform
// background, with per-particle id and velocity exactly as the paper
// lists ("each particle's data is composed of its ID, position vector,
// and velocity vector").
//
// Scale: experiments run at 1/1000 of the paper's counts (1 M -> "1 B")
// with the factor applied uniformly across the size sweep, preserving
// every size *ratio* the figures depend on. Deterministic in (seed,
// timestep), so all couplings/algorithms see identical input.
//
// The particles are one random stream per (seed, timestep). A serial
// schedule pass walks its draw sequence without the math and cuts it
// into chunks, which compute their particles in parallel on the global
// pool; slabs come out in stream order and bit-identical at any pool
// width (DESIGN.md §18).

#include <memory>
#include <vector>

#include "data/point_set.hpp"

namespace eth::sim {

struct HaccParams {
  Index num_particles = 1'000'000;
  Index num_halos = 64;
  double background_fraction = 0.35; ///< particles outside any halo
  Real box_size = 100.0f;            ///< comoving box edge length
  Real halo_scale_radius = 1.2f;     ///< Plummer scale radius a
  std::uint64_t seed = 1234;

  /// 0-based simulation timestep; halos drift and deepen with time so
  /// successive timesteps differ like a real evolution.
  Index timestep = 0;
};

/// Generate the whole stream once and split it into `parts` slabs:
/// slab r holds, in stream order, the particles whose x falls in
/// [box*r/parts, box*(r+1)/parts) (those bounds computed in Real). A
/// particle whose wrapped x rounds to the top bound belongs to no slab.
/// Each slab carries the point fields id (the particle's stream index),
/// velocity and speed. The per-particle math runs in parallel on the
/// global pool; the output is bit-identical at any pool width
/// (DESIGN.md §18).
std::vector<PointSet> generate_hacc_slabs(const HaccParams& params, int parts);

/// Generate the full box: slab 0 of 1.
std::unique_ptr<PointSet> generate_hacc(const HaccParams& params);

/// Generate only this rank's slab of generate_hacc_slabs(params, ranks):
/// what each parallel process of the simulation proxy holds. The union
/// over ranks equals (as a set) generate_hacc of the same params.
std::unique_ptr<PointSet> generate_hacc_rank(const HaccParams& params, int rank,
                                             int ranks);

/// Stream index at which each chunk of the parallel generator begins,
/// plus num_particles as the last entry. The chunk count depends on
/// num_particles alone; a chunk starts at the first particle at or
/// after its nominal start where no Box-Muller variate is cached.
/// Exposed so tests can see where the stream was cut.
std::vector<Index> hacc_chunk_starts(const HaccParams& params);

/// Extract slab `rank` of `ranks` from an already-generated full box —
/// identical (same particles, same order) to generate_hacc_rank of the
/// same params.
PointSet extract_hacc_slab(const PointSet& full, Real box_size, int rank, int ranks);

} // namespace eth::sim
