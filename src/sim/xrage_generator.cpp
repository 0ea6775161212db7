#include "sim/xrage_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace eth::sim {

namespace {

/// Deterministic lattice hash -> [0, 1). `key` is the octave seed XOR
/// the three per-axis terms (see AxisLattice::term).
Real lattice_value(std::uint64_t key) {
  SplitMix64 sm(key);
  return Real(double(sm.next() >> 11) * 0x1.0p-53);
}

/// Per-axis coordinates (x, y, z), one per grid index of a block.
using Axes = std::array<std::vector<Real>, 3>;

/// One axis of one noise octave over a block. Grid index `n` on this
/// axis sits in lattice cell floor(p[n]) with fraction p[n] - cell; `lo`
/// is the table offset (slot * stride) of that cell. Slots are compact:
/// only cells some index touches get one, in cell order. A touched
/// cell's successor is touched too, so it holds the next slot, at
/// offset lo + stride. Offsets are 32-bit so the row loop over x
/// vectorizes its loads.
struct AxisLattice {
  std::vector<std::int32_t> lo;
  std::vector<Real> frac;
  std::vector<std::uint64_t> term; ///< per slot: multiplier * (cell + 1)
  std::int32_t stride = 0;
};

AxisLattice make_axis(const std::vector<Real>& p, std::uint64_t multiplier,
                      std::size_t stride) {
  const std::size_t n = p.size();
  AxisLattice a;
  a.lo.resize(n);
  a.frac.resize(n);
  std::vector<Index> cell(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell[i] = static_cast<Index>(std::floor(p[i]));
    a.frac[i] = p[i] - Real(cell[i]);
  }
  const auto [min_it, max_it] = std::minmax_element(cell.begin(), cell.end());
  const Index base = *min_it;
  // slot_of[c - base] for c in [min, max + 1]; -1 = untouched.
  std::vector<std::ptrdiff_t> slot_of(static_cast<std::size_t>(*max_it - base + 2), -1);
  for (const Index c : cell) {
    slot_of[static_cast<std::size_t>(c - base)] = 0;
    slot_of[static_cast<std::size_t>(c - base + 1)] = 0;
  }
  for (std::size_t s = 0; s < slot_of.size(); ++s) {
    if (slot_of[s] < 0) continue;
    slot_of[s] = static_cast<std::ptrdiff_t>(a.term.size());
    a.term.push_back(multiplier * static_cast<std::uint64_t>(base + Index(s) + 1));
  }
  require(a.term.size() * stride <= std::size_t(std::numeric_limits<std::int32_t>::max()),
          "generate_xrage_block: noise table too large for 32-bit offsets");
  a.stride = static_cast<std::int32_t>(stride);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(cell[i] - base);
    a.lo[i] = static_cast<std::int32_t>(slot_of[s]) * a.stride;
  }
  return a;
}

/// One octave of value noise tabulated over a block: the lattice hash
/// of every (x, y, z) slot triple, at most 8 entries per grid point.
struct NoiseOctave {
  AxisLattice x, y, z;
  std::vector<Real> table;

  NoiseOctave(std::uint64_t seed, const Axes& p)
      : x(make_axis(p[0], 0x9E3779B97F4A7C15ull, 1)),
        y(make_axis(p[1], 0xBF58476D1CE4E5B9ull, x.term.size())),
        z(make_axis(p[2], 0x94D049BB133111EBull, x.term.size() * y.term.size())) {
    table.reserve(x.term.size() * y.term.size() * z.term.size());
    for (const std::uint64_t tz : z.term)
      for (const std::uint64_t ty : y.term)
        for (const std::uint64_t tx : x.term) table.push_back(lattice_value(seed ^ tx ^ ty ^ tz));
  }

  /// Trilinear value noise at grid index (i, j, k) of the block.
  Real at(Index i, Index j, Index k) const {
    const auto ui = static_cast<std::size_t>(i), uj = static_cast<std::size_t>(j),
               uk = static_cast<std::size_t>(k);
    const std::size_t x0 = x.lo[ui], x1 = x0 + 1;
    const std::size_t y0 = y.lo[uj], y1 = y0 + y.stride;
    const std::size_t z0 = z.lo[uk], z1 = z0 + z.stride;
    const Real* v = table.data();
    const Real fx = x.frac[ui], fy = y.frac[uj], fz = z.frac[uk];
    const Real c00 = lerp(v[x0 + y0 + z0], v[x1 + y0 + z0], fx);
    const Real c10 = lerp(v[x0 + y1 + z0], v[x1 + y1 + z0], fx);
    const Real c01 = lerp(v[x0 + y0 + z1], v[x1 + y0 + z1], fx);
    const Real c11 = lerp(v[x0 + y1 + z1], v[x1 + y1 + z1], fx);
    return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
  }

  /// sum[i] += amp * at(i, j, k) for every i of row (j, k): the same
  /// expression as at(), with the four (y, z) corner rows hoisted.
  void accumulate_row(Index j, Index k, Real amp, std::span<Real> sum) const {
    const auto uj = static_cast<std::size_t>(j), uk = static_cast<std::size_t>(k);
    const Real* r00 = table.data() + y.lo[uj] + z.lo[uk];
    accumulate(sum.size(), sum.data(), r00, r00 + y.stride, r00 + z.stride,
               r00 + y.stride + z.stride, x.lo.data(), x.frac.data(), y.frac[uj], z.frac[uk],
               amp);
  }

private:
  // Raw __restrict pointers, outside the member: inlined into the row
  // loop with the table behind `this`, GCC does not vectorize the loads.
  static void accumulate(std::size_t n, Real* __restrict s, const Real* __restrict r00,
                         const Real* __restrict r10, const Real* __restrict r01,
                         const Real* __restrict r11, const std::int32_t* __restrict x0,
                         const Real* __restrict fx, Real fy, Real fz, Real amp) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t x1 = x0[i] + 1;
      const Real c00 = lerp(r00[x0[i]], r00[x1], fx[i]);
      const Real c10 = lerp(r10[x0[i]], r10[x1], fx[i]);
      const Real c01 = lerp(r01[x0[i]], r01[x1], fx[i]);
      const Real c11 = lerp(r11[x0[i]], r11[x1], fx[i]);
      s[i] += amp * lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
    }
  }
};

/// 4-octave fractal noise in [0, 1), tabulated over a block. The noise
/// position is separable: each axis's coordinate depends only on that
/// axis's grid index, so `p` gives it per axis and index, and each
/// octave scales it by 2.03 exactly as the pointwise sum would.
class FractalNoise {
public:
  FractalNoise(std::uint64_t seed, Axes p) {
    octaves_.reserve(4);
    for (int octave = 0; octave < 4; ++octave) {
      octaves_.emplace_back(seed + static_cast<std::uint64_t>(octave) * 7919u, p);
      for (std::vector<Real>& axis : p)
        for (Real& v : axis) v = v * Real(2.03);
    }
  }

  Real at(Index i, Index j, Index k) const {
    Real sum = 0, amp = Real(0.5);
    Real norm = 0;
    for (const NoiseOctave& o : octaves_) {
      sum += amp * o.at(i, j, k);
      norm += amp;
      amp *= Real(0.5);
    }
    return sum / norm;
  }

  /// out[i] = at(i, j, k) for every i of row (j, k), computed octave by
  /// octave over the row with the same per-point accumulation order.
  void row(Index j, Index k, std::span<Real> out) const {
    std::fill(out.begin(), out.end(), Real(0));
    Real amp = Real(0.5);
    Real norm = 0;
    for (const NoiseOctave& o : octaves_) {
      o.accumulate_row(j, k, amp, out);
      norm += amp;
      amp *= Real(0.5);
    }
    for (Real& v : out) v = v / norm;
  }

private:
  std::vector<NoiseOctave> octaves_;
};

} // namespace

XrageParams XrageParams::small_problem() {
  XrageParams p;
  p.dims = {76, 47, 40};
  return p;
}

XrageParams XrageParams::medium_problem() {
  XrageParams p;
  p.dims = {160, 94, 80};
  return p;
}

XrageParams XrageParams::large_problem() {
  XrageParams p;
  p.dims = {230, 140, 120};
  return p;
}

std::unique_ptr<StructuredGrid> generate_xrage(const XrageParams& p) {
  return generate_xrage_block(p, {0, 0, 0}, p.dims);
}

Vec3i block_factorization(Vec3i dims, int parts) {
  require(parts > 0, "block_factorization: parts must be positive");
  // Greedy: repeatedly split the axis with the most points per block.
  Vec3i f{1, 1, 1};
  int remaining = parts;
  // Factor `parts` into primes, assign largest-first to the axis where
  // each block currently has the most points.
  std::vector<int> primes;
  for (int d = 2; remaining > 1; ++d) {
    while (remaining % d == 0) {
      primes.push_back(d);
      remaining /= d;
    }
    require(d <= parts, "block_factorization: internal factoring error");
  }
  std::sort(primes.rbegin(), primes.rend());
  for (const int prime : primes) {
    int best_axis = -1;
    double best_points = -1;
    for (int a = 0; a < 3; ++a) {
      const double per_block = double(dims[a]) / double(f[a] * prime);
      if (per_block < 2.0) continue; // would make blocks too thin
      const double current = double(dims[a]) / double(f[a]);
      if (current > best_points) {
        best_points = current;
        best_axis = a;
      }
    }
    require(best_axis >= 0,
            "block_factorization: grid too small for this many blocks");
    f[best_axis] = f[best_axis] * prime;
  }
  return f;
}

std::pair<Vec3i, Vec3i> grid_block_range(Vec3i dims, int share, int parts) {
  require(share >= 0 && share < parts, "grid_block_range: bad share");
  const Vec3i f = block_factorization(dims, parts);
  const Index bx = share % f.x;
  const Index by = (share / f.x) % f.y;
  const Index bz = share / (f.x * f.y);
  Vec3i lo, hi;
  const Index bidx[3] = {bx, by, bz};
  for (int a = 0; a < 3; ++a) {
    lo[a] = dims[a] * bidx[a] / f[a];
    hi[a] = dims[a] * (bidx[a] + 1) / f[a];
    if (bidx[a] + 1 < f[a]) hi[a] += 1; // shared plane with the next block
  }
  return {lo, hi};
}

std::unique_ptr<StructuredGrid> generate_xrage_block(const XrageParams& p, Vec3i lo,
                                                     Vec3i hi) {
  require(p.dims.x >= 2 && p.dims.y >= 2 && p.dims.z >= 2,
          "generate_xrage: dims must be >= 2");
  require(p.domain_size > 0, "generate_xrage: domain_size must be positive");
  for (int a = 0; a < 3; ++a) {
    require(lo[a] >= 0 && hi[a] <= p.dims[a] && hi[a] - lo[a] >= 2,
            "generate_xrage_block: bad block range");
  }

  // Physical extents proportional to dims; uniform spacing.
  const Real spacing_val = p.domain_size / Real(p.dims.x - 1);
  const Vec3f spacing{spacing_val, spacing_val, spacing_val};

  const Vec3i dims{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  const Vec3f origin{spacing_val * Real(lo.x), spacing_val * Real(lo.y),
                     spacing_val * Real(lo.z)};
  auto grid = std::make_unique<StructuredGrid>(dims, origin, spacing);
  // Add all fields before taking spans: each add may reallocate the
  // collection's storage. Each span is taken once (one copy-on-write
  // check per field, not per write).
  grid->add_scalar_field("temperature");
  grid->add_scalar_field("density");
  grid->add_scalar_field("pressure");
  const std::span<Real> temperature = grid->point_fields().get("temperature").values();
  const std::span<Real> density = grid->point_fields().get("density").values();
  const std::span<Real> pressure = grid->point_fields().get("pressure").values();

  // Impact geometry: strike point on the "ground" (y = 0 plane) at the
  // domain's x/z center. The shock radius grows with sqrt(t) (Sedov-
  // like), the plume rises linearly with t.
  const Real sx = p.domain_size * Real(0.5);
  const Real sy = Real(0);
  const Real sz = spacing_val * Real(p.dims.z - 1) * Real(0.5);
  const Real t = Real(1) + Real(p.timestep);
  const Real shock_radius = Real(0.9) * std::sqrt(t) * p.domain_size * Real(0.08);
  const Real shock_width = shock_radius * Real(0.25);
  const Real plume_height = p.domain_size * Real(0.06) * t;
  const Real noise_scale = Real(6) / p.domain_size;

  // Evaluate at the GLOBAL lattice position (spacing * global index) so
  // a block is bit-identical to the same region of the full grid;
  // origin + spacing*local would differ by ULPs. Every position and
  // noise coordinate is separable, so each is computed once per axis.
  Axes pos, plume_p, rough_p;
  for (int a = 0; a < 3; ++a) {
    for (Index n = 0; n < dims[a]; ++n) {
      const Real x = spacing_val * Real(lo[a] + n);
      pos[a].push_back(x);
      plume_p[a].push_back(x * noise_scale + (a == 1 ? t * Real(0.7) : Real(0)));
      rough_p[a].push_back(x * noise_scale * Real(2));
    }
  }
  const FractalNoise plume_noise(p.seed, std::move(plume_p));
  const FractalNoise rough_noise(p.seed + 1, std::move(rough_p));

  // Row kernel: each (j, k) row runs as separate passes over x so that
  // every pass but sqrt, the libm exp calls and the plume test vectorizes.
  // Each value is the same expression on the same inputs as a
  // point-by-point evaluation (DESIGN.md §16), just hoisted or batched.
  const Real core_den = shock_radius * shock_radius * Real(0.18);
  const Real shell_den = Real(2) * shock_width * shock_width;
  const Real plume_den = std::max(plume_height, Real(1e-3));
  const auto nx = static_cast<std::size_t>(dims.x);
  std::vector<Real> rel_x2(nx); // (x - sx)^2, the same for every row
  for (std::size_t i = 0; i < nx; ++i) {
    const Real rel_x = pos[0][i] - sx;
    rel_x2[i] = rel_x * rel_x;
  }
  std::vector<Real> rough(nx), dist(nx), core(nx), shell(nx);
  const auto select_clamp = [](Real v, Real lo, Real hi) { // == clamp(v, lo, hi)
    const Real a = v < lo ? lo : v;
    return a > hi ? hi : a;
  };

  std::size_t idx = 0;
  for (Index k = 0; k < dims.z; ++k) {
    const Real rel_z = pos[2][static_cast<std::size_t>(k)] - sz;
    const Real rel_z2 = rel_z * rel_z;
    for (Index j = 0; j < dims.y; ++j, idx += nx) {
      const Real py = pos[1][static_cast<std::size_t>(j)];
      const Real rel_y = py - sy;
      const Real rel_y2 = rel_y * rel_y;
      // Ambient stratification: cool with altitude.
      const Real ambient =
          std::max(Real(0.08) * (Real(1) - py / (p.domain_size * Real(0.6))), Real(0.02));

      // Distance to the strike point, then the exponents of the crater /
      // fireball core (hot inside ~half the shock radius) and of the
      // shock shell (Gaussian ridge at the shock radius).
      for (std::size_t i = 0; i < nx; ++i) dist[i] = std::sqrt((rel_x2[i] + rel_y2) + rel_z2);
      for (std::size_t i = 0; i < nx; ++i) {
        const Real r = dist[i];
        core[i] = -(r * r) / core_den;
        shell[i] = -((r - shock_radius) * (r - shock_radius)) / shell_den;
      }
      for (std::size_t i = 0; i < nx; ++i) {
        core[i] = std::exp(core[i]);
        shell[i] = std::exp(shell[i]);
      }

      Real* __restrict temp = temperature.data() + idx;
      for (std::size_t i = 0; i < nx; ++i)
        temp[i] = ambient + Real(0.85) * core[i] + Real(0.45) * shell[i];

      // Rising turbulent plume above the strike point.
      if (py > 0 && py < plume_height) {
        const Real plume_r = shock_radius * Real(0.5) * (Real(0.4) + Real(0.6) * py / plume_den);
        const Real plume_r2 = plume_r * plume_r;
        const Real fade = Real(1) - py / plume_height;
        for (std::size_t i = 0; i < nx; ++i)
          if (rel_x2[i] + rel_z2 < plume_r2)
            temp[i] += Real(0.35) * plume_noise.at(static_cast<Index>(i), j, k) * fade;
      }

      // Turbulence roughens everything near the event. Crude equation-
      // of-state companions follow (exercised by multi-field pipelines
      // and tests, not by the paper's figures).
      rough_noise.row(j, k, rough);
      Real* __restrict dens = density.data() + idx;
      Real* __restrict pres = pressure.data() + idx;
      for (std::size_t i = 0; i < nx; ++i)
        temp[i] = select_clamp(temp[i] * (Real(0.9) + Real(0.2) * rough[i]), 0, 1);
      for (std::size_t i = 0; i < nx; ++i) {
        dens[i] = select_clamp(Real(1.2) - temp[i] + Real(0.3) * shell[i], Real(0.05), 2);
        pres[i] = select_clamp(temp[i] * (Real(0.8) + Real(0.4) * core[i]), 0, 2);
      }
    }
  }

  return grid;
}

} // namespace eth::sim
