#include "pipeline/gaussian_splatter.hpp"

#include "common/string_util.hpp"

#include <cmath>
#include <vector>

#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

GaussianSplatterFilter::GaussianSplatterFilter(Index grid_dim, Real radius_factor)
    : grid_dim_(grid_dim), radius_factor_(radius_factor) {
  require(grid_dim >= 2, "GaussianSplatterFilter: grid_dim must be >= 2");
  require(radius_factor > 0, "GaussianSplatterFilter: radius_factor must be positive");
}

void GaussianSplatterFilter::set_grid_dim(Index dim) {
  require(dim >= 2, "GaussianSplatterFilter: grid_dim must be >= 2");
  grid_dim_ = dim;
  modified();
}

void GaussianSplatterFilter::set_radius_factor(Real f) {
  require(f > 0, "GaussianSplatterFilter: radius_factor must be positive");
  radius_factor_ = f;
  modified();
}

std::unique_ptr<DataSet> GaussianSplatterFilter::execute(
    const DataSet* input, cluster::PerfCounters& counters) {
  require(input != nullptr && input->kind() == DataSetKind::kPointSet,
          "GaussianSplatterFilter: input must be a PointSet");
  const auto& ps = static_cast<const PointSet&>(*input);

  AABB box = ps.bounds();
  if (box.is_empty()) box = AABB::of({0, 0, 0}, {1, 1, 1});
  box = box.inflated(box.diagonal() * Real(0.01) + Real(1e-6));

  const Vec3i dims{grid_dim_, grid_dim_, grid_dim_};
  const Vec3f ext = box.extent();
  const Vec3f spacing{ext.x / Real(dims.x - 1), ext.y / Real(dims.y - 1),
                      ext.z / Real(dims.z - 1)};
  auto grid = std::make_unique<StructuredGrid>(dims, box.lo, spacing);
  Field& density = grid->add_scalar_field("density");

  const Real sigma = std::max(box.diagonal() * radius_factor_, Real(1e-6));
  const Real cutoff = 3 * sigma; // truncate the footprint at 3 sigma
  const Real inv_2s2 = Real(1) / (2 * sigma * sigma);

  // Voxel range the truncated kernel touches. The floor/ceil result is
  // clamped in FLOATING POINT before the integer cast: a point far
  // outside the grid (or a huge cutoff) produces values beyond the
  // representable Index range, and float->int conversion of such values
  // is undefined behavior. Clamping to [0, d-1] first keeps the cast
  // in-range for any finite input.
  const auto lo_i = [&](Real x, Real o, Real s, Index d) {
    const Real t = std::floor((x - cutoff - o) / s);
    return static_cast<Index>(clamp(t, Real(0), Real(d - 1)));
  };
  const auto hi_i = [&](Real x, Real o, Real s, Index d) {
    const Real t = std::ceil((x + cutoff - o) / s);
    return static_cast<Index>(clamp(t, Real(0), Real(d - 1)));
  };

  // Point-parallel scatter through per-chunk accumulation grids: every
  // chunk splats its contiguous point range into a private density
  // array (no write sharing), and the chunks are reduced per voxel in
  // ascending chunk order afterwards. The chunk count is a pure
  // function of the input size — never the thread count — so the
  // float-addition order, and therefore the output field, is
  // bit-identical at any thread count. Chunk count is also capped so
  // the private grids stay within ~128 MB.
  const Index n = ps.num_points();
  const std::size_t n_voxels = static_cast<std::size_t>(grid->num_points());
  const Index max_grids = std::max<Index>(
      1, Index(32) * 1024 * 1024 / std::max<Index>(1, grid->num_points()));
  const Index n_chunks = plan_chunks(n, 1024, std::min<Index>(16, max_grids));
  std::vector<std::vector<Real>> partial(static_cast<std::size_t>(n_chunks));
  std::vector<Index> chunk_updates(static_cast<std::size_t>(n_chunks), 0);

  parallel_for_chunks(0, n, n_chunks, [&](Index c, Index b, Index e) {
    std::vector<Real>& acc = partial[static_cast<std::size_t>(c)];
    acc.assign(n_voxels, Real(0));
    Index updates = 0;
    for (Index pi = b; pi < e; ++pi) {
      const Vec3f p = ps.position(pi);
      const Index i0 = lo_i(p.x, box.lo.x, spacing.x, dims.x);
      const Index i1 = hi_i(p.x, box.lo.x, spacing.x, dims.x);
      const Index j0 = lo_i(p.y, box.lo.y, spacing.y, dims.y);
      const Index j1 = hi_i(p.y, box.lo.y, spacing.y, dims.y);
      const Index k0 = lo_i(p.z, box.lo.z, spacing.z, dims.z);
      const Index k1 = hi_i(p.z, box.lo.z, spacing.z, dims.z);
      for (Index k = k0; k <= k1; ++k)
        for (Index j = j0; j <= j1; ++j) {
          for (Index i = i0; i <= i1; ++i) {
            const Vec3f g = grid->point_position(i, j, k);
            const Real d2 = length2(g - p);
            if (d2 > cutoff * cutoff) continue;
            const Index idx = grid->point_index(i, j, k);
            acc[static_cast<std::size_t>(idx)] += std::exp(-d2 * inv_2s2);
            ++updates;
          }
        }
    }
    chunk_updates[static_cast<std::size_t>(c)] = updates;
  });

  // Voxel-parallel ordered reduction: each voxel sums its chunk
  // contributions in ascending chunk order, independent of how the
  // voxel range itself is partitioned across threads.
  parallel_for(0, grid->num_points(), 8192, [&](Index v0, Index v1) {
    for (Index v = v0; v < v1; ++v) {
      Real sum = 0;
      for (Index c = 0; c < n_chunks; ++c)
        sum += partial[static_cast<std::size_t>(c)][static_cast<std::size_t>(v)];
      density.set(v, sum);
    }
  });

  Index voxel_updates = 0;
  for (const Index u : chunk_updates) voxel_updates += u;

  counters.elements_processed += ps.num_points();
  counters.bytes_read += ps.byte_size();
  counters.bytes_written += grid->byte_size();
  counters.flop_estimate += double(voxel_updates) * 12.0;
  counters.max_parallel_items = std::max(counters.max_parallel_items, ps.num_points());
  return grid;
}

std::string GaussianSplatterFilter::cache_signature() const {
  return strprintf("splatter dim=%lld radius=%a", static_cast<long long>(grid_dim_),
                   static_cast<double>(radius_factor_));
}

} // namespace eth
