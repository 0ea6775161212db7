#include "data/point_set.hpp"

#include <algorithm>

namespace eth {

AABB PointSet::bounds() const {
  AABB box;
  for (const Vec3f& p : positions_) box.extend(p);
  return box;
}

void PointSet::resize(Index n) {
  require(n >= 0, "PointSet::resize: negative size");
  positions_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < point_fields().size(); ++i) point_fields().at(i).resize(n);
}

PointSet PointSet::subset(std::span<const Index> keep) const {
  const Index n = num_points();
  require(std::all_of(keep.begin(), keep.end(), [n](Index i) { return i >= 0 && i < n; }),
          "PointSet::subset: index out of range");
  PointSet out(static_cast<Index>(keep.size()));
  const std::span<const Vec3f> src_pos = positions();
  const std::span<Vec3f> dst_pos = out.positions();
  for (std::size_t k = 0; k < keep.size(); ++k)
    dst_pos[k] = src_pos[static_cast<std::size_t>(keep[k])];
  for (const Field& src : point_fields()) {
    Field& dst = out.point_fields().add(
        Field(src.name(), out.num_points(), src.components(), src.association()));
    const Real* from = src.values().data();
    Real* to = dst.values().data();
    // Scalars and 3-vectors (ids, velocities, speeds) get fixed-width
    // copies; a per-tuple copy call would dominate the gather.
    switch (const auto comps = static_cast<std::size_t>(src.components()); comps) {
    case 1:
      for (std::size_t k = 0; k < keep.size(); ++k) to[k] = from[keep[k]];
      break;
    case 3:
      for (std::size_t k = 0; k < keep.size(); ++k) {
        const Real* tuple = from + 3 * static_cast<std::size_t>(keep[k]);
        to[3 * k] = tuple[0];
        to[3 * k + 1] = tuple[1];
        to[3 * k + 2] = tuple[2];
      }
      break;
    default:
      for (std::size_t k = 0; k < keep.size(); ++k)
        for (std::size_t c = 0; c < comps; ++c)
          to[k * comps + c] = from[static_cast<std::size_t>(keep[k]) * comps + c];
    }
  }
  return out;
}

} // namespace eth
