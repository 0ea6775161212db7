#pragma once
// Width-templated body of the KernelTable entry, included ONLY by
// the per-ISA translation units (simd_kernels_w4.cpp / _w8.cpp). Each
// TU instantiates its own width so the symbols stay distinct — an
// AVX2-compiled instantiation can never be COMDAT-folded into the
// baseline table (which would jump VEX-encoded code on a pre-AVX CPU).
//
// The kernel mirrors its scalar loop EXPRESSION BY EXPRESSION — same
// association, same compares, same select structure — which with
// -ffp-contract=off and the vertical-ops-only pack contract makes the
// output bit-identical to the scalar path. The comment names the
// mirrored loop; when editing one side, edit the other.

#include <bit>
#include <cmath>

#include "common/simd.hpp"
#include "common/simd_kernels.hpp"

namespace eth::simd::impl {

// ------------------------------------------------------------ bvh leaf
// Mirrors ray_sphere() + the leaf accept loop in SphereBVH::intersect
// (src/render/ray/bvh.cpp). Roots do not depend on the running
// `closest`, so the block computes all W candidate roots with vertical
// ops and then scans accepted lanes in ascending order — reproducing
// the scalar closest/slot update sequence exactly.
template <int W>
void leaf_intersect(const float* cx, const float* cy, const float* cz,
                    std::int64_t n, std::int64_t base, float ox, float oy,
                    float oz, float dx, float dy, float dz, float radius,
                    float tmin, float& closest, std::int64_t& slot) {
  using pf = pack<float, W>;
  using mask = typename pf::mask;

  const pf oxv = pf::broadcast(ox), oyv = pf::broadcast(oy), ozv = pf::broadcast(oz);
  const pf dxv = pf::broadcast(dx), dyv = pf::broadcast(dy), dzv = pf::broadcast(dz);
  const pf rrv = pf::broadcast(radius * radius);
  const pf tminv = pf::broadcast(tmin);
  const pf zerov = pf::zero();

  float roots[W];
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const pf ocx = oxv - pf::load(cx + i);
    const pf ocy = oyv - pf::load(cy + i);
    const pf ocz = ozv - pf::load(cz + i);
    // half_b = dot(oc, dir); c = length2(oc) - radius^2 (left-to-right)
    const pf half_b = ocx * dxv + ocy * dyv + ocz * dzv;
    const pf c = (ocx * ocx + ocy * ocy + ocz * ocz) - rrv;
    const pf disc = half_b * half_b - c;
    const pf sqrt_d = vsqrt(disc);
    const pf t_near = -half_b - sqrt_d;
    const pf t_far = -half_b + sqrt_d;
    // Scalar: if (t <= tmin) use the far root; reject t <= tmin and the
    // caller's t > 0 filter. NaN disc lanes fail every compare, like
    // the scalar NaN propagation.
    const pf root = pf::select(t_near <= tminv, t_far, t_near);
    const mask valid = (disc >= zerov) & (root > tminv) & (root > zerov);
    unsigned bits = movemask(valid);
    if (bits == 0) continue;
    root.store(roots);
    while (bits != 0) {
      const int l = std::countr_zero(bits);
      bits &= bits - 1;
      const float t = roots[l];
      if (t < closest) { // scalar: t >= tmax (running closest) rejects
        closest = t;
        slot = base + i + l;
      }
    }
  }
  for (; i < n; ++i) { // scalar tail: ray_sphere verbatim
    const float ocx = ox - cx[i], ocy = oy - cy[i], ocz = oz - cz[i];
    const float half_b = ocx * dx + ocy * dy + ocz * dz;
    const float c = (ocx * ocx + ocy * ocy + ocz * ocz) - radius * radius;
    const float disc = half_b * half_b - c;
    if (disc < 0) continue;
    const float sqrt_d = std::sqrt(disc);
    float t = -half_b - sqrt_d;
    if (t <= tmin) t = -half_b + sqrt_d;
    if (t <= tmin || t >= closest) continue;
    if (t > 0) {
      closest = t;
      slot = base + i;
    }
  }
}

/// The table for one width, shared by the per-ISA TUs.
template <int W>
constexpr KernelTable make_table(const char* name) {
  return KernelTable{name, W, &leaf_intersect<W>};
}

} // namespace eth::simd::impl
