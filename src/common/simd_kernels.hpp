#pragma once
// Runtime-dispatched SIMD kernel table (DESIGN.md §14).
//
// One kernel is vectorized: the BVH leaf batch, the only lane kernel
// that measured an end-to-end gain (HACC sphere raycasting). Its call
// site in SphereBVH::intersect keeps the scalar loop verbatim and
// consults active_kernels() once per ray: a null table means
// ETH_SIMD=scalar and the scalar loop runs unchanged; a non-null table
// provides the drop-in vectorized equivalent with a bit-identical-
// output contract (lanes are independent spheres, per-element op order
// matches the scalar expression exactly). Every other hot loop is plain
// scalar code; a new kernel belongs here only if it pays end to end.
//
// The signature is deliberately POD — raw pointers, floats and int64
// counts — so this header pulls in no renderer types and the per-ISA
// translation units (simd_kernels_w4.cpp / _w8.cpp) stay leaf
// dependencies. All pointers are caller-validated; `n` counts
// elements, not bytes.

#include <cstdint>

namespace eth::simd {

struct KernelTable {
  const char* name;  ///< ISA label: "sse2", "avx2", "neon", "generic4"
  int width;         ///< float lanes per pack

  /// BVH leaf batch: test spheres [0, n) with SoA centers against one
  /// ray, updating (closest, slot) exactly like the scalar leaf loop
  /// (slot is `base` + local index of the accepted sphere).
  void (*leaf_intersect)(const float* cx, const float* cy, const float* cz,
                         std::int64_t n, std::int64_t base, float ox, float oy,
                         float oz, float dx, float dy, float dz, float radius,
                         float tmin, float& closest, std::int64_t& slot);
};

/// The 4-wide table (SSE2 / NEON / generic reference loops) — always
/// available.
const KernelTable* kernels_w4();

/// The 8-wide AVX2 table, or nullptr when this build has no AVX2 TU.
const KernelTable* kernels_w8();

/// Table for the resolved ISA (simd.hpp): nullptr when scalar.
const KernelTable* active_kernels();

} // namespace eth::simd
