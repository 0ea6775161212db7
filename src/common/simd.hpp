#pragma once
// Fixed-width SIMD lane abstraction for the BVH leaf kernel (DESIGN.md
// §14).
//
// simd::pack<float, W> models W independent float lanes with vertical
// (lane-wise) arithmetic only. The primary template is the scalar
// reference: plain arrays and per-lane loops, valid for any W and the
// semantic contract for every specialization — pack<float, 1> IS the
// scalar path. SSE2 (W=4), AVX2 (W=8) and NEON (W=4) specializations
// are provided under their respective predefined macros. The pack
// carries exactly the operations the kernel uses.
//
// Determinism contract: every operation here is an IEEE-754 correctly
// rounded vertical op (add/sub/mul/sqrt, exact ordered compares and
// selects), so a vector lane computes bit-identically to the scalar
// expression with the same association. No horizontal reductions, no
// rsqrt approximations, no FMA (the build pins -ffp-contract=off so
// the scalar path cannot silently fuse either).
//
// ODR/encoding hazard: the AVX2 specialization must only be
// instantiated in translation units compiled with -mavx2
// (src/common/simd_kernels_w8.cpp). Members are force-inlined so no
// out-of-line VEX-encoded copy can escape into a baseline TU via
// linker deduplication. Do not instantiate pack<_, 8> elsewhere.
//
// The runtime dispatch layer (resolved ISA, ETH_SIMD override) lives
// at the bottom; the kernel function table is in simd_kernels.hpp.

#include <cmath>
#include <cstdint>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define ETH_SIMD_INLINE inline __attribute__((always_inline))
#else
#define ETH_SIMD_INLINE inline
#endif

namespace eth::simd {

// ------------------------------------------------------------------
// Generic reference implementation (any W; W=1 is the scalar contract)
// ------------------------------------------------------------------

template <int W>
struct Mask {
  bool m[W];

  friend ETH_SIMD_INLINE Mask operator&(Mask a, Mask b) {
    Mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] && b.m[i];
    return r;
  }
};

/// Lane l -> bit l.
template <int W>
ETH_SIMD_INLINE unsigned movemask(Mask<W> m) {
  unsigned bits = 0;
  for (int i = 0; i < W; ++i)
    if (m.m[i]) bits |= 1u << i;
  return bits;
}

template <typename T, int W>
struct pack {
  using mask = Mask<W>;

  T v[W];

  static ETH_SIMD_INLINE pack load(const T* p) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static ETH_SIMD_INLINE pack broadcast(T s) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = s;
    return r;
  }
  static ETH_SIMD_INLINE pack zero() { return broadcast(T(0)); }

  ETH_SIMD_INLINE void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = v[i];
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE pack operator-(pack a) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }

  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] <= b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] > b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return b <= a; }

  /// Lane-wise `c ? a : b`.
  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = c.m[i] ? a.v[i] : b.v[i];
    return r;
  }
};

template <typename T, int W>
ETH_SIMD_INLINE pack<T, W> vsqrt(pack<T, W> a) {
  pack<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}

// ------------------------------------------------------------------
// SSE2 (x86 baseline): W = 4
// ------------------------------------------------------------------
#if defined(__SSE2__)

struct MaskSse {
  __m128 v;

  friend ETH_SIMD_INLINE MaskSse operator&(MaskSse a, MaskSse b) {
    return {_mm_and_ps(a.v, b.v)};
  }
};

ETH_SIMD_INLINE unsigned movemask(MaskSse m) {
  return static_cast<unsigned>(_mm_movemask_ps(m.v));
}

template <>
struct pack<float, 4> {
  using mask = MaskSse;

  __m128 v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {_mm_loadu_ps(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {_mm_set1_ps(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {_mm_setzero_ps()}; }

  ETH_SIMD_INLINE void store(float* p) const { _mm_storeu_ps(p, v); }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {_mm_add_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) {
    return {_mm_xor_ps(a.v, _mm_set1_ps(-0.0f))};
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {_mm_mul_ps(a.v, b.v)}; }

  // Ordered, non-signaling compares: NaN lanes are false, like the
  // scalar operators.
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return {_mm_cmple_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return {_mm_cmplt_ps(b.v, a.v)}; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return {_mm_cmple_ps(b.v, a.v)}; }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {_mm_or_ps(_mm_and_ps(c.v, a.v), _mm_andnot_ps(c.v, b.v))};
  }
};

ETH_SIMD_INLINE pack<float, 4> vsqrt(pack<float, 4> a) { return {_mm_sqrt_ps(a.v)}; }

#endif // __SSE2__

// ------------------------------------------------------------------
// NEON (aarch64): W = 4
// ------------------------------------------------------------------
#if defined(__ARM_NEON) && !defined(__SSE2__)

struct MaskNeon {
  uint32x4_t v;

  friend ETH_SIMD_INLINE MaskNeon operator&(MaskNeon a, MaskNeon b) {
    return {vandq_u32(a.v, b.v)};
  }
};

ETH_SIMD_INLINE unsigned movemask(MaskNeon m) {
  alignas(16) std::uint32_t x[4];
  vst1q_u32(x, m.v);
  return (x[0] & 1u) | ((x[1] & 1u) << 1) | ((x[2] & 1u) << 2) | ((x[3] & 1u) << 3);
}

template <>
struct pack<float, 4> {
  using mask = MaskNeon;

  float32x4_t v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {vld1q_f32(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {vdupq_n_f32(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {vdupq_n_f32(0.0f)}; }

  ETH_SIMD_INLINE void store(float* p) const { vst1q_f32(p, v); }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {vaddq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {vsubq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) { return {vnegq_f32(a.v)}; }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {vmulq_f32(a.v, b.v)}; }

  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return {vcleq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return {vcgtq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return {vcgeq_f32(a.v, b.v)}; }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {vbslq_f32(c.v, a.v, b.v)};
  }
};

ETH_SIMD_INLINE pack<float, 4> vsqrt(pack<float, 4> a) { return {vsqrtq_f32(a.v)}; }

#endif // __ARM_NEON && !__SSE2__

// ------------------------------------------------------------------
// AVX2: W = 8 (only in TUs compiled with -mavx2)
// ------------------------------------------------------------------
#if defined(__AVX2__)

struct MaskAvx {
  __m256 v;

  friend ETH_SIMD_INLINE MaskAvx operator&(MaskAvx a, MaskAvx b) {
    return {_mm256_and_ps(a.v, b.v)};
  }
};

ETH_SIMD_INLINE unsigned movemask(MaskAvx m) {
  return static_cast<unsigned>(_mm256_movemask_ps(m.v));
}

template <>
struct pack<float, 8> {
  using mask = MaskAvx;

  __m256 v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {_mm256_setzero_ps()}; }

  ETH_SIMD_INLINE void store(float* p) const { _mm256_storeu_ps(p, v); }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) {
    return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f))};
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {_mm256_mul_ps(a.v, b.v)}; }

  // _CMP_*_OQ: ordered, quiet — NaN lanes compare false like scalar.
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)};
  }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {_mm256_blendv_ps(b.v, a.v, c.v)};
  }
};

ETH_SIMD_INLINE pack<float, 8> vsqrt(pack<float, 8> a) { return {_mm256_sqrt_ps(a.v)}; }

#endif // __AVX2__

// ------------------------------------------------------------------
// Runtime ISA resolution (ETH_SIMD env override; simd.cpp)
// ------------------------------------------------------------------

/// The active ISA is the ETH_SIMD knob (common/knobs.hpp): native is
/// the widest tier this build + CPU supports; an unavailable tier is an
/// eth::Error. Test/bench override: name as in ETH_SIMD, nullptr or ""
/// returns to env resolution. Not while kernels run.
void set_isa_override(const char* name);

/// Short label for traces, CSVs and --dry-run output: "scalar",
/// "sse2", "avx2" ("neon"/"generic4" on non-x86 4-wide builds).
std::string isa_label();

} // namespace eth::simd
