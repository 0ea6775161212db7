#pragma once
// Fixed-width SIMD lane abstraction for the hot kernels (DESIGN.md §14).
//
// simd::pack<T, W> models W independent lanes of T with vertical
// (lane-wise) arithmetic only. The primary template is the scalar
// reference: plain arrays and per-lane loops, valid for any W and the
// semantic contract for every specialization — pack<float, 1> IS the
// scalar path. SSE2 (W=4), AVX2 (W=8) and NEON (W=4) specializations
// are provided under their respective predefined macros.
//
// Determinism contract: every operation here is an IEEE-754 correctly
// rounded vertical op (add/sub/mul/div/sqrt, exact compares/selects,
// exact int<->float conversions within the ranges the kernels use), so
// a vector lane computes bit-identically to the scalar expression with
// the same association. No horizontal reductions, no reciprocal or
// rsqrt approximations, no FMA (the build pins -ffp-contract=off so
// the scalar path cannot silently fuse either). vmin/vmax are defined
// as compare+select — never the asymmetric-NaN min/max instructions —
// so all backends share one semantics.
//
// ODR/encoding hazard: the AVX2 specialization must only be
// instantiated in translation units compiled with -mavx2
// (src/common/simd_kernels_w8.cpp). Members are force-inlined so no
// out-of-line VEX-encoded copy can escape into a baseline TU via
// linker deduplication. Do not instantiate pack<_, 8> elsewhere.
//
// The runtime dispatch layer (resolved ISA, ETH_SIMD override) lives
// at the bottom; the kernel function tables are in simd_kernels.hpp.

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

  static ETH_SIMD_INLINE Mask none_() {
    Mask r;
    for (int i = 0; i < W; ++i) r.m[i] = false;
    return r;
  }
  ETH_SIMD_INLINE bool lane(int i) const { return m[i]; }

  friend ETH_SIMD_INLINE Mask operator&(Mask a, Mask b) {
    Mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] && b.m[i];
    return r;
  }
  friend ETH_SIMD_INLINE Mask operator|(Mask a, Mask b) {
    Mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] || b.m[i];
    return r;
  }
  friend ETH_SIMD_INLINE Mask operator~(Mask a) {
    Mask r;
    for (int i = 0; i < W; ++i) r.m[i] = !a.m[i];
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

template <int W>
ETH_SIMD_INLINE bool any(Mask<W> m) {
  return movemask(m) != 0;
}

template <typename T, int W>
struct pack {
  using value_type = T;
  using mask = Mask<W>;
  static constexpr int width = W;

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
  static ETH_SIMD_INLINE pack iota() {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = T(i);
    return r;
  }
  template <typename I>
  static ETH_SIMD_INLINE pack gather(const T* base, pack<I, W> idx) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = base[idx.v[i]];
    return r;
  }

  ETH_SIMD_INLINE void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = v[i];
  }
  ETH_SIMD_INLINE T lane(int i) const { return v[i]; }
  ETH_SIMD_INLINE void set_lane(int i, T s) { v[i] = s; }

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
  friend ETH_SIMD_INLINE pack operator/(pack a, pack b) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }

  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] < b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] <= b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return b < a; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return b <= a; }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] == b.v[i];
    return r;
  }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) {
    mask r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] != b.v[i];
    return r;
  }

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

/// Truncating float -> int32 conversion (matches static_cast<Index> for
/// in-range values; out-of-range lanes produce the platform sentinel,
/// which the kernels only ever use after an in-range check).
template <int W>
ETH_SIMD_INLINE pack<std::int32_t, W> to_int(pack<float, W> a) {
  pack<std::int32_t, W> r;
  for (int i = 0; i < W; ++i)
    r.v[i] = a.v[i] >= -2147483648.0f && a.v[i] < 2147483648.0f
                 ? static_cast<std::int32_t>(a.v[i])
                 : std::int32_t(-2147483647 - 1);
  return r;
}

/// Exact int32 -> float conversion for |x| < 2^24 (the kernels never
/// convert larger indices).
template <int W>
ETH_SIMD_INLINE pack<float, W> to_float(pack<std::int32_t, W> a) {
  pack<float, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = static_cast<float>(a.v[i]);
  return r;
}

/// Compare+select min/max: identical semantics on every backend (the
/// native SSE min/max instructions are NaN-asymmetric; these are not
/// used so all paths agree with the scalar ternary).
template <typename P>
ETH_SIMD_INLINE P vmin(P a, P b) {
  return P::select(b < a, b, a);
}
template <typename P>
ETH_SIMD_INLINE P vmax(P a, P b) {
  return P::select(a < b, b, a);
}

// ------------------------------------------------------------------
// SSE2 (x86 baseline): W = 4
// ------------------------------------------------------------------
#if defined(__SSE2__)

struct MaskSse {
  __m128 v;

  ETH_SIMD_INLINE bool lane(int i) const {
    return (_mm_movemask_ps(v) >> i) & 1;
  }
  friend ETH_SIMD_INLINE MaskSse operator&(MaskSse a, MaskSse b) {
    return {_mm_and_ps(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskSse operator|(MaskSse a, MaskSse b) {
    return {_mm_or_ps(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskSse operator~(MaskSse a) {
    return {_mm_xor_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(-1)))};
  }
};

ETH_SIMD_INLINE unsigned movemask(MaskSse m) {
  return static_cast<unsigned>(_mm_movemask_ps(m.v));
}
ETH_SIMD_INLINE bool any(MaskSse m) { return movemask(m) != 0; }

template <>
struct pack<float, 4> {
  using value_type = float;
  using mask = MaskSse;
  static constexpr int width = 4;

  __m128 v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {_mm_loadu_ps(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {_mm_set1_ps(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {_mm_setzero_ps()}; }
  static ETH_SIMD_INLINE pack iota() { return {_mm_setr_ps(0, 1, 2, 3)}; }
  template <typename PI>
  static ETH_SIMD_INLINE pack gather(const float* base, PI idx) {
    alignas(16) std::int32_t i[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(i), idx.v);
    return {_mm_setr_ps(base[i[0]], base[i[1]], base[i[2]], base[i[3]])};
  }

  ETH_SIMD_INLINE void store(float* p) const { _mm_storeu_ps(p, v); }
  ETH_SIMD_INLINE float lane(int i) const {
    alignas(16) float x[4];
    _mm_store_ps(x, v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, float s) {
    alignas(16) float x[4];
    _mm_store_ps(x, v);
    x[i] = s;
    v = _mm_load_ps(x);
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {_mm_add_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) {
    return {_mm_xor_ps(a.v, _mm_set1_ps(-0.0f))};
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator/(pack a, pack b) { return {_mm_div_ps(a.v, b.v)}; }

  // Ordered, non-signaling compares: NaN lanes are false, like the
  // scalar operators.
  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) { return {_mm_cmplt_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return {_mm_cmple_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return {_mm_cmplt_ps(b.v, a.v)}; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return {_mm_cmple_ps(b.v, a.v)}; }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) { return {_mm_cmpeq_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) { return {_mm_cmpneq_ps(a.v, b.v)}; }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {_mm_or_ps(_mm_and_ps(c.v, a.v), _mm_andnot_ps(c.v, b.v))};
  }
};

template <>
struct pack<std::int32_t, 4> {
  using value_type = std::int32_t;
  using mask = MaskSse;
  static constexpr int width = 4;

  __m128i v;

  static ETH_SIMD_INLINE pack load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static ETH_SIMD_INLINE pack broadcast(std::int32_t s) { return {_mm_set1_epi32(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {_mm_setzero_si128()}; }
  static ETH_SIMD_INLINE pack iota() { return {_mm_setr_epi32(0, 1, 2, 3)}; }

  ETH_SIMD_INLINE void store(std::int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  ETH_SIMD_INLINE std::int32_t lane(int i) const {
    alignas(16) std::int32_t x[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(x), v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, std::int32_t s) {
    alignas(16) std::int32_t x[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(x), v);
    x[i] = s;
    v = _mm_load_si128(reinterpret_cast<const __m128i*>(x));
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {_mm_add_epi32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {_mm_sub_epi32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) {
    // SSE2 has no 32-bit low multiply (SSE4.1's pmulld); emulate with
    // two widening 32x32->64 multiplies. Low 32 bits are sign-agnostic.
    const __m128i even = _mm_mul_epu32(a.v, b.v);
    const __m128i odd =
        _mm_mul_epu32(_mm_srli_epi64(a.v, 32), _mm_srli_epi64(b.v, 32));
    return {_mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                               _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)))};
  }

  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) {
    return {_mm_castsi128_ps(_mm_cmplt_epi32(a.v, b.v))};
  }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) {
    return {_mm_castsi128_ps(_mm_cmpgt_epi32(a.v, b.v))};
  }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return ~(a > b); }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return ~(a < b); }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) {
    return {_mm_castsi128_ps(_mm_cmpeq_epi32(a.v, b.v))};
  }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) { return ~(a == b); }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    const __m128i ci = _mm_castps_si128(c.v);
    return {_mm_or_si128(_mm_and_si128(ci, a.v), _mm_andnot_si128(ci, b.v))};
  }
};

ETH_SIMD_INLINE pack<float, 4> vsqrt(pack<float, 4> a) { return {_mm_sqrt_ps(a.v)}; }

ETH_SIMD_INLINE pack<std::int32_t, 4> to_int(pack<float, 4> a) {
  return {_mm_cvttps_epi32(a.v)};
}
ETH_SIMD_INLINE pack<float, 4> to_float(pack<std::int32_t, 4> a) {
  return {_mm_cvtepi32_ps(a.v)};
}

#endif // __SSE2__

// ------------------------------------------------------------------
// NEON (aarch64): W = 4
// ------------------------------------------------------------------
#if defined(__ARM_NEON) && !defined(__SSE2__)

struct MaskNeon {
  uint32x4_t v;

  ETH_SIMD_INLINE bool lane(int i) const {
    alignas(16) std::uint32_t x[4];
    vst1q_u32(x, v);
    return x[i] != 0;
  }
  friend ETH_SIMD_INLINE MaskNeon operator&(MaskNeon a, MaskNeon b) {
    return {vandq_u32(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskNeon operator|(MaskNeon a, MaskNeon b) {
    return {vorrq_u32(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskNeon operator~(MaskNeon a) { return {vmvnq_u32(a.v)}; }
};

ETH_SIMD_INLINE unsigned movemask(MaskNeon m) {
  alignas(16) std::uint32_t x[4];
  vst1q_u32(x, m.v);
  return (x[0] & 1u) | ((x[1] & 1u) << 1) | ((x[2] & 1u) << 2) | ((x[3] & 1u) << 3);
}
ETH_SIMD_INLINE bool any(MaskNeon m) { return vmaxvq_u32(m.v) != 0; }

template <>
struct pack<float, 4> {
  using value_type = float;
  using mask = MaskNeon;
  static constexpr int width = 4;

  float32x4_t v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {vld1q_f32(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {vdupq_n_f32(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {vdupq_n_f32(0.0f)}; }
  static ETH_SIMD_INLINE pack iota() {
    alignas(16) const float x[4] = {0, 1, 2, 3};
    return {vld1q_f32(x)};
  }
  template <typename PI>
  static ETH_SIMD_INLINE pack gather(const float* base, PI idx) {
    alignas(16) std::int32_t i[4];
    vst1q_s32(i, idx.v);
    alignas(16) const float x[4] = {base[i[0]], base[i[1]], base[i[2]], base[i[3]]};
    return {vld1q_f32(x)};
  }

  ETH_SIMD_INLINE void store(float* p) const { vst1q_f32(p, v); }
  ETH_SIMD_INLINE float lane(int i) const {
    alignas(16) float x[4];
    vst1q_f32(x, v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, float s) {
    alignas(16) float x[4];
    vst1q_f32(x, v);
    x[i] = s;
    v = vld1q_f32(x);
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {vaddq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {vsubq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) { return {vnegq_f32(a.v)}; }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {vmulq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator/(pack a, pack b) { return {vdivq_f32(a.v, b.v)}; }

  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) { return {vcltq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return {vcleq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return {vcgtq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return {vcgeq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) { return {vceqq_f32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) { return ~(a == b); }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {vbslq_f32(c.v, a.v, b.v)};
  }
};

template <>
struct pack<std::int32_t, 4> {
  using value_type = std::int32_t;
  using mask = MaskNeon;
  static constexpr int width = 4;

  int32x4_t v;

  static ETH_SIMD_INLINE pack load(const std::int32_t* p) { return {vld1q_s32(p)}; }
  static ETH_SIMD_INLINE pack broadcast(std::int32_t s) { return {vdupq_n_s32(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {vdupq_n_s32(0)}; }
  static ETH_SIMD_INLINE pack iota() {
    alignas(16) const std::int32_t x[4] = {0, 1, 2, 3};
    return {vld1q_s32(x)};
  }

  ETH_SIMD_INLINE void store(std::int32_t* p) const { vst1q_s32(p, v); }
  ETH_SIMD_INLINE std::int32_t lane(int i) const {
    alignas(16) std::int32_t x[4];
    vst1q_s32(x, v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, std::int32_t s) {
    alignas(16) std::int32_t x[4];
    vst1q_s32(x, v);
    x[i] = s;
    v = vld1q_s32(x);
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {vaddq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {vsubq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {vmulq_s32(a.v, b.v)}; }

  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) { return {vcltq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) { return {vcgtq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return {vcleq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return {vcgeq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) { return {vceqq_s32(a.v, b.v)}; }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) { return ~(a == b); }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {vbslq_s32(c.v, a.v, b.v)};
  }
};

ETH_SIMD_INLINE pack<float, 4> vsqrt(pack<float, 4> a) { return {vsqrtq_f32(a.v)}; }

ETH_SIMD_INLINE pack<std::int32_t, 4> to_int(pack<float, 4> a) {
  return {vcvtq_s32_f32(a.v)};
}
ETH_SIMD_INLINE pack<float, 4> to_float(pack<std::int32_t, 4> a) {
  return {vcvtq_f32_s32(a.v)};
}

#endif // __ARM_NEON && !__SSE2__

// ------------------------------------------------------------------
// AVX2: W = 8 (only in TUs compiled with -mavx2)
// ------------------------------------------------------------------
#if defined(__AVX2__)

struct MaskAvx {
  __m256 v;

  ETH_SIMD_INLINE bool lane(int i) const {
    return (_mm256_movemask_ps(v) >> i) & 1;
  }
  friend ETH_SIMD_INLINE MaskAvx operator&(MaskAvx a, MaskAvx b) {
    return {_mm256_and_ps(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskAvx operator|(MaskAvx a, MaskAvx b) {
    return {_mm256_or_ps(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE MaskAvx operator~(MaskAvx a) {
    return {_mm256_xor_ps(a.v, _mm256_castsi256_ps(_mm256_set1_epi32(-1)))};
  }
};

ETH_SIMD_INLINE unsigned movemask(MaskAvx m) {
  return static_cast<unsigned>(_mm256_movemask_ps(m.v));
}
ETH_SIMD_INLINE bool any(MaskAvx m) { return movemask(m) != 0; }

template <>
struct pack<float, 8> {
  using value_type = float;
  using mask = MaskAvx;
  static constexpr int width = 8;

  __m256 v;

  static ETH_SIMD_INLINE pack load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static ETH_SIMD_INLINE pack broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static ETH_SIMD_INLINE pack zero() { return {_mm256_setzero_ps()}; }
  static ETH_SIMD_INLINE pack iota() {
    return {_mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7)};
  }
  template <typename PI>
  static ETH_SIMD_INLINE pack gather(const float* base, PI idx) {
    return {_mm256_i32gather_ps(base, idx.v, 4)};
  }

  ETH_SIMD_INLINE void store(float* p) const { _mm256_storeu_ps(p, v); }
  ETH_SIMD_INLINE float lane(int i) const {
    alignas(32) float x[8];
    _mm256_store_ps(x, v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, float s) {
    alignas(32) float x[8];
    _mm256_store_ps(x, v);
    x[i] = s;
    v = _mm256_load_ps(x);
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator-(pack a) {
    return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f))};
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend ETH_SIMD_INLINE pack operator/(pack a, pack b) { return {_mm256_div_ps(a.v, b.v)}; }

  // _CMP_*_OQ: ordered, quiet — NaN lanes compare false like scalar.
  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_NEQ_UQ)};
  }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {_mm256_blendv_ps(b.v, a.v, c.v)};
  }
};

template <>
struct pack<std::int32_t, 8> {
  using value_type = std::int32_t;
  using mask = MaskAvx;
  static constexpr int width = 8;

  __m256i v;

  static ETH_SIMD_INLINE pack load(const std::int32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static ETH_SIMD_INLINE pack broadcast(std::int32_t s) {
    return {_mm256_set1_epi32(s)};
  }
  static ETH_SIMD_INLINE pack zero() { return {_mm256_setzero_si256()}; }
  static ETH_SIMD_INLINE pack iota() {
    return {_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)};
  }

  ETH_SIMD_INLINE void store(std::int32_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  ETH_SIMD_INLINE std::int32_t lane(int i) const {
    alignas(32) std::int32_t x[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(x), v);
    return x[i];
  }
  ETH_SIMD_INLINE void set_lane(int i, std::int32_t s) {
    alignas(32) std::int32_t x[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(x), v);
    x[i] = s;
    v = _mm256_load_si256(reinterpret_cast<const __m256i*>(x));
  }

  friend ETH_SIMD_INLINE pack operator+(pack a, pack b) {
    return {_mm256_add_epi32(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE pack operator-(pack a, pack b) {
    return {_mm256_sub_epi32(a.v, b.v)};
  }
  friend ETH_SIMD_INLINE pack operator*(pack a, pack b) {
    return {_mm256_mullo_epi32(a.v, b.v)};
  }

  friend ETH_SIMD_INLINE mask operator>(pack a, pack b) {
    return {_mm256_castsi256_ps(_mm256_cmpgt_epi32(a.v, b.v))};
  }
  friend ETH_SIMD_INLINE mask operator<(pack a, pack b) { return b > a; }
  friend ETH_SIMD_INLINE mask operator<=(pack a, pack b) { return ~(a > b); }
  friend ETH_SIMD_INLINE mask operator>=(pack a, pack b) { return ~(b > a); }
  friend ETH_SIMD_INLINE mask operator==(pack a, pack b) {
    return {_mm256_castsi256_ps(_mm256_cmpeq_epi32(a.v, b.v))};
  }
  friend ETH_SIMD_INLINE mask operator!=(pack a, pack b) { return ~(a == b); }

  static ETH_SIMD_INLINE pack select(mask c, pack a, pack b) {
    return {_mm256_castps_si256(
        _mm256_blendv_ps(_mm256_castsi256_ps(b.v), _mm256_castsi256_ps(a.v), c.v))};
  }
};

ETH_SIMD_INLINE pack<float, 8> vsqrt(pack<float, 8> a) { return {_mm256_sqrt_ps(a.v)}; }

ETH_SIMD_INLINE pack<std::int32_t, 8> to_int(pack<float, 8> a) {
  return {_mm256_cvttps_epi32(a.v)};
}
ETH_SIMD_INLINE pack<float, 8> to_float(pack<std::int32_t, 8> a) {
  return {_mm256_cvtepi32_ps(a.v)};
}

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
