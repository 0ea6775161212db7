#pragma once
// 64-bit content fingerprints for the memoization layer
// (core/artifact_cache.hpp).
//
// The hash is XXH64 (Collet's xxHash, 64-bit variant): a streaming,
// non-cryptographic hash fast enough to fingerprint multi-hundred-MB
// datasets in one pass at memory speed. Incremental updates let a
// WireMessage be fingerprinted segment by segment — zero copies, and
// the digest is independent of how the byte stream is split into
// segments (fingerprint_message of a scatter-gather message equals
// fingerprint_bytes of its flattened stream).
//
// Fingerprints name IMMUTABLE VALUES, never objects: two datasets with
// the same bytes share a fingerprint, and a cache entry keyed by one is
// valid for the other. Derived artifacts chain provenance instead of
// hashing their (possibly large) output: fingerprint_chain(input_fp,
// operation_signature) names "the result of this pure operation on that
// input" without touching the output bytes.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/buffer.hpp"

namespace eth {

/// Streaming XXH64. update() in any increments; digest() at any point
/// (does not disturb the stream state).
class Fingerprinter {
public:
  explicit Fingerprinter(std::uint64_t seed = 0) { reset(seed); }

  void reset(std::uint64_t seed = 0) {
    seed_ = seed;
    v1_ = seed + kP1 + kP2;
    v2_ = seed + kP2;
    v3_ = seed;
    v4_ = seed - kP1;
    buffered_ = 0;
    total_ = 0;
  }

  void update(const void* data, std::size_t len) {
    if (len == 0) return; // `data` may be null (an empty span)
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_ += len;
    if (buffered_ + len < kStripe) { // stays below a full stripe
      std::memcpy(buf_ + buffered_, p, len);
      buffered_ += len;
      return;
    }
    if (buffered_ > 0) { // complete the buffered stripe first
      const std::size_t take = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      consume_stripe(buf_);
      p += take;
      len -= take;
      buffered_ = 0;
    }
    while (len >= kStripe) {
      consume_stripe(p);
      p += kStripe;
      len -= kStripe;
    }
    std::memcpy(buf_, p, len);
    buffered_ = len;
  }

  void update(std::span<const std::uint8_t> bytes) {
    update(bytes.data(), bytes.size());
  }

  // Scalar feeds are canonical little-endian so a fingerprint recipe
  // written once hashes identically on any host.
  void update_u64(std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::big) v = byteswap64(v);
    update(&v, sizeof v);
  }
  void update_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    update_u64(bits);
  }
  void update_f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    update_u64(bits);
  }
  /// Length-prefixed, so consecutive strings cannot alias ("ab","c" vs
  /// "a","bc").
  void update_string(std::string_view s) {
    update_u64(s.size());
    update(s.data(), s.size());
  }

  std::uint64_t digest() const {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = rotl(v1_, 1) + rotl(v2_, 7) + rotl(v3_, 12) + rotl(v4_, 18);
      h = merge_round(h, v1_);
      h = merge_round(h, v2_);
      h = merge_round(h, v3_);
      h = merge_round(h, v4_);
    } else {
      h = seed_ + kP5;
    }
    h += total_;

    const std::uint8_t* p = buf_;
    std::size_t n = buffered_;
    while (n >= 8) {
      h ^= round(0, load64(p));
      h = rotl(h, 27) * kP1 + kP4;
      p += 8;
      n -= 8;
    }
    if (n >= 4) {
      h ^= std::uint64_t(load32(p)) * kP1;
      h = rotl(h, 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    while (n > 0) {
      h ^= std::uint64_t(*p) * kP5;
      h = rotl(h, 11) * kP1;
      ++p;
      --n;
    }

    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  static constexpr std::size_t kStripe = 32;

  static std::uint64_t rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  static std::uint64_t byteswap64(std::uint64_t v) {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out = (out << 8) | ((v >> (8 * i)) & 0xFFu);
    return out;
  }
  static std::uint64_t load64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) v = byteswap64(v);
    return v;
  }
  static std::uint32_t load32(const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
      v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
    return v;
  }
  static std::uint64_t round(std::uint64_t acc, std::uint64_t input) {
    acc += input * kP2;
    acc = rotl(acc, 31);
    acc *= kP1;
    return acc;
  }
  static std::uint64_t merge_round(std::uint64_t h, std::uint64_t v) {
    h ^= round(0, v);
    return h * kP1 + kP4;
  }
  void consume_stripe(const std::uint8_t* p) {
    v1_ = round(v1_, load64(p));
    v2_ = round(v2_, load64(p + 8));
    v3_ = round(v3_, load64(p + 16));
    v4_ = round(v4_, load64(p + 24));
  }

  std::uint64_t seed_ = 0;
  std::uint64_t v1_ = 0, v2_ = 0, v3_ = 0, v4_ = 0;
  std::uint8_t buf_[kStripe]{};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

inline std::uint64_t fingerprint_bytes(std::span<const std::uint8_t> bytes,
                                       std::uint64_t seed = 0) {
  Fingerprinter fp(seed);
  fp.update(bytes);
  return fp.digest();
}

inline std::uint64_t fingerprint_string(std::string_view s, std::uint64_t seed = 0) {
  Fingerprinter fp(seed);
  fp.update(s.data(), s.size());
  return fp.digest();
}

/// One streaming pass over a scatter-gather message, zero copies.
/// Segment boundaries are invisible: equals fingerprint_bytes of the
/// flattened stream.
inline std::uint64_t fingerprint_message(const WireMessage& msg,
                                         std::uint64_t seed = 0) {
  Fingerprinter fp(seed);
  for (const WireMessage::Segment& seg : msg.segments()) fp.update(seg.bytes);
  return fp.digest();
}

/// Provenance chaining: the identity of "pure operation `signature`
/// applied to the value identified by `input_fp`". Derived artifacts
/// get stable fingerprints without hashing their output bytes.
inline std::uint64_t fingerprint_chain(std::uint64_t input_fp,
                                       std::string_view signature) {
  Fingerprinter fp(input_fp);
  fp.update_u64(input_fp);
  fp.update_string(signature);
  return fp.digest();
}

} // namespace eth
