#include "data/compression.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"

namespace eth {
namespace {

TEST(QuantizePack, RoundTripWithinErrorBound) {
  Rng rng(5);
  std::vector<Real> values(1000);
  for (Real& v : values) v = Real(rng.uniform(-50, 150));
  for (const int bits : {4, 8, 12, 16, 24}) {
    std::vector<std::uint8_t> packed;
    quantize_pack(values, bits, -50, 150, packed);
    EXPECT_EQ(packed.size(), (values.size() * static_cast<std::size_t>(bits) + 7) / 8);
    std::vector<Real> restored(values.size());
    unpack_dequantize(packed, 0, 1000, bits, -50, 150, restored);
    // At high bit depths the quantization step approaches float32 ULP
    // at this magnitude; allow a few ULPs of rounding on top.
    const Real bound =
        quantization_error_bound(-50, 150, bits) * 1.01f + 200.0f * 1e-6f;
    for (std::size_t i = 0; i < values.size(); ++i)
      EXPECT_LE(std::abs(values[i] - restored[i]), bound) << "bits=" << bits;
  }
}

TEST(QuantizePack, ErrorBoundShrinksWithBits) {
  EXPECT_GT(quantization_error_bound(0, 1, 4), quantization_error_bound(0, 1, 8));
  EXPECT_GT(quantization_error_bound(0, 1, 8), quantization_error_bound(0, 1, 16));
  EXPECT_THROW(quantization_error_bound(0, 1, 0), Error);
  EXPECT_THROW(quantization_error_bound(0, 1, 25), Error);
}

TEST(QuantizePack, ConstantArrayIsExact) {
  std::vector<Real> values(64, 7.5f);
  std::vector<std::uint8_t> packed;
  quantize_pack(values, 8, 7.5f, 7.5f, packed);
  std::vector<Real> restored(64);
  unpack_dequantize(packed, 0, 64, 8, 7.5f, 7.5f, restored);
  for (const Real v : restored) EXPECT_EQ(v, 7.5f);
}

PointSet make_particles(Index n = 500) {
  PointSet ps(n);
  Rng rng(9);
  Field speed("speed", n, 1);
  for (Index i = 0; i < n; ++i) {
    ps.set_position(i, rng.point_in_box({0, 0, 0}, {100, 100, 100}));
    speed.set(i, Real(rng.uniform(0, 300)));
  }
  ps.point_fields().add(std::move(speed));
  return ps;
}

TEST(CompressDataset, PointSetRoundTripWithinBound) {
  const PointSet ps = make_particles();
  const auto compressed = compress_dataset(ps, 16);
  const auto restored = decompress_dataset(compressed);
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  ASSERT_EQ(r.num_points(), ps.num_points());
  const Real pos_bound = quantization_error_bound(0, 100, 16) * 1.01f;
  for (Index i = 0; i < ps.num_points(); ++i)
    EXPECT_LE(length(r.position(i) - ps.position(i)), pos_bound * 2);
  const Real speed_bound = quantization_error_bound(0, 300, 16) * 1.01f;
  for (Index i = 0; i < ps.num_points(); ++i)
    EXPECT_LE(std::abs(r.point_fields().get("speed").get(i) -
                       ps.point_fields().get("speed").get(i)),
              speed_bound);
}

TEST(CompressDataset, CompressionActuallySavesBytes) {
  const PointSet ps = make_particles(5000);
  const auto plain = wire_message_for_dataset(ps).flatten();
  const auto q8 = compress_dataset(ps, 8);
  const auto q16 = compress_dataset(ps, 16);
  // 8-bit: ~4x smaller than 32-bit floats (minus headers).
  EXPECT_LT(double(q8.size()), 0.35 * double(plain.size()));
  EXPECT_LT(q8.size(), q16.size());
  EXPECT_LT(q16.size(), plain.size());
}

TEST(CompressDataset, GridRoundTrip) {
  StructuredGrid grid({8, 6, 5}, {1, 2, 3}, {0.5f, 0.5f, 0.5f});
  Field& f = grid.add_scalar_field("temperature");
  Rng rng(3);
  for (Index i = 0; i < grid.num_points(); ++i) f.set(i, Real(rng.uniform()));

  const auto compressed = compress_dataset(grid, 12);
  const auto restored = decompress_dataset(compressed);
  ASSERT_EQ(restored->kind(), DataSetKind::kStructuredGrid);
  const auto& r = static_cast<const StructuredGrid&>(*restored);
  EXPECT_EQ(r.dims(), (Vec3i{8, 6, 5}));
  EXPECT_EQ(r.origin(), (Vec3f{1, 2, 3}));
  const Real bound = quantization_error_bound(0, 1, 12) * 1.05f;
  for (Index i = 0; i < grid.num_points(); ++i)
    EXPECT_LE(std::abs(r.point_fields().get("temperature").get(i) - f.get(i)), bound);
}

TEST(CompressDataset, MoreBitsLessError) {
  const PointSet ps = make_particles(2000);
  double last_err = 1e30;
  for (const int bits : {4, 8, 12, 16}) {
    const auto restored = decompress_dataset(compress_dataset(ps, bits));
    const auto& r = static_cast<const PointSet&>(*restored);
    double err = 0;
    for (Index i = 0; i < ps.num_points(); ++i)
      err += double(length(r.position(i) - ps.position(i)));
    EXPECT_LT(err, last_err);
    last_err = err;
  }
}

TEST(CompressDataset, RejectsBadInput) {
  const PointSet ps = make_particles(10);
  EXPECT_THROW(compress_dataset(ps, 0), Error);
  EXPECT_THROW(compress_dataset(ps, 32), Error);
  TriangleMesh mesh;
  EXPECT_THROW(compress_dataset(mesh, 8), Error);

  auto bytes = compress_dataset(ps, 8);
  bytes.resize(4);
  EXPECT_THROW(decompress_dataset(bytes), Error);
  auto bytes2 = compress_dataset(ps, 8);
  bytes2[9] ^= 0xFF; // corrupt the magic
  EXPECT_THROW(decompress_dataset(bytes2), Error);
}

// ---- non-finite hardening: a NaN/Inf value must not poison the range
// or abort the run; it quantizes to the deterministic code 0 and
// reconstructs as the array's finite lo.

TEST(QuantizePack, NonFiniteValuesRoundTripDeterministically) {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const std::vector<Real> values{1.0f, nan, 3.0f, inf, 2.0f, -inf, 4.0f};
  std::vector<std::uint8_t> packed;
  quantize_pack(values, 8, 1.0f, 4.0f, packed);
  std::vector<Real> restored(values.size());
  unpack_dequantize(packed, 0, Index(values.size()), 8, 1.0f, 4.0f, restored);
  const Real bound = quantization_error_bound(1.0f, 4.0f, 8) * 1.01f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isfinite(values[i])) {
      EXPECT_LE(std::abs(values[i] - restored[i]), bound) << "i=" << i;
    } else {
      // Deterministic: code 0 reconstructs as lo (mid-rise offset).
      EXPECT_TRUE(std::isfinite(restored[i])) << "i=" << i;
      EXPECT_EQ(restored[i], restored[1]) << "i=" << i;
    }
  }
  // Bit-determinism of the packed stream itself.
  std::vector<std::uint8_t> packed2;
  quantize_pack(values, 8, 1.0f, 4.0f, packed2);
  EXPECT_EQ(packed, packed2);
}

TEST(CompressDataset, NanPoisonedFieldRoundTrips) {
  PointSet ps = make_particles(100);
  Field& speed = ps.point_fields().get("speed");
  speed.set(3, std::numeric_limits<Real>::quiet_NaN());
  speed.set(57, std::numeric_limits<Real>::infinity());
  speed.set(58, -std::numeric_limits<Real>::infinity());
  // Must not throw, and the compressed stream must decode.
  const auto bytes = compress_dataset(ps, 8);
  const auto restored = decompress_dataset(bytes);
  const auto& r = static_cast<const PointSet&>(*restored);
  const Field& rs = r.point_fields().get("speed");
  // The range came from the FINITE values only, so finite entries are
  // still within the quantization bound of a sane range.
  Real lo = 1e30f, hi = -1e30f;
  for (Index i = 0; i < ps.num_points(); ++i) {
    const Real v = speed.get(i);
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const Real bound = quantization_error_bound(lo, hi, 8) * 1.01f + 1e-3f;
  for (Index i = 0; i < ps.num_points(); ++i) {
    EXPECT_TRUE(std::isfinite(rs.get(i))) << "i=" << i;
    if (std::isfinite(speed.get(i)))
      EXPECT_LE(std::abs(speed.get(i) - rs.get(i)), bound) << "i=" << i;
  }
  // Determinism: same input, same bytes.
  EXPECT_EQ(compress_dataset(ps, 8), bytes);
}

TEST(CompressDataset, AllNonFiniteFieldRoundTrips) {
  PointSet ps = make_particles(10);
  Field& speed = ps.point_fields().get("speed");
  for (Index i = 0; i < ps.num_points(); ++i)
    speed.set(i, std::numeric_limits<Real>::quiet_NaN());
  const auto restored = decompress_dataset(compress_dataset(ps, 8));
  const Field& rs =
      static_cast<const PointSet&>(*restored).point_fields().get("speed");
  // Degenerate all-NaN range is {0, 0}: everything reconstructs finite.
  for (Index i = 0; i < ps.num_points(); ++i)
    EXPECT_TRUE(std::isfinite(rs.get(i))) << "i=" << i;
}

// ---- untrusted-input hardening: decompress_dataset is fed bytes that
// crossed the wire, so every malformed prefix/suffix must be rejected
// as a classified TransportError — never a crash, hang, OOM or silent
// misparse.

TEST(CompressDataset, EveryTruncatedPrefixThrowsTransportError) {
  const PointSet ps = make_particles(40);
  const std::vector<std::uint8_t> bytes = compress_dataset(ps, 10);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decompress_dataset(prefix), TransportError) << "cut=" << cut;
  }
}

TEST(CompressDataset, TrailingBytesThrowCorrupt) {
  const PointSet ps = make_particles(25);
  std::vector<std::uint8_t> bytes = compress_dataset(ps, 8);
  bytes.push_back(0x00);
  try {
    decompress_dataset(bytes);
    FAIL() << "oversized payload accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(CompressDataset, RandomDamageNeverCrashes) {
  const PointSet ps = make_particles(60);
  const std::vector<std::uint8_t> pristine = compress_dataset(ps, 12);
  Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> damaged = pristine;
    // Flip 1-4 random bytes anywhere in the stream (header included).
    const int flips = 1 + int(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f)
      damaged[rng.uniform_index(damaged.size())] ^=
          std::uint8_t(1 + rng.uniform_index(255));
    try {
      const auto restored = decompress_dataset(damaged);
      // Damage that evades the structural checks may decode; the
      // result must still be a well-formed dataset.
      EXPECT_GE(restored->num_points(), 0);
    } catch (const TransportError&) {
      // classified rejection: expected for most damage
    }
  }
}

TEST(CompressDataset, UnpackRejectsCountBeyondPayload) {
  std::vector<Real> values(16, 1.0f);
  std::vector<std::uint8_t> packed;
  quantize_pack(values, 8, 0.0f, 2.0f, packed);
  std::vector<Real> restored(32);
  // Asking for more codes than the packed span holds is a truncation.
  try {
    unpack_dequantize(packed, 0, 32, 8, 0.0f, 2.0f, restored);
    FAIL() << "oversized count accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kTruncated);
  }
  // An offset past the end of the span is a truncation too.
  try {
    unpack_dequantize(packed, packed.size() + 1, 1, 8, 0.0f, 2.0f,
                      std::span<Real>(restored.data(), 1));
    FAIL() << "offset past end accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kTruncated);
  }
}

} // namespace
} // namespace eth
