// LzCodec: the in-repo LZ4-class block codec (DESIGN.md §15).
//
// The suite pins the three contracts the wire path depends on:
// lossless round trips over adversarially-shaped inputs (empty, tiny,
// incompressible, highly repetitive, overlapping matches), strict
// classified rejection of malformed streams (kTruncated vs
// kCorruptFrame, never a crash or an out-of-bounds read), and bit
// determinism of the coded bytes (golden wire fixtures assume the
// same input always compresses to the same stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/lz.hpp"
#include "common/rng.hpp"

namespace eth {
namespace {

std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& src) {
  const std::vector<std::uint8_t> coded = lz::compress(src);
  EXPECT_LE(coded.size(), lz::max_compressed_size(src.size()));
  std::vector<std::uint8_t> out(src.size());
  lz::decompress(coded, out);
  return out;
}

TEST(LzCodec, EmptyInputRoundTrips) {
  const std::vector<std::uint8_t> src;
  EXPECT_EQ(roundtrip(src), src);
}

TEST(LzCodec, TinyInputsRoundTrip) {
  // Below the matcher's minimum useful size everything is one literal
  // run; each length from 1 to 20 exercises the token edge cases.
  for (std::size_t n = 1; n <= 20; ++n) {
    std::vector<std::uint8_t> src(n);
    std::iota(src.begin(), src.end(), std::uint8_t(7));
    EXPECT_EQ(roundtrip(src), src) << "n=" << n;
  }
}

TEST(LzCodec, IncompressibleRandomRoundTrips) {
  Rng rng(42);
  std::vector<std::uint8_t> src(10000);
  for (auto& b : src) b = std::uint8_t(rng.next_u64());
  EXPECT_EQ(roundtrip(src), src);
  // Random bytes must not explode: the stored bound holds.
  EXPECT_LE(lz::compress(src).size(), lz::max_compressed_size(src.size()));
}

TEST(LzCodec, HighlyRepetitiveCompressesHard) {
  const std::vector<std::uint8_t> src(100000, std::uint8_t(0xAB));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  EXPECT_LT(coded.size(), src.size() / 50);
  std::vector<std::uint8_t> out(src.size());
  lz::decompress(coded, out);
  EXPECT_EQ(out, src);
}

TEST(LzCodec, OverlappingMatchesRoundTrip) {
  // Period-1/2/3 runs force offset < match length, the classic RLE
  // overlap case the decoder must copy byte-wise.
  for (const std::size_t period : {std::size_t(1), std::size_t(2), std::size_t(3)}) {
    std::vector<std::uint8_t> src;
    for (std::size_t i = 0; i < 5000; ++i)
      src.push_back(std::uint8_t('A' + i % period));
    EXPECT_EQ(roundtrip(src), src) << "period=" << period;
  }
}

TEST(LzCodec, LongLiteralAndMatchRunsRoundTrip) {
  // > 15 + several 255-runs in both the literal and match nibbles.
  Rng rng(7);
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 2000; ++i) src.push_back(std::uint8_t(rng.next_u64()));
  src.insert(src.end(), 4000, std::uint8_t(0x11)); // long match run
  for (std::size_t i = 0; i < 1000; ++i) src.push_back(std::uint8_t(rng.next_u64()));
  EXPECT_EQ(roundtrip(src), src);
}

TEST(LzCodec, MixedStructuredPayloadRoundTrips) {
  // Float-like payload: slowly-varying values whose shuffled byte
  // planes repeat — the wire path's actual workload shape.
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 20000; ++i) {
    const float v = 1.0f + 1e-4f * float(i % 977);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    src.insert(src.end(), p, p + sizeof(float));
  }
  const std::vector<std::uint8_t> shuffled = lz::byte_shuffle(src, 4);
  const std::vector<std::uint8_t> coded = lz::compress(shuffled);
  EXPECT_LT(coded.size(), src.size());
  std::vector<std::uint8_t> out(shuffled.size());
  lz::decompress(coded, out);
  EXPECT_EQ(lz::byte_unshuffle(out, 4), src);
}

TEST(LzCodec, CompressionIsDeterministic) {
  Rng rng(123);
  std::vector<std::uint8_t> src(50000);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::uint8_t(i % 251 == 0 ? rng.next_u64() : i / 97);
  EXPECT_EQ(lz::compress(src), lz::compress(src));
}

// ---- shuffle preconditioner

TEST(LzCodec, ShuffleIsLosslessIncludingRemainderTail) {
  Rng rng(9);
  for (const std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(3),
                              std::size_t(4), std::size_t(5), std::size_t(17),
                              std::size_t(4096), std::size_t(4097)}) {
    std::vector<std::uint8_t> src(n);
    for (auto& b : src) b = std::uint8_t(rng.next_u64());
    const auto shuffled = lz::byte_shuffle(src, 4);
    ASSERT_EQ(shuffled.size(), src.size()) << "n=" << n;
    EXPECT_EQ(lz::byte_unshuffle(shuffled, 4), src) << "n=" << n;
  }
}

TEST(LzCodec, ShuffleGroupsBytePlanes) {
  // 3 elements of stride 4 plus a 2-byte tail: planes then tail.
  const std::vector<std::uint8_t> src{0x00, 0x01, 0x02, 0x03,  //
                                      0x10, 0x11, 0x12, 0x13,  //
                                      0x20, 0x21, 0x22, 0x23,  //
                                      0xFE, 0xFF};
  const std::vector<std::uint8_t> expected{0x00, 0x10, 0x20, 0x01, 0x11, 0x21,
                                           0x02, 0x12, 0x22, 0x03, 0x13, 0x23,
                                           0xFE, 0xFF};
  EXPECT_EQ(lz::byte_shuffle(src, 4), expected);
  EXPECT_EQ(lz::byte_unshuffle(expected, 4), src);
}

// ---- untrusted-input rejection

TEST(LzCodec, TruncatedStreamsThrowClassified) {
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 3000; ++i) src.push_back(std::uint8_t(i % 7));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  std::vector<std::uint8_t> out(src.size());
  // Every strict prefix must throw a TransportError — decode never
  // succeeds, crashes or reads past the span.
  for (std::size_t cut = 0; cut < coded.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(coded.data(), cut);
    EXPECT_THROW(lz::decompress(prefix, out), TransportError) << "cut=" << cut;
  }
}

TEST(LzCodec, WrongDeclaredSizeThrowsCorrupt) {
  std::vector<std::uint8_t> src(1000, std::uint8_t(0x5A));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  // Output buffer smaller than the stream produces -> kCorruptFrame.
  std::vector<std::uint8_t> small(src.size() - 1);
  try {
    lz::decompress(coded, small);
    FAIL() << "undersized output accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
  // Output buffer larger than the stream produces -> also corrupt
  // (declared size disagrees with the stream's content).
  std::vector<std::uint8_t> big(src.size() + 1);
  try {
    lz::decompress(coded, big);
    FAIL() << "oversized output accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, BadOffsetThrowsCorrupt) {
  // Hand-built stream: one literal, then a match whose offset points
  // before the start of the output.
  const std::vector<std::uint8_t> stream{
      0x14, 'x',        // token: 1 literal, match len 4+... ; literal 'x'
      0x09, 0x00,       // offset 9 > bytes produced (1) -> corrupt
  };
  std::vector<std::uint8_t> out(16);
  try {
    lz::decompress(stream, out);
    FAIL() << "bad offset accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, ZeroOffsetThrowsCorrupt) {
  const std::vector<std::uint8_t> stream{
      0x14, 'x',        // 1 literal + match
      0x00, 0x00,       // offset 0 is never valid
  };
  std::vector<std::uint8_t> out(16);
  try {
    lz::decompress(stream, out);
    FAIL() << "zero offset accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, RandomGarbageNeverCrashes) {
  Rng rng(31337);
  std::vector<std::uint8_t> out(4096);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(1 + std::size_t(rng.next_u64() % 512));
    for (auto& b : garbage) b = std::uint8_t(rng.next_u64());
    try {
      lz::decompress(garbage, out);
      // A garbage stream that happens to decode exactly out.size()
      // bytes is legal; anything else must have thrown.
    } catch (const TransportError&) {
      // expected for nearly all garbage
    }
  }
}

// ---- fast decoder vs the byte-at-a-time reference

/// The original byte-at-a-time decoder, kept as the reference: the same
/// checks in the same order, with byte-wise copies. The fast decoder
/// must agree with it on every stream — same bytes on success, same
/// error class on failure.
void reference_decompress(std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst) {
  std::size_t ip = 0;
  std::size_t op = 0;
  const std::size_t in_size = src.size();
  const std::size_t out_size = dst.size();
  const auto need = [&](std::size_t k) {
    require_transport(in_size - ip >= k, TransportErrorCode::kTruncated,
                      "reference: stream ends early");
  };
  const auto read_run = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
      std::uint8_t b;
      do {
        need(1);
        b = src[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (true) {
    need(1);
    const std::uint8_t token = src[ip++];
    const std::size_t lit_len = read_run(token >> 4);
    need(lit_len);
    require_transport(out_size - op >= lit_len, TransportErrorCode::kCorruptFrame,
                      "reference: literal overflow");
    for (std::size_t k = 0; k < lit_len; ++k) dst[op + k] = src[ip + k];
    ip += lit_len;
    op += lit_len;
    if (ip == in_size) break;
    need(2);
    const std::size_t offset = std::size_t(src[ip]) | (std::size_t(src[ip + 1]) << 8);
    ip += 2;
    require_transport(offset >= 1 && offset <= op, TransportErrorCode::kCorruptFrame,
                      "reference: bad offset");
    const std::size_t match_len = read_run(token & 0x0F) + lz::kMinMatch;
    require_transport(out_size - op >= match_len, TransportErrorCode::kCorruptFrame,
                      "reference: match overflow");
    for (std::size_t k = 0; k < match_len; ++k) dst[op + k] = dst[op - offset + k];
    op += match_len;
  }
  require_transport(op == out_size, TransportErrorCode::kCorruptFrame,
                    "reference: short output");
}

/// Byte positions of the fields of a well-formed stream, so mutations
/// can target offsets and lengths rather than only random bytes.
struct StreamFields {
  std::vector<std::size_t> tokens, runs, offsets;
};

StreamFields parse_fields(const std::vector<std::uint8_t>& s) {
  StreamFields f;
  std::size_t ip = 0;
  const auto run = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
      std::uint8_t b;
      do {
        f.runs.push_back(ip);
        b = s[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (true) {
    f.tokens.push_back(ip);
    const std::uint8_t token = s[ip++];
    ip += run(token >> 4);
    if (ip == s.size()) break;
    f.offsets.push_back(ip);
    ip += 2;
    run(token & 0x0F);
  }
  return f;
}

/// Outcome of one decode: the bytes written on success, else the code.
struct DecodeResult {
  std::optional<TransportErrorCode> error;
  std::vector<std::uint8_t> bytes;
};

template <class Decoder>
DecodeResult decode_guarded(Decoder decode, std::span<const std::uint8_t> stream,
                            std::size_t out_size, const char* which) {
  // Decode into the middle of a sentinel-filled buffer: nothing outside
  // [guard, guard + out_size) may change, whether decode throws or not.
  constexpr std::size_t kGuard = 64;
  constexpr std::uint8_t kSentinel = 0xC5;
  std::vector<std::uint8_t> arena(out_size + 2 * kGuard, kSentinel);
  const std::span<std::uint8_t> dst(arena.data() + kGuard, out_size);
  // An exactly-sized copy, so a sanitizer flags any read past the end.
  const std::vector<std::uint8_t> input(stream.begin(), stream.end());
  DecodeResult r;
  try {
    decode(input, dst);
    r.bytes.assign(dst.begin(), dst.end());
  } catch (const TransportError& e) {
    r.error = e.code();
  }
  for (std::size_t k = 0; k < kGuard; ++k) {
    EXPECT_EQ(arena[k], kSentinel) << which << " wrote before dst at " << k;
    EXPECT_EQ(arena[kGuard + out_size + k], kSentinel)
        << which << " wrote past dst.size() at +" << k;
  }
  return r;
}

TEST(LzCodec, FastDecoderMatchesReference) {
  // Real streams: shuffled float-like payloads, byte runs of periods
  // 1..7, and incompressible stretches, at sizes that leave both long
  // and short blocks.
  Rng rng(0x5EED);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::size_t n : {std::size_t(40), std::size_t(300), std::size_t(2000),
                              std::size_t(6000)}) {
    std::vector<std::uint8_t> floats;
    for (std::size_t i = 0; floats.size() < n; ++i) {
      const float v = float(i % 61) * 0.25f + float(rng.uniform_index(4)) * 0x1.0p-16f;
      std::uint8_t b[sizeof v];
      std::memcpy(b, &v, sizeof v);
      floats.insert(floats.end(), b, b + sizeof v);
    }
    floats.resize(n);
    payloads.push_back(lz::byte_shuffle(floats, 4));

    std::vector<std::uint8_t> mixed;
    while (mixed.size() < n) {
      const std::size_t period = 1 + rng.uniform_index(7);
      const std::size_t len = 4 + rng.uniform_index(90);
      const std::size_t start = mixed.size();
      for (std::size_t k = 0; k < period; ++k) mixed.push_back(std::uint8_t(rng.next_u64()));
      for (std::size_t k = period; k < len; ++k) mixed.push_back(mixed[start + k % period]);
      for (std::size_t k = rng.uniform_index(20); k > 0; --k)
        mixed.push_back(std::uint8_t(rng.next_u64()));
    }
    mixed.resize(n);
    payloads.push_back(mixed);
  }

  std::size_t mutations = 0;
  std::size_t agreed_success = 0;
  for (const auto& payload : payloads) {
    const std::vector<std::uint8_t> coded = lz::compress(payload);
    const StreamFields fields = parse_fields(coded);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<std::uint8_t> stream = coded;
      std::size_t out_size = payload.size();
      const auto pick = [&](const std::vector<std::size_t>& v) {
        return v[rng.uniform_index(v.size())];
      };
      switch (rng.uniform_index(7)) {
        case 0: // bit flips anywhere
          for (std::size_t k = 1 + rng.uniform_index(3); k > 0; --k)
            stream[rng.uniform_index(stream.size())] ^= std::uint8_t(1u << rng.uniform_index(8));
          break;
        case 1: // truncation
          stream.resize(rng.uniform_index(stream.size()));
          break;
        case 2: // declared size off by one
          out_size = rng.bernoulli(0.5) ? out_size + 1 : (out_size > 0 ? out_size - 1 : 0);
          break;
        case 3: // edited offset: small, off-by-one, or out of range
          if (!fields.offsets.empty()) {
            const std::size_t at = pick(fields.offsets);
            std::size_t off = std::size_t(stream[at]) | (std::size_t(stream[at + 1]) << 8);
            const std::size_t choice = rng.uniform_index(4);
            off = choice == 0   ? rng.uniform_index(9)
                  : choice == 1 ? off + 1
                  : choice == 2 ? off - 1
                                : rng.uniform_index(65536);
            stream[at] = std::uint8_t(off & 0xFF);
            stream[at + 1] = std::uint8_t((off >> 8) & 0xFF);
          }
          break;
        case 4: // edited length nibble
          if (!fields.tokens.empty()) {
            const std::size_t at = pick(fields.tokens);
            stream[at] = rng.bernoulli(0.5)
                             ? std::uint8_t((stream[at] & 0x0F) | (rng.uniform_index(16) << 4))
                             : std::uint8_t((stream[at] & 0xF0) | rng.uniform_index(16));
          }
          break;
        case 5: // edited 255-run byte
          if (!fields.runs.empty()) {
            const std::size_t at = pick(fields.runs);
            const std::size_t choice = rng.uniform_index(3);
            stream[at] = choice == 0   ? std::uint8_t(255)
                         : choice == 1 ? std::uint8_t(stream[at] + 1)
                                       : std::uint8_t(stream[at] - 1);
          }
          break;
        default: // unmodified stream, decoded at a random declared size
          out_size = rng.uniform_index(payload.size() + 40);
          break;
      }
      const DecodeResult fast = decode_guarded(
          [](auto s, auto d) { lz::decompress(s, d); }, stream, out_size, "fast");
      const DecodeResult ref = decode_guarded(
          [](auto s, auto d) { reference_decompress(s, d); }, stream, out_size, "reference");
      ASSERT_EQ(fast.error, ref.error) << "trial " << trial << " of stream size " << coded.size();
      ASSERT_EQ(fast.bytes, ref.bytes) << "trial " << trial;
      ++mutations;
      if (!fast.error) ++agreed_success;
    }
  }
  EXPECT_GE(mutations, 2000u);
  // The unmodified-stream cases at the right size must have decoded.
  EXPECT_GT(agreed_success, 0u);
}

// ---- large-input pin

/// Deterministic HACC-like payload of 4 MiB + 3 bytes, built from
/// integer arithmetic and exact float additions only so it is the same
/// on every host. It mixes the shapes the codec's fast paths see:
/// halo-clustered f32 positions, velocity-like f32 noise, a long
/// constant run (255-run match lengths, offset-1 overlaps), short
/// periodic motifs (offsets below 8 after the shuffle), a block
/// repeated beyond kMaxOffset, and a stride remainder tail.
std::vector<std::uint8_t> hacc_like_payload() {
  constexpr std::size_t kBytes = (std::size_t{4} << 20) + 3;
  std::vector<std::uint8_t> out;
  out.reserve(kBytes);
  const auto put_f32 = [&](float v) {
    std::uint8_t b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    out.insert(out.end(), b, b + sizeof v);
  };
  Rng rng(20200518);
  std::vector<float> centers(3 * 24);
  for (auto& c : centers) c = float(rng.uniform_index(1 << 12)) * 0x1.0p-4f;

  // Positions: runs of particles around one halo centre.
  const std::size_t particles = 120000;
  std::size_t halo = 0;
  for (std::size_t p = 0; p < particles; ++p) {
    if (rng.uniform_index(64) == 0) halo = rng.uniform_index(24);
    for (std::size_t axis = 0; axis < 3; ++axis) {
      const int noise = int(rng.uniform_index(1 << 11)) - (1 << 10);
      put_f32(centers[3 * halo + axis] + float(noise) * 0x1.0p-12f);
    }
  }
  // Velocities: a sum of four uniform integers, centred and scaled.
  for (std::size_t p = 0; p < particles; ++p) {
    for (std::size_t axis = 0; axis < 3; ++axis) {
      std::int64_t sum = 0;
      for (int k = 0; k < 4; ++k) sum += std::int64_t(rng.uniform_index(1 << 12));
      put_f32(float(sum - 4 * (1 << 11)) * 0x1.0p-6f);
    }
  }
  // A long constant run of 1.0f values.
  for (std::size_t k = 0; k < 65536; ++k) put_f32(1.0f);
  // Short periodic motifs: periods 2..7 bytes, a few hundred bytes each.
  for (std::size_t period = 2; period <= 7; ++period) {
    std::vector<std::uint8_t> motif(period);
    for (auto& b : motif) b = std::uint8_t(rng.next_u64());
    for (std::size_t k = 0; k < 600; ++k) out.push_back(motif[k % period]);
  }
  // Repeat a block from well beyond the 64 KiB window.
  const std::size_t far = out.size() - 3 * lz::kMaxOffset;
  for (std::size_t k = 0; k < 8192; ++k) out.push_back(out[far + k]);
  // Fill with more clustered positions, then end on a run so the last
  // match reaches the encoder's extension limit: 1.0f values whose
  // high bytes (plane 3 after the shuffle) continue into the odd tail.
  constexpr std::size_t kEndRun = 1024;
  while (out.size() + sizeof(float) * (kEndRun + 1) <= kBytes) {
    const int noise = int(rng.uniform_index(1 << 9)) - (1 << 8);
    put_f32(centers[rng.uniform_index(centers.size())] + float(noise) * 0x1.0p-10f);
  }
  while (out.size() + sizeof(float) <= kBytes) put_f32(1.0f);
  while (out.size() < kBytes) out.push_back(0x3F);
  return out;
}

TEST(LzCodec, LargePayloadPinned) {
  const std::vector<std::uint8_t> payload = hacc_like_payload();
  ASSERT_EQ(payload.size(), (std::size_t{4} << 20) + 3);
  EXPECT_EQ(fingerprint_bytes(payload), 16482489469743211842ull);

  const std::vector<std::uint8_t> shuffled = lz::byte_shuffle(payload, 4);
  const std::vector<std::uint8_t> coded = lz::compress(shuffled);
  // Pinned against the original byte-at-a-time codec: a faster encoder
  // must emit exactly the same stream.
  EXPECT_EQ(coded.size(), std::size_t{2607258});
  EXPECT_EQ(fingerprint_bytes(coded), 17391120693951076795ull);

  std::vector<std::uint8_t> out(shuffled.size());
  lz::decompress(coded, out);
  EXPECT_EQ(out, shuffled);
  EXPECT_EQ(lz::byte_unshuffle(out, 4), payload);
}

} // namespace
} // namespace eth
