#include "common/lz.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace eth::lz {
namespace {

// LZ4's end-of-block rules: the last 5 bytes are always literals, and a
// match may not start within the last 12 bytes. Inputs shorter than
// kMfLimit are emitted as a single literal run.
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMfLimit = 12;
constexpr int kHashLog = 16;
constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

// Wild-copy widths of the decoder (DESIGN.md §15). A wild copy moves
// whole chunks and may write up to one chunk past the run's end; it is
// used only when the destination (and, for literals, the source) has
// that much room left, so it never touches bytes outside the spans.
constexpr std::size_t kLiteralChunk = 16;
constexpr std::size_t kMatchChunk = 8;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Extend a match of `len` equal bytes at `a` (earlier) and `b` to at
/// most `limit` bytes: 8 bytes per step, the first differing byte found
/// from the XOR of two loads, then byte-wise for the last few.
std::size_t extend_match(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t len, std::size_t limit) {
  while (len + 8 <= limit) {
    const std::uint64_t diff = read64(a + len) ^ read64(b + len);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

std::uint8_t* emit_run_length(std::uint8_t* op, std::size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<std::uint8_t>(len);
  return op;
}

} // namespace

std::size_t max_compressed_size(std::size_t n) {
  // One literal run: token + ceil((n - 15) / 255) run bytes + n literals.
  return n + n / 255 + 16;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src) {
  const std::size_t n = src.size();
  const std::uint8_t* const in = src.data();
  // Every sequence the greedy matcher emits costs no more than the input
  // it covers plus its share of 255-run bytes, so the whole stream fits
  // the stored-block bound: write straight into it and trim at the end.
  std::vector<std::uint8_t> out(max_compressed_size(n));
  std::uint8_t* op = out.data();

  const auto emit_literals = [&](std::size_t start, std::size_t len,
                                 std::uint8_t match_nibble) {
    const std::uint8_t lit_nibble =
        static_cast<std::uint8_t>(std::min<std::size_t>(len, 15));
    *op++ = static_cast<std::uint8_t>(lit_nibble << 4) | match_nibble;
    if (lit_nibble == 15) op = emit_run_length(op, len - 15);
    if (len > 0) std::memcpy(op, in + start, len);
    op += len;
  };

  if (n < kMfLimit) {
    emit_literals(0, n, 0);
    out.resize(static_cast<std::size_t>(op - out.data()));
    return out;
  }

  std::vector<std::uint32_t> table(std::size_t{1} << kHashLog, kEmptySlot);
  const std::size_t match_limit = n - kMfLimit;
  const std::size_t extend_limit = n - kLastLiterals;
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (i < match_limit) {
    const std::uint32_t h = hash4(read32(in + i));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand == kEmptySlot || i - cand > kMaxOffset ||
        read32(in + cand) != read32(in + i)) {
      ++i;
      continue;
    }
    const std::size_t len =
        extend_match(in + cand, in + i, kMinMatch, extend_limit - i);

    const std::size_t match_code = len - kMinMatch;
    const std::uint8_t match_nibble =
        static_cast<std::uint8_t>(std::min<std::size_t>(match_code, 15));
    emit_literals(anchor, i - anchor, match_nibble);
    const std::size_t offset = i - cand;
    *op++ = static_cast<std::uint8_t>(offset & 0xFF);
    *op++ = static_cast<std::uint8_t>(offset >> 8);
    if (match_nibble == 15) op = emit_run_length(op, match_code - 15);
    i += len;
    anchor = i;
  }
  emit_literals(anchor, n - anchor, 0);
  out.resize(static_cast<std::size_t>(op - out.data()));
  return out;
}

void decompress(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  const std::uint8_t* const in = src.data();
  std::uint8_t* const out = dst.data();
  const std::size_t in_size = src.size();
  const std::size_t out_size = dst.size();
  std::size_t ip = 0;
  std::size_t op = 0;

  // The checks below run once per field, never per byte, and build no
  // message unless they throw. Their order is the classification
  // contract: kTruncated for input that ends early, kCorruptFrame for
  // offsets and lengths that contradict the declared size.
  const auto read_run = [&](std::size_t len) {
    if (len != 15) return len;
    std::uint8_t b;
    do {
      require_transport(ip < in_size, TransportErrorCode::kTruncated,
                        "lz: compressed stream ends inside a 255-run length");
      b = in[ip++];
      len += b;
    } while (b == 255);
    return len;
  };

  while (true) {
    require_transport(ip < in_size, TransportErrorCode::kTruncated,
                      "lz: compressed stream ends inside a sequence token");
    const std::uint8_t token = in[ip++];

    const std::size_t lit_len = read_run(token >> 4);
    require_transport(in_size - ip >= lit_len, TransportErrorCode::kTruncated,
                      "lz: compressed stream ends inside a literal run");
    require_transport(out_size - op >= lit_len,
                      TransportErrorCode::kCorruptFrame,
                      "lz: literal run overflows the declared raw size");
    if (in_size - ip >= lit_len + kLiteralChunk &&
        out_size - op >= lit_len + kLiteralChunk) {
      for (std::size_t k = 0; k < lit_len; k += kLiteralChunk)
        std::memcpy(out + op + k, in + ip + k, kLiteralChunk);
    } else if (lit_len > 0) {
      std::memcpy(out + op, in + ip, lit_len);
    }
    ip += lit_len;
    op += lit_len;
    if (ip == in_size) break; // literals-only terminator sequence

    require_transport(in_size - ip >= 2, TransportErrorCode::kTruncated,
                      "lz: compressed stream ends inside a match offset");
    const std::size_t offset = static_cast<std::size_t>(in[ip]) |
                               (static_cast<std::size_t>(in[ip + 1]) << 8);
    ip += 2;
    require_transport(offset >= 1 && offset <= op,
                      TransportErrorCode::kCorruptFrame,
                      "lz: match offset reaches before the output start");
    const std::size_t match_len = read_run(token & 0x0F) + kMinMatch;
    require_transport(out_size - op >= match_len,
                      TransportErrorCode::kCorruptFrame,
                      "lz: match run overflows the declared raw size");
    std::uint8_t* const d = out + op;
    const std::uint8_t* const s = d - offset;
    if (offset >= kMatchChunk && out_size - op >= match_len + kMatchChunk) {
      // Each chunk's source ends at or before its destination, and every
      // source byte was produced by an earlier chunk or sequence.
      for (std::size_t k = 0; k < match_len; k += kMatchChunk)
        std::memcpy(d + k, s + k, kMatchChunk);
    } else {
      // Byte-wise: offset < 8 overlaps are the run-length encoding case
      // and must replicate the leading bytes; near the end of the block
      // there is no room for an overshoot.
      for (std::size_t k = 0; k < match_len; ++k) d[k] = s[k];
    }
    op += match_len;
  }
  require_transport(op == out_size, TransportErrorCode::kCorruptFrame,
                    "lz: stream produced fewer bytes than the declared "
                    "raw size");
}

std::vector<std::uint8_t> byte_shuffle(std::span<const std::uint8_t> src,
                                       std::size_t stride) {
  require(stride >= 1, "lz: shuffle stride must be >= 1");
  std::vector<std::uint8_t> out(src.size());
  const std::size_t elems = src.size() / stride;
  for (std::size_t plane = 0; plane < stride; ++plane) {
    std::uint8_t* o = out.data() + plane * elems;
    for (std::size_t e = 0; e < elems; ++e) o[e] = src[e * stride + plane];
  }
  const std::size_t body = elems * stride;
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(body), src.end(),
            out.begin() + static_cast<std::ptrdiff_t>(body));
  return out;
}

std::vector<std::uint8_t> byte_unshuffle(std::span<const std::uint8_t> src,
                                         std::size_t stride) {
  require(stride >= 1, "lz: shuffle stride must be >= 1");
  std::vector<std::uint8_t> out(src.size());
  const std::size_t elems = src.size() / stride;
  for (std::size_t plane = 0; plane < stride; ++plane) {
    const std::uint8_t* s = src.data() + plane * elems;
    for (std::size_t e = 0; e < elems; ++e) out[e * stride + plane] = s[e];
  }
  const std::size_t body = elems * stride;
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(body), src.end(),
            out.begin() + static_cast<std::ptrdiff_t>(body));
  return out;
}

} // namespace eth::lz
