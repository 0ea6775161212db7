#include "render/compositor.hpp"

#include "common/error.hpp"
#include "common/trace.hpp"
#include "data/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

namespace {

/// Depth-test merge of one pixel range, the shared inner loop of the
/// pair merge and the reduction tree. Strict `<` keeps `dst` on equal
/// depth — with the lower partial index always on the dst side, ties
/// deterministically resolve to the lower index.
void merge_pair_range(ImageBuffer& dst, const ImageBuffer& src, std::size_t p0,
                      std::size_t p1) {
  auto& dcol = dst.colors();
  auto& ddep = dst.depths();
  const auto& scol = src.colors();
  const auto& sdep = src.depths();
  for (std::size_t p = p0; p < p1; ++p) {
    if (sdep[p] < ddep[p]) {
      ddep[p] = sdep[p];
      dcol[p] = scol[p];
    }
  }
}

} // namespace

void depth_composite_pair(ImageBuffer& dst, const ImageBuffer& src,
                          cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  require(dst.width() == src.width() && dst.height() == src.height(),
          "depth_composite_pair: size mismatch");
  const Index n = dst.num_pixels();
  // Pixel-parallel: chunks own disjoint pixel ranges and each pixel's
  // result is independent of the partition.
  parallel_for(0, n, 16384, [&](Index b, Index e) {
    merge_pair_range(dst, src, static_cast<std::size_t>(b),
                     static_cast<std::size_t>(e));
  });
  counters.elements_processed += dst.num_pixels();
  counters.flop_estimate += double(n) * 2.0;
}

void depth_composite(std::span<const ImageBuffer> partials, ImageBuffer& out,
                     cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  for (const ImageBuffer& partial : partials)
    require(partial.width() == out.width() && partial.height() == out.height(),
            "depth_composite: size mismatch");
  // Pixel-parallel ordered fold: each pixel scans the partials in
  // ascending index order (strict `<`, so the lowest index wins depth
  // ties) — identical to merging the partials sequentially, for every
  // partition of the pixel range.
  const Index n = out.num_pixels();
  parallel_for(0, n, 16384, [&](Index b, Index e) {
    auto& dcol = out.colors();
    auto& ddep = out.depths();
    for (const ImageBuffer& partial : partials) {
      const auto& scol = partial.colors();
      const auto& sdep = partial.depths();
      for (Index p = b; p < e; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        if (sdep[sp] < ddep[sp]) {
          ddep[sp] = sdep[sp];
          dcol[sp] = scol[sp];
        }
      }
    }
  });
  counters.elements_processed += n * static_cast<Index>(partials.size());
  counters.flop_estimate += double(n) * 2.0 * double(partials.size());
}

void depth_composite_tree(std::vector<ImageBuffer>& partials,
                          cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  if (partials.empty()) return;
  const Index n = partials[0].num_pixels();
  for (const ImageBuffer& partial : partials)
    require(partial.width() == partials[0].width() &&
                partial.height() == partials[0].height(),
            "depth_composite_tree: size mismatch");

  // Level `stride` merges partials[i + stride] into partials[i] for
  // every i that is a multiple of 2*stride: the destination index is
  // always the lower one, so the dst-wins-ties pair merge preserves
  // "lowest index wins" at every level, making the tree bit-identical
  // to the sequential fold. Pair merges of one level are independent
  // (disjoint src/dst buffers) and run in parallel; the final level has
  // a single pair, which is merged pixel-parallel instead.
  const auto M = static_cast<Index>(partials.size());
  Index merges = 0;
  for (Index stride = 1; stride < M; stride *= 2) {
    std::vector<std::pair<Index, Index>> pairs;
    for (Index i = 0; i + stride < M; i += 2 * stride)
      pairs.emplace_back(i, i + stride);
    merges += static_cast<Index>(pairs.size());
    if (pairs.size() == 1) {
      ImageBuffer& dst = partials[static_cast<std::size_t>(pairs[0].first)];
      const ImageBuffer& src = partials[static_cast<std::size_t>(pairs[0].second)];
      parallel_for(0, n, 16384, [&](Index b, Index e) {
        merge_pair_range(dst, src, static_cast<std::size_t>(b),
                         static_cast<std::size_t>(e));
      });
    } else {
      parallel_for(0, static_cast<Index>(pairs.size()), 1, [&](Index b, Index e) {
        for (Index k = b; k < e; ++k)
          merge_pair_range(partials[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].first)],
                           partials[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].second)],
                           0, static_cast<std::size_t>(n));
      });
    }
  }
  counters.elements_processed += n * merges;
  counters.flop_estimate += double(n) * 2.0 * double(merges);
}

void alpha_composite(std::span<const ImageBuffer> partials,
                     std::span<const std::size_t> order, ImageBuffer& out,
                     cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  require(order.size() == partials.size(), "alpha_composite: order size mismatch");
  for (const std::size_t idx : order) {
    require(idx < partials.size(), "alpha_composite: order index out of range");
    require(partials[idx].width() == out.width() &&
                partials[idx].height() == out.height(),
            "alpha_composite: size mismatch");
  }
  // Pixel-parallel with the partial order applied per pixel: each pixel
  // blends the partials front to back exactly as the serial loop did,
  // so the result is independent of the pixel partition.
  const Index width = out.width();
  parallel_for(0, out.height(), 8, [&](Index y0, Index y1) {
    for (Index y = y0; y < y1; ++y)
      for (Index x = 0; x < width; ++x)
        for (const std::size_t idx : order) out.blend_over(x, y, partials[idx].color(x, y));
  });
  counters.elements_processed += out.num_pixels() * static_cast<Index>(partials.size());
  counters.flop_estimate += double(out.num_pixels()) * 7.0 * double(partials.size());
}

void alpha_composite_premultiplied(std::span<const ImageBuffer> partials,
                                   std::span<const std::size_t> order,
                                   ImageBuffer& out,
                                   cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  require(order.size() == partials.size(),
          "alpha_composite_premultiplied: order size mismatch");
  for (const std::size_t idx : order) {
    require(idx < partials.size(),
            "alpha_composite_premultiplied: order index out of range");
    require(partials[idx].width() == out.width() &&
                partials[idx].height() == out.height(),
            "alpha_composite_premultiplied: size mismatch");
  }
  const Index width = out.width();
  parallel_for(0, out.height(), 8, [&](Index y0, Index y1) {
    for (Index y = y0; y < y1; ++y)
      for (Index x = 0; x < width; ++x)
        for (const std::size_t idx : order) {
          const ImageBuffer& src = partials[idx];
          const Vec4f s = src.color(x, y);
          if (s.w <= 0) continue;
          const Vec4f d = out.color(x, y);
          const Real trans = Real(1) - d.w;
          out.set_color(x, y, {d.x + s.x * trans, d.y + s.y * trans,
                               d.z + s.z * trans, d.w + s.w * trans});
          if (src.depth(x, y) < out.depth(x, y)) out.set_depth(x, y, src.depth(x, y));
        }
  });
  counters.elements_processed += out.num_pixels() * static_cast<Index>(partials.size());
  counters.flop_estimate += double(out.num_pixels()) * 8.0 * double(partials.size());
}

std::vector<std::uint8_t> pack_image(const ImageBuffer& image) {
  const trace::Span span("pack_image");
  ByteWriter w;
  w.put_i64(image.width());
  w.put_i64(image.height());
  w.put_bytes(image.colors().data(), image.colors().size() * sizeof(Vec4f));
  w.put_bytes(image.depths().data(), image.depths().size() * sizeof(Real));
  return w.take();
}

ImageBuffer unpack_image(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const Index width = r.get_i64();
  const Index height = r.get_i64();
  require(width >= 0 && height >= 0, "unpack_image: negative dimensions");
  ImageBuffer image(width, height);
  r.get_bytes(image.colors().data(), image.colors().size() * sizeof(Vec4f));
  r.get_bytes(image.depths().data(), image.depths().size() * sizeof(Real));
  require(r.at_end(), "unpack_image: trailing bytes");
  return image;
}

} // namespace eth
