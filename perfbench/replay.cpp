#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/lz.hpp"
#include "common/run_counters.hpp"
#include "core/harness.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "insitu/transport.hpp"
#include "pipeline/isosurface.hpp"
#include "pipeline/sampler.hpp"
#include "pipeline/slice.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/raster/rasterizer.hpp"
#include "render/ray/raycaster.hpp"
#include "sim/dump.hpp"
#include "sim/hacc_generator.hpp"

namespace perfbench {

namespace {

using namespace eth;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- spans

/// In-memory span tree of one replay. Calls are serial and every span
/// is a scope, so children nest inside their parent and never overlap.
class Recorder {
public:
  struct Node {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    double bytes = 0;
  };

  void open(const char* name) {
    nodes_.push_back({name, stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
    stack_.push_back(static_cast<int>(nodes_.size()) - 1);
  }
  void close() {
    nodes_[static_cast<std::size_t>(stack_.back())].end = Clock::now();
    stack_.pop_back();
  }
  void add_bytes(double bytes) { nodes_[static_cast<std::size_t>(stack_.back())].bytes += bytes; }

  const std::vector<Node>& nodes() const { return nodes_; }

private:
  std::vector<Node> nodes_;
  std::vector<int> stack_;
};

class Span {
public:
  Span(Recorder& rec, const char* name, double bytes = 0) : rec_(rec) {
    rec_.open(name);
    if (bytes > 0) rec_.add_bytes(bytes);
  }
  ~Span() { rec_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Recorder& rec_;
};

/// Run `fn` inside a span named `name` that processed `bytes`.
template <typename Fn>
auto traced(Recorder& rec, const char* name, double bytes, Fn&& fn) {
  const Span span(rec, name, bytes);
  return fn();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ----------------------------------------------------------- framing
// The transport's frame formats (insitu/transport.hpp), assembled here
// from the common layer's calls so that the codec, shuffle and CRC
// each get a span of their own. check_framing proves the result equal
// to insitu::frame_encode_msg / frame_decode_msg byte for byte.

/// Byte-plane shuffle stride of the ETHZ frame format.
constexpr std::size_t kShuffleStride = 4;

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le(const std::uint8_t* in, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t(in[i]) << (8 * i);
  return v;
}

/// Gather without touching the data-plane copy counters, as the
/// transport's codec path does (the copy is codec-internal).
std::vector<std::uint8_t> gather(const WireMessage& msg, std::size_t limit = SIZE_MAX) {
  std::vector<std::uint8_t> out(std::min(limit, msg.total_bytes()));
  std::size_t at = 0;
  for (const WireMessage::Segment& seg : msg.segments()) {
    const std::size_t take = std::min(seg.bytes.size(), out.size() - at);
    if (take != 0) std::memcpy(out.data() + at, seg.bytes.data(), take);
    at += take;
    if (at == out.size()) break;
  }
  return out;
}

struct Codec {
  double raw_bytes = 0;
  double coded_bytes = 0;
};

WireMessage encode_frame(Recorder& rec, const WireMessage& payload,
                         insitu::WireCodec codec, Codec& stats) {
  const Span span(rec, "insitu.frame_encode");
  const std::size_t raw = payload.total_bytes();
  if (codec == insitu::WireCodec::kLz4) {
    const std::vector<std::uint8_t> shuffled =
        traced(rec, "common.byte_shuffle", double(raw),
               [&] { return lz::byte_shuffle(gather(payload), kShuffleStride); });
    std::vector<std::uint8_t> coded = traced(rec, "common.lz_compress", double(raw),
                                             [&] { return lz::compress(shuffled); });
    stats.raw_bytes += double(raw);
    stats.coded_bytes += double(coded.size());
    if (coded.size() < raw) {
      const std::uint32_t crc = traced(rec, "common.crc32", double(coded.size()),
                                       [&] { return crc32(coded, 0); });
      std::vector<std::uint8_t> header;
      put_le(header, insitu::kFrameMagicLz, 4);
      put_le(header, crc, 4);
      put_le(header, coded.size(), 8);
      put_le(header, raw, 8);
      WireMessage frame;
      frame.append_owned(Buffer::adopt(std::move(header)));
      frame.append_owned(Buffer::adopt(std::move(coded)));
      return frame;
    }
  }
  const std::uint32_t crc = traced(rec, "common.crc32", double(raw), [&] {
    std::uint32_t c = 0;
    for (const WireMessage::Segment& seg : payload.segments()) c = crc32(seg.bytes, c);
    return c;
  });
  std::vector<std::uint8_t> header;
  put_le(header, insitu::kFrameMagic, 4);
  put_le(header, crc, 4);
  put_le(header, raw, 8);
  WireMessage frame;
  frame.append_owned(Buffer::adopt(std::move(header)));
  frame.append_message(payload);
  return frame;
}

WireMessage decode_frame(Recorder& rec, const WireMessage& frame) {
  const Span span(rec, "insitu.frame_decode");
  const std::vector<std::uint8_t> header = gather(frame, insitu::kLzFrameHeaderBytes);
  require(header.size() >= insitu::kFrameHeaderBytes, "replay: short frame");
  const std::uint64_t magic = get_le(header.data(), 4);
  const std::uint64_t expected_crc = get_le(header.data() + 4, 4);
  if (magic == insitu::kFrameMagicLz) {
    require(header.size() == insitu::kLzFrameHeaderBytes, "replay: short lz frame");
    const std::uint64_t raw_len = get_le(header.data() + 16, 8);
    const WireMessage coded = frame.slice(insitu::kLzFrameHeaderBytes);
    std::vector<std::uint8_t> gathered;
    if (!coded.contiguous()) gathered = gather(coded);
    const std::span<const std::uint8_t> bytes =
        coded.contiguous() ? coded.contiguous_bytes() : std::span<const std::uint8_t>(gathered);
    const std::uint32_t crc = traced(rec, "common.crc32", double(bytes.size()),
                                     [&] { return crc32(bytes, 0); });
    require(crc == expected_crc, "replay: lz frame CRC mismatch");
    std::vector<std::uint8_t> shuffled(raw_len);
    traced(rec, "common.lz_decompress", double(raw_len),
           [&] { lz::decompress(bytes, shuffled); });
    std::vector<std::uint8_t> raw = traced(rec, "common.byte_unshuffle", double(raw_len), [&] {
      return lz::byte_unshuffle(shuffled, kShuffleStride);
    });
    WireMessage payload;
    payload.append_owned(Buffer::adopt(std::move(raw)));
    return payload;
  }
  require(magic == insitu::kFrameMagic, "replay: frame magic mismatch");
  WireMessage payload = frame.slice(insitu::kFrameHeaderBytes);
  const std::uint32_t crc = traced(rec, "common.crc32", double(payload.total_bytes()), [&] {
    std::uint32_t c = 0;
    for (const WireMessage::Segment& seg : payload.segments()) c = crc32(seg.bytes, c);
    return c;
  });
  require(crc == expected_crc, "replay: frame CRC mismatch");
  return payload;
}

/// The replay's framing must be the transport's framing: encode and
/// decode `probe` both ways and compare bytes.
void check_framing(const std::vector<std::uint8_t>& probe, insitu::WireCodec codec) {
  WireMessage payload;
  payload.append_owned(Buffer::copy_of(probe));
  Recorder scratch;
  Codec unused;
  const WireMessage mine = encode_frame(scratch, payload, codec, unused);
  const WireMessage theirs = insitu::frame_encode_msg(payload, codec);
  require(gather(mine) == gather(theirs),
          "replay framing differs from insitu::frame_encode_msg");
  require(gather(decode_frame(scratch, theirs)) == probe &&
              gather(insitu::frame_decode_msg(mine)) == probe,
          "replay frame decoding differs from insitu::frame_decode_msg");
}

// ------------------------------------------------------ viz stage
// insitu::run_viz_rank without the artifact cache, one call per span.
// Slice placement and the isovalue wobble restate insitu/viz.cpp.

Vec3f slice_origin(const AABB& box, int s, int num_slices, Index timestep) {
  const Real phase = Real(0.5) + Real(0.35) * std::sin(Real(0.7) * Real(timestep));
  const Real offset = (Real(s) + Real(0.5) + phase * Real(0.35)) / Real(num_slices + 1);
  return box.lo + box.extent() * clamp(offset, Real(0.1), Real(0.9));
}

Vec3f slice_normal(int s) {
  switch (s % 3) {
    case 0: return {1, 0, 0};
    case 1: return {0, 0, 1};
    default: return {0, 1, 0};
  }
}

std::vector<ImageBuffer> render_share(Recorder& rec, const insitu::VizConfig& cfg,
                                      const std::shared_ptr<const DataSet>& data,
                                      const Camera& base_camera, Index& triangles) {
  cluster::PerfCounters counters;
  std::shared_ptr<const DataSet> working = data;
  if (cfg.sampling_ratio < 1.0) {
    const Span span(rec, "pipeline.sample");
    SpatialSampler sampler(cfg.sampling_ratio, cfg.sampling_mode, cfg.sampling_seed);
    sampler.set_input(working);
    working = sampler.update();
  }
  const auto new_image = [&] {
    ImageBuffer image(cfg.image_width, cfg.image_height);
    image.clear();
    return image;
  };
  std::vector<ImageBuffer> images;

  if (cfg.algorithm == insitu::VizAlgorithm::kRaycastSpheres) {
    const auto& points = static_cast<const PointSet&>(*working);
    TransferFunction scaled_map = TransferFunction::viridis();
    SphereRaycastOptions opts;
    opts.world_radius = cfg.particle_radius;
    opts.scalar_field = cfg.particle_scalar;
    if (!cfg.particle_scalar.empty() && points.point_fields().has(cfg.particle_scalar)) {
      scaled_map = TransferFunction::viridis().rescaled(cfg.scalar_range_lo, cfg.scalar_range_hi);
      opts.colormap = &scaled_map;
    }
    RaycastRenderer raycaster;
    traced(rec, "render.bvh_build", 0, [&] { raycaster.build_spheres(points, opts, counters); });
    for (Index img = 0; img < cfg.images_per_timestep; ++img) {
      ImageBuffer image = new_image();
      const Camera camera = insitu::camera_for_image(base_camera, img, cfg.images_per_timestep);
      traced(rec, "render.raycast_spheres", 0,
             [&] { raycaster.render_spheres(points, camera, image, opts, counters); });
      images.push_back(std::move(image));
    }
    return images;
  }

  require(cfg.algorithm == insitu::VizAlgorithm::kVtkGeometry,
          "replay: only raycast-spheres and vtk-geometry are replayed");
  const auto& grid = static_cast<const StructuredGrid&>(*working);
  const AABB box = grid.bounds();
  const TransferFunction slice_map =
      TransferFunction::thermal().rescaled(cfg.scalar_range_lo, cfg.scalar_range_hi);
  const TransferFunction iso_map =
      TransferFunction::cool_warm().rescaled(cfg.scalar_range_lo, cfg.scalar_range_hi);
  const Real iso = cfg.isovalue + cfg.isovalue_variation *
                                      std::sin(Real(0.9) * Real(cfg.timestep) + Real(0.4));
  const std::shared_ptr<const DataSet> iso_mesh = traced(rec, "pipeline.isosurface", 0, [&] {
    IsosurfaceExtractor extractor(cfg.volume_field, iso);
    extractor.set_input(working);
    return extractor.update();
  });
  triangles += static_cast<const TriangleMesh&>(*iso_mesh).num_triangles();
  std::vector<std::shared_ptr<const DataSet>> slices;
  for (int s = 0; s < cfg.num_slices; ++s) {
    slices.push_back(traced(rec, "pipeline.slice", 0, [&] {
      SlicePlaneExtractor slicer(cfg.volume_field,
                                 slice_origin(box, s, cfg.num_slices, cfg.timestep),
                                 slice_normal(s));
      slicer.set_input(working);
      return slicer.update();
    }));
    triangles += static_cast<const TriangleMesh&>(*slices.back()).num_triangles();
  }
  RasterRenderer raster;
  MeshRenderOptions iso_opts;
  iso_opts.uniform_color = iso_map.map(iso);
  MeshRenderOptions slice_opts;
  slice_opts.colormap = &slice_map;
  slice_opts.scalar_field = "scalar";
  for (Index img = 0; img < cfg.images_per_timestep; ++img) {
    ImageBuffer image = new_image();
    const Camera camera = insitu::camera_for_image(base_camera, img, cfg.images_per_timestep);
    traced(rec, "render.raster_mesh", 0, [&] {
      raster.render_mesh(static_cast<const TriangleMesh&>(*iso_mesh), camera, image, iso_opts,
                         counters);
      for (const auto& mesh : slices)
        raster.render_mesh(static_cast<const TriangleMesh&>(*mesh), camera, image, slice_opts,
                           counters);
    });
    images.push_back(std::move(image));
  }
  return images;
}

int share_index(int r, int M, int P) { return static_cast<int>(static_cast<long>(r) * P / M); }

} // namespace

ReplayResult replay_point(const ExperimentSpec& spec) {
  spec.validate();
  const int M = spec.layout.ranks;
  const int P = spec.layout.sim_nodes();
  require(spec.layout.coupling != cluster::Coupling::kTight && P == spec.layout.viz_node_count(),
          "replay: needs a process-separated coupling with equal sim and viz shares");
  require(spec.transport_quantization_bits == 0 && !spec.fault.any(),
          "replay: quantized or faulted transport is not replayed");
  require(!spec.use_disk_proxy || spec.application == Application::kHacc,
          "replay: the disk proxy is replayed for HACC only");
  const insitu::WireCodec codec = spec.resolved_transport_codec();
  const Camera base_camera = Harness::global_camera(spec);

  ReplayResult out;
  Recorder rec;
  Codec codec_stats;
  RunCounterSink sink;
  std::vector<std::uint8_t> probe;
  {
    const RunSinkScope sink_scope(&sink);
    const Span root(rec, "replay.point");
    for (Index t = 0; t < spec.timesteps; ++t) {
      // ---- produce: the preliminary dump, then the proxy's read. The
      // harness runs the dump before its ranks start, outside the run's
      // counter sink, so the replay detaches from the sink for it too.
      if (spec.use_disk_proxy) {
        const RunSinkScope outside_run(nullptr);
        const sim::DumpWriter writer(spec.proxy_dir, "replay");
        const std::unique_ptr<DataSet> full =
            traced(rec, "sim.generate", 0, [&] { return Harness::produce_share(spec, 0, 1, t); });
        for (int r = 0; r < M; ++r) {
          const PointSet slab = traced(rec, "sim.extract", 0, [&] {
            return sim::extract_hacc_slab(static_cast<const PointSet&>(*full),
                                          spec.hacc.box_size, share_index(r, M, P), P);
          });
          traced(rec, "sim.dump_write", double(slab.byte_size()),
                 [&] { writer.write(slab, t, r); });
        }
      }
      const sim::SimulationProxy proxy(spec.proxy_dir, "replay");
      std::vector<std::shared_ptr<const DataSet>> viz_data;
      for (int r = 0; r < M; ++r) {
        std::shared_ptr<const DataSet> sim_data;
        if (spec.use_disk_proxy) {
          const Span span(rec, "sim.proxy_load");
          sim_data = proxy.load(t, r);
          rec.add_bytes(double(sim_data->byte_size()));
        } else {
          sim_data = traced(rec, "sim.generate", 0, [&] {
            return Harness::produce_share(spec, share_index(r, M, P), P, t);
          });
        }
        // ---- couple: serialize, frame, move, unframe, deserialize.
        const WireMessage msg = traced(rec, "data.serialize", 0,
                                       [&] { return wire_message_for_dataset(sim_data); });
        if (probe.empty()) probe = gather(msg, std::size_t(1) << 20);
        sim_data.reset();
        const WireMessage frame = encode_frame(rec, msg, codec, codec_stats);
        out.bytes_on_wire += frame.total_bytes();
        auto [tx, rx] = insitu::make_inproc_channel();
        const WireMessage delivered = traced(rec, "insitu.transfer", double(frame.total_bytes()),
                                             [&] {
                                               tx->send_msg(frame);
                                               return rx->recv_msg();
                                             });
        const WireMessage payload = decode_frame(rec, delivered);
        viz_data.push_back(traced(rec, "data.deserialize", double(payload.total_bytes()),
                                  [&] { return deserialize_dataset(payload); }));
      }

      // ---- viz: every rank colors on the global range of the active
      // scalar, as the harness's allreduce agrees it.
      insitu::VizConfig cfg = spec.viz;
      cfg.timestep = t;
      const std::string& field = insitu::is_particle_algorithm(cfg.algorithm)
                                     ? cfg.particle_scalar
                                     : cfg.volume_field;
      if (!cfg.has_explicit_scalar_range() && !field.empty() &&
          viz_data[0]->point_fields().has(field)) {
        Real lo = 0, hi = 0;
        for (int r = 0; r < M; ++r) {
          const auto [l, h] = traced(rec, "data.field_range", 0, [&] {
            return viz_data[static_cast<std::size_t>(r)]->point_fields().get(field).range();
          });
          lo = r == 0 ? l : std::min(lo, l);
          hi = r == 0 ? h : std::max(hi, h);
        }
        cfg.scalar_range_lo = lo;
        cfg.scalar_range_hi = hi;
      }
      std::vector<std::vector<ImageBuffer>> images;
      for (int r = 0; r < M; ++r)
        images.push_back(render_share(rec, cfg, viz_data[static_cast<std::size_t>(r)],
                                      base_camera, out.triangles));

      // ---- composite: ranks pack, rank 0 unpacks and merges by depth.
      cluster::PerfCounters counters;
      for (std::size_t img = 0; img < images[0].size(); ++img) {
        std::vector<std::vector<std::uint8_t>> packed;
        for (int r = 0; r < M; ++r)
          packed.push_back(traced(rec, "render.pack_image", 0, [&] {
            return pack_image(images[static_cast<std::size_t>(r)][img]);
          }));
        std::vector<ImageBuffer> partials;
        partials.push_back(std::move(images[0][img]));
        for (int r = 1; r < M; ++r)
          partials.push_back(traced(rec, "render.unpack_image", 0, [&] {
            return unpack_image(packed[static_cast<std::size_t>(r)]);
          }));
        traced(rec, "render.composite", 0, [&] { depth_composite_tree(partials, counters); });
        out.final_image = std::move(partials[0]);
      }
    }
  }
  out.bytes_copied = sink.bytes_copied.load();
  out.bytes_borrowed = sink.bytes_borrowed.load();
  out.lz_raw_bytes = codec_stats.raw_bytes;
  out.lz_coded_bytes = codec_stats.coded_bytes;

  // Self time = duration minus the children's (serial, nested) time.
  const std::vector<Recorder::Node>& nodes = rec.nodes();
  std::vector<double> self(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    self[i] += ms_between(nodes[i].start, nodes[i].end);
    if (nodes[i].parent >= 0)
      self[static_cast<std::size_t>(nodes[i].parent)] -= ms_between(nodes[i].start, nodes[i].end);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0) {
      out.root_ms = ms_between(nodes[i].start, nodes[i].end);
      continue;
    }
    SpanStats& stats = out.spans[nodes[i].name];
    stats.self_ms.push_back(self[i]);
    stats.bytes += nodes[i].bytes;
  }

  check_framing(probe, codec);
  return out;
}

} // namespace perfbench
