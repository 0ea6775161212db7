#include "core/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <exception>
#include <filesystem>
#include <type_traits>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/knobs.hpp"
#include "common/run_counters.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "data/compression.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "insitu/transport.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"
#include "sim/dump.hpp"

namespace eth {

namespace {

/// Representative modelled-node index for measurement rank `r` of `M`
/// when the workload is split into `P` shares: spread evenly.
int share_index(int r, int M, int P) {
  return static_cast<int>(static_cast<long>(r) * P / M);
}

Index dataset_elements(const DataSet& ds) {
  if (ds.kind() == DataSetKind::kStructuredGrid)
    return static_cast<const StructuredGrid&>(ds).num_cells();
  return ds.num_points();
}

/// Parallel items of the render phase, per algorithm (drives modelled
/// node utilization; see model.hpp).
Index render_items(const insitu::VizConfig& viz, Index working_elements,
                   Index primitives_per_image) {
  switch (viz.algorithm) {
    case insitu::VizAlgorithm::kRaycastSpheres:
    case insitu::VizAlgorithm::kRaycastVolume:
    case insitu::VizAlgorithm::kRaycastDvr:
      return viz.image_width * viz.image_height;
    case insitu::VizAlgorithm::kVtkGeometry:
      return primitives_per_image;
    case insitu::VizAlgorithm::kGaussianSplat:
    case insitu::VizAlgorithm::kVtkPoints:
      return working_elements;
  }
  return working_elements;
}

// -------- sweep-wide memoization helpers (DESIGN.md §10) ------------

/// Content fingerprint of everything that determines the simulated
/// data, independent of the spec's display `name`: generator family,
/// physics parameters and seed. Sweep points that only vary viz/layout
/// parameters therefore share one data identity.
std::uint64_t app_fingerprint(const ExperimentSpec& spec) {
  Fingerprinter fp;
  if (spec.application == Application::kHacc) {
    fp.update_string("hacc");
    fp.update_u64(static_cast<std::uint64_t>(spec.hacc.num_particles));
    fp.update_u64(static_cast<std::uint64_t>(spec.hacc.num_halos));
    fp.update_f64(spec.hacc.background_fraction);
    fp.update_f32(static_cast<float>(spec.hacc.box_size));
    fp.update_f32(static_cast<float>(spec.hacc.halo_scale_radius));
    fp.update_u64(spec.hacc.seed);
  } else {
    fp.update_string("xrage");
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.x));
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.y));
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.z));
    fp.update_f32(static_cast<float>(spec.xrage.domain_size));
    fp.update_u64(spec.xrage.seed);
  }
  return fp.digest();
}

/// Provenance fingerprint of share `share` of `parts` at `timestep`.
/// produce_share is pure (and the slabs of generate_hacc_slabs match
/// generate_hacc_rank bit-for-bit), so this identifies the share's
/// CONTENT whether it was synthesized in memory or read from a dump.
std::uint64_t share_fingerprint(std::uint64_t app_fp, int share, int parts,
                                Index timestep) {
  return fingerprint_chain(app_fp,
                           strprintf("share %d/%d t=%lld", share, parts,
                                     static_cast<long long>(timestep)));
}

/// Content-addressed dump case name: sweep points with identical
/// generator parameters resolve to the same on-disk files regardless
/// of their sweep labels, so the preliminary dump runs once per sweep.
std::string cas_dump_case(std::uint64_t app_fp, int M, int parts) {
  return strprintf("cas%016llx",
                   static_cast<unsigned long long>(fingerprint_chain(
                       app_fp, strprintf("dump M=%d P=%d", M, parts))));
}

/// One rank's share as an artifact-cache request: the key plus the
/// factory that loads it from the preliminary dump (disk proxy) or
/// synthesizes it in memory. Demand lookups and the read-ahead prefetch
/// issue the same request. The factory's measured cost and data-plane
/// bytes are recorded with the artifact; the caller replays them on hit
/// and miss alike, so phase times and byte totals are identical with
/// memoization on or off. The factory references `spec`, which outlives
/// every prefetch task (run() joins them before returning).
struct ShareRequest {
  ArtifactKey key;
  ArtifactCache::Factory factory;
};

ShareRequest share_request(const ExperimentSpec& spec, std::uint64_t app_fp,
                           const std::string& case_name, int share, int parts,
                           Index t, int r) {
  const std::uint64_t file_fp = share_fingerprint(app_fp, share, parts, t);
  return {{file_fp, spec.use_disk_proxy ? "proxy.load" : "produce_share"},
          [&spec, case_name, file_fp, share, parts, t, r]() -> CacheArtifact {
            // KernelTimer: in-memory HACC synthesis fans out over the
            // pool, and its lent CPU is this share's cost (DESIGN.md
            // §4.1); loads and xRAGE synthesis run on this thread.
            KernelTimer timer;
            RunCounterSink taken;
            const RunSinkScope capture(&taken);
            std::shared_ptr<const DataSet> ds =
                spec.use_disk_proxy
                    ? sim::SimulationProxy(spec.proxy_dir, case_name).load(t, r)
                    : Harness::produce_share(spec, share, parts, t);
            cluster::PerfCounters recorded;
            recorded.phases.add("generate", timer.elapsed());
            recorded.fold(taken);
            return CacheArtifact{ds, static_cast<std::size_t>(ds->byte_size()),
                                 std::move(recorded), file_fp};
          }};
}

} // namespace

AABB Harness::global_bounds(const ExperimentSpec& spec) {
  if (spec.application == Application::kHacc) {
    const Real s = spec.hacc.box_size;
    return AABB::of({0, 0, 0}, {s, s, s});
  }
  const Real spacing = spec.xrage.domain_size / Real(spec.xrage.dims.x - 1);
  return AABB::of({0, 0, 0}, {spacing * Real(spec.xrage.dims.x - 1),
                              spacing * Real(spec.xrage.dims.y - 1),
                              spacing * Real(spec.xrage.dims.z - 1)});
}

Camera Harness::global_camera(const ExperimentSpec& spec) {
  return Camera::framing(global_bounds(spec), normalize(Vec3f{-0.55f, -0.4f, -0.73f}));
}

std::unique_ptr<DataSet> Harness::produce_share(const ExperimentSpec& spec, int share,
                                                int parts, Index timestep) {
  if (spec.application == Application::kHacc) {
    sim::HaccParams params = spec.hacc;
    params.timestep = timestep;
    return sim::generate_hacc_rank(params, share, parts);
  }
  sim::XrageParams params = spec.xrage;
  params.timestep = timestep;
  if (parts == 1) return sim::generate_xrage(params);
  const auto [lo, hi] = sim::grid_block_range(params.dims, share, parts);
  return sim::generate_xrage_block(params, lo, hi);
}

ImageBuffer Harness::render_reference(const ExperimentSpec& spec) {
  const std::unique_ptr<DataSet> data = produce_share(spec, 0, 1, 0);
  insitu::VizConfig cfg = spec.viz;
  cfg.images_per_timestep = 1;
  insitu::VizRankOutput out = insitu::run_viz_rank(*data, cfg, global_camera(spec));
  return std::move(out.images.front());
}

RunResult Harness::run(const ExperimentSpec& spec, const RunContext& ctx) const {
  spec.validate();
  const int M = spec.layout.ranks;
  const int P_sim = spec.layout.sim_nodes();
  const int P_viz = spec.layout.viz_node_count();
  const bool internode = spec.layout.coupling == cluster::Coupling::kInternode;
  // Resolve the wire codec once per run so every rank/timestep frames
  // with the same codec.
  const insitu::WireCodec wire_codec = spec.resolved_transport_codec();
  const Camera base_camera = global_camera(spec);

  if (!spec.artifact_dir.empty())
    std::filesystem::create_directories(spec.artifact_dir);

  // Sweep-wide memoization (DESIGN.md §10): proxy loads, filter
  // outputs and acceleration structures resolve through the artifact
  // cache. ETH_CACHE_BYTES=0 turns memoization off; a disabled cache
  // just runs every factory, so the data path below is the same either
  // way.
  ArtifactCache& cache = global_artifact_cache();
  const std::uint64_t app_fp = app_fingerprint(spec);

  // Per-run attribution (common/run_counters.hpp): every rank body of
  // THIS run installs a scope pointing at this sink, so the data-plane
  // and cache-lookup traffic it tallies is exactly this run's — even
  // when other harness runs execute concurrently.
  RunCounterSink run_sink;

  // Figure 3's "preliminary run of the simulation": when the disk proxy
  // is active, the instrumented-simulation dump happens up front and is
  // NOT part of the measured in-situ loop; only the proxy's read is.
  // Dump files are content-addressed — named by the generator
  // fingerprint instead of the sweep label — and files whose provenance
  // the cache's dump registry already proves on disk are not rewritten.
  // The registry works with memoization off too: rewriting a file
  // truncates it in place, which would fail a concurrent run reading
  // the same content-addressed file.
  const std::string sim_case = cas_dump_case(app_fp, M, P_sim);
  const std::string viz_case = cas_dump_case(app_fp, M, P_viz);
  if (spec.use_disk_proxy) {
    // Concurrent runs with identical generator parameters resolve to
    // the SAME content-addressed dump files; two writers racing on one
    // path would tear it (both see "missing" before either finishes).
    // One process-wide mutex serializes the whole preliminary phase —
    // it is explicitly outside the measured loop, so serializing it
    // costs wall clock only, never measurement.
    static std::mutex dump_phase_mutex;
    const std::lock_guard<std::mutex> dump_lock(dump_phase_mutex);
    struct DumpCase {
      sim::DumpWriter writer;
      int parts;
    };
    std::vector<DumpCase> cases{{sim::DumpWriter(spec.proxy_dir, sim_case), P_sim}};
    if (internode && P_sim != P_viz)
      cases.push_back({sim::DumpWriter(spec.proxy_dir, viz_case), P_viz});
    struct MissingFile {
      int rank;
      int share;
      std::string path;
      std::uint64_t fp;
    };
    for (Index t = 0; t < spec.timesteps; ++t) {
      for (const DumpCase& dump : cases) {
        std::vector<MissingFile> missing;
        for (int r = 0; r < M; ++r) {
          const int share = share_index(r, M, dump.parts);
          std::string path = sim::dump_path(spec.proxy_dir, dump.writer.case_name(), t, r);
          const std::uint64_t fp = share_fingerprint(app_fp, share, dump.parts, t);
          if (cache.lookup_dump(path) == fp && std::filesystem::exists(path)) continue;
          missing.push_back({r, share, std::move(path), fp});
        }
        if (missing.empty()) continue;
        // Grid blocks evaluate analytically: direct per-share synthesis.
        if (spec.application != Application::kHacc) {
          for (const MissingFile& file : missing) {
            dump.writer.write(*produce_share(spec, file.share, dump.parts, t), t, file.rank);
            cache.register_dump(file.path, file.fp);
          }
          continue;
        }
        // Particle slabs are filtered views of one stream: one parallel
        // walk of the timestep's stream yields every slab of the case
        // (DESIGN.md §18), and the missing files are written
        // concurrently on the pool. A file enters the dump registry
        // only once its write succeeded.
        sim::HaccParams params = spec.hacc;
        params.timestep = t;
        const std::vector<PointSet> slabs = sim::generate_hacc_slabs(params, dump.parts);
        std::vector<std::exception_ptr> errors(missing.size());
        {
          TaskGroup writes;
          for (std::size_t k = 0; k < missing.size(); ++k)
            writes.launch(global_pool(), [&, k] {
              const MissingFile& file = missing[k];
              try {
                dump.writer.write(slabs[static_cast<std::size_t>(file.share)], t, file.rank);
              } catch (...) {
                errors[k] = std::current_exception();
              }
            });
        }
        for (std::size_t k = 0; k < missing.size(); ++k)
          if (!errors[k]) cache.register_dump(missing[k].path, missing[k].fp);
        for (const std::exception_ptr& error : errors)
          if (error) std::rethrow_exception(error);
      }
    }
  }

  std::vector<core::RankReport> reports(static_cast<std::size_t>(M));
  std::vector<double> rank_totals(static_cast<std::size_t>(M), 0.0);
  ImageBuffer final_image;
  Bytes transferred_total = 0;
  insitu::RobustnessReport robustness_total;
  Index timesteps_dropped_total = 0;
  std::mutex harness_mutex;

  // Joins THIS run's read-ahead tasks — and only them. The pool is
  // shared with every concurrent harness run, so a global
  // pool.wait_idle() here would block on (or deadlock behind)
  // unrelated work.
  TaskGroup prefetch_group;

  // Staged pipeline engine (DESIGN.md §13): each rank's timestep loop
  // is a five-stage graph — produce, couple, viz, composite, write.
  // The synchronous couplings (and `coupling async` at depth 1) run
  // every stage inline in strict (timestep, stage) order: byte for
  // byte the historical serial loop. `coupling async` at depth >= 2
  // runs produce and couple on per-rank worker threads so the sim
  // proxy builds timestep t+1 while the viz proxy renders t; the
  // viz/composite/write tail stays on the rank thread because those
  // stages run minimpi collectives, which every rank must issue in one
  // identical order.
  const bool async_coupling = spec.layout.coupling == cluster::Coupling::kAsync;
  const bool tight = spec.layout.coupling == cluster::Coupling::kTight;
  const int pipeline_depth = async_coupling ? spec.resolved_pipeline_depth() : 1;

  mpi::run_world(M, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    // Every span this rank (and any pool worker executing its chunks)
    // emits lands on the rank's trace track, namespaced per sweep
    // point; the data-plane/cache traffic it generates lands on this
    // run's sink the same way. (Ownership split of the byte tallies is
    // a pure function of the spec — which hand-off paths execute — so
    // it is deterministic across thread counts and repeat runs.)
    const trace::TrackScope track_scope(ctx.trace_track_base + r);
    const RunSinkScope sink_scope(&run_sink);
    // Whole-body CPU of the rank thread (plus pool chunks borrowed by
    // it); stage-worker CPU folds in below. Together these bound the
    // per-phase accounting (RunResult::rank_cpu_total).
    KernelTimer rank_timer;
    double stage_worker_cpu = 0;
    std::mutex stage_worker_cpu_mutex;
    core::RankReport report;
    Bytes rank_transferred = 0;
    insitu::RobustnessReport rank_robustness;

    // Per-timestep state travelling between stages. Slot t % depth is
    // free by the time timestep t starts: the pipeline's in-flight
    // limiter admits at most `depth` timesteps at once. Measurements
    // land in the slot (stages may run on worker threads) and are
    // folded into the rank report by the viz stage in timestep order.
    struct TimestepSlot {
      std::shared_ptr<const DataSet> sim_data;
      std::shared_ptr<const DataSet> viz_data;
      std::uint64_t data_fp = 0; ///< provenance of the share viz consumes
      std::uint64_t viz_fp = 0;  ///< provenance of what the viz consumed
      double generate_cpu = 0;
      Index generate_items = 0;
      cluster::PerfCounters replayed; ///< recorded first-load counters
      double transfer_cpu = 0;
      Bytes transferred = 0;
      insitu::RobustnessReport robustness;
      insitu::VizRankOutput viz_out;
      std::vector<std::size_t> view_order;
      std::vector<ImageBuffer> merged; ///< rank 0: composited images
      bool delivered = false;
    };
    std::vector<TimestepSlot> slots(static_cast<std::size_t>(pipeline_depth));
    const auto slot_for = [&](Index t) -> TimestepSlot& {
      return slots[static_cast<std::size_t>(t % pipeline_depth)];
    };

    // Resolve one share of `parts` through the artifact cache (each
    // (timestep, rank) dump is read at most once per sweep) and charge
    // the recorded first-load cost on hit and miss alike.
    const auto load_share = [&](TimestepSlot& slot, const std::string& case_name,
                                int parts, Index t) {
      const trace::Span span("sim.load");
      const ShareRequest request = share_request(
          spec, app_fp, case_name, share_index(r, M, parts), parts, t, r);
      const CacheLookup lookup = cache.get_or_compute(request.key, request.factory);
      slot.sim_data = lookup.as<DataSet>();
      slot.data_fp = lookup.content_fp;
      slot.generate_cpu += lookup.recorded.phases.get("generate");
      slot.replayed.merge(lookup.recorded);
    };

    // ---- stage "produce": the simulation proxy produces this modelled
    // node's share: a disk read of the preliminary dump ("reads the
    // simulation data into memory and presents it ... as if by the
    // simulation itself"), or an in-memory synthesis when no proxy dir
    // is used.
    const auto produce_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      slot = TimestepSlot{};
      load_share(slot, sim_case, P_sim, t);
      // Read-ahead: warm the NEXT timestep's share on the pool while
      // this one renders. The request is captured by value: the task
      // may outlive this iteration (run() joins it before returning).
      // prefetch() never throws, and is a no-op with memoization off.
      if (spec.use_disk_proxy && t + 1 < spec.timesteps) {
        prefetch_group.launch(
            global_pool(),
            [&cache, next = share_request(spec, app_fp, sim_case,
                                          share_index(r, M, P_sim), P_sim, t + 1, r)] {
              cache.prefetch(next.key, next.factory);
            });
      }
      slot.generate_items =
          Index(double(dataset_elements(*slot.sim_data)) * spec.data_scale);
    };

    // ---- stage "couple": the sim -> viz hand-off. Tight coupling
    // moves the buffers; the process-separated couplings (intercore,
    // internode, async) run the real serialize -> copy -> deserialize
    // cycle through the in-proc channel (optionally quantized: the
    // paper's compression technique as an in-situ parameter), with the
    // channel ends wrapped in FaultInjectors when fault injection is
    // active: a frame still failing after the retry budget is dropped —
    // counted, never fatal. Rank-local by construction (no
    // collectives), so it may run on a stage worker; the ALL-ranks drop
    // decision happens at the head of the viz stage.
    const auto couple_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      if (tight) {
        // Merged process: the visualization consumes the simulation's
        // buffers directly.
        slot.viz_data = std::move(slot.sim_data);
        slot.viz_fp = slot.data_fp;
        slot.delivered = true;
        return;
      }
      // Internode redistributes sim shares (1/P_sim each) into viz
      // shares (1/P_viz each); the modelled exchange is charged by
      // the interconnect model, and here the receiving side
      // materializes its share directly.
      if (internode && P_sim != P_viz) load_share(slot, viz_case, P_viz, t);
      ThreadCpuTimer xfer_timer;
      auto [sim_end, viz_end] = insitu::make_inproc_channel();
      if (spec.fault.any()) {
        sim_end = std::make_unique<insitu::FaultInjector>(
            std::move(sim_end), spec.fault, std::uint64_t(2 * r));
        viz_end = std::make_unique<insitu::FaultInjector>(
            std::move(viz_end), spec.fault, std::uint64_t(2 * r + 1));
      }
      // Only encode and decode differ between the two hand-offs. The
      // lossless one is zero-copy: the wire message borrows the
      // dataset's bulk arrays (kept alive by the shared_ptr keepalive)
      // and the delivered message's segments back the received dataset
      // copy-on-write. The quantized one ships compress_dataset's
      // buffer as one owned segment.
      const int bits = spec.transport_quantization_bits;
      const std::shared_ptr<const DataSet> shared = std::move(slot.sim_data);
      const WireMessage msg = [&] {
        const trace::Span span("serialize");
        if (bits == 0) return wire_message_for_dataset(shared);
        WireMessage packed;
        packed.append_owned(Buffer::adopt(compress_dataset(*shared, bits)));
        return packed;
      }();
      const auto delivered =
          insitu::transfer_with_retry(*sim_end, *viz_end, msg, spec.transfer_retry,
                                      slot.robustness, wire_codec);
      if (delivered.has_value()) {
        const trace::Span span("deserialize");
        // A one-segment payload arrives as one segment (the frame
        // header is a segment of its own), so the quantized message is
        // contiguous.
        slot.viz_data = bits == 0 ? deserialize_dataset(*delivered)
                                  : decompress_dataset(delivered->contiguous_bytes());
      }
      // The lossless round trip is bit-exact: same content identity.
      // Quantization is lossy: the delivered content is a pure function
      // of (input, bit width), so chain the provenance.
      slot.viz_fp = bits == 0 ? slot.data_fp
                              : fingerprint_chain(slot.data_fp,
                                                  strprintf("quantized bits=%d", bits));
      slot.transfer_cpu += xfer_timer.elapsed();
      slot.transferred = sim_end->bytes_sent();
    };

    // ---- stage "viz": first collective-bearing stage, always on the
    // rank thread in timestep order. Folds the produce/couple slot
    // measurements into the rank report, settles the all-ranks drop
    // decision, then runs the visualization proxy. All ranks must color
    // on the same scale for partial images to composite, so the active
    // scalar's range is allreduced across ranks first (unless the spec
    // pinned one explicitly).
    const auto viz_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      auto& gen_phase = report.phases["generate"];
      gen_phase.cpu_seconds += slot.generate_cpu;
      gen_phase.parallel_items =
          std::max(gen_phase.parallel_items, slot.generate_items);
      report.counters.merge(slot.replayed);
      if (!tight) {
        // CPU cost lands in the "transfer" phase (informational) and
        // the byte count feeds the interconnect model.
        report.phases["transfer"].cpu_seconds += slot.transfer_cpu;
        rank_transferred += slot.transferred;
        report.dataset_bytes =
            std::max(report.dataset_bytes, Bytes(slot.transferred));
        rank_robustness.merge(slot.robustness);

        // Degrade gracefully and stay collective-consistent: if ANY
        // rank lost this timestep's frame, every rank skips the
        // timestep together (the viz/composite path below runs
        // collectives, so a lone rank cannot drop out on its own).
        slot.delivered =
            comm.allreduce_scalar(slot.viz_data != nullptr ? 1.0 : 0.0,
                                  mpi::ReduceOp::kMin) > 0.5;
        if (!slot.delivered) {
          slot.viz_data.reset();
          if (r == 0) {
            std::lock_guard<std::mutex> lock(harness_mutex);
            ++timesteps_dropped_total;
          }
          return;
        }
      }

      insitu::VizConfig rank_cfg = spec.viz;
      rank_cfg.timestep = t; // drives the per-timestep plane/iso phase
      rank_cfg.artifact_cache = &cache;
      rank_cfg.input_fingerprint = slot.viz_fp;
      if (!rank_cfg.has_explicit_scalar_range()) {
        const std::string& field_name =
            insitu::is_particle_algorithm(rank_cfg.algorithm)
                ? rank_cfg.particle_scalar
                : rank_cfg.volume_field;
        if (!field_name.empty() && slot.viz_data->point_fields().has(field_name)) {
          const auto [lo, hi] =
              slot.viz_data->point_fields().get(field_name).range();
          rank_cfg.scalar_range_lo =
              Real(comm.allreduce_scalar(lo, mpi::ReduceOp::kMin));
          rank_cfg.scalar_range_hi =
              Real(comm.allreduce_scalar(hi, mpi::ReduceOp::kMax));
        }
      }
      slot.viz_out = insitu::run_viz_rank(*slot.viz_data, rank_cfg, base_camera);
      insitu::VizRankOutput& viz_out = slot.viz_out;
      for (const char* phase : {"sample", "extract", "build", "render"}) {
        const double cpu = viz_out.counters.phases.get(phase);
        if (cpu <= 0) continue;
        auto& phase_slot = report.phases[phase];
        phase_slot.cpu_seconds += cpu;
      }
      // Item counts enter the utilization model at PAPER scale.
      const auto data_items = [&](Index items) {
        return Index(double(items) * spec.data_scale);
      };
      report.phases["sample"].parallel_items = data_items(viz_out.input_elements);
      report.phases["extract"].parallel_items = data_items(viz_out.working_elements);
      report.phases["build"].parallel_items = data_items(viz_out.working_elements);
      const Index prims_per_image =
          viz_out.counters.primitives_emitted /
          std::max<Index>(1, spec.viz.images_per_timestep);
      const bool pixel_bound =
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastSpheres ||
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastVolume ||
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastDvr;
      const Index raw_render_items =
          render_items(spec.viz, viz_out.working_elements, prims_per_image);
      report.phases["render"].parallel_items =
          pixel_bound ? Index(double(raw_render_items) * spec.pixel_scale)
                      : data_items(raw_render_items);
      report.counters.merge(viz_out.counters);
    };

    // ---- stage "composite": each image merges at rank 0 over minimpi
    // (collectives — rank thread, timestep order). Opaque pipelines
    // merge by depth (order-independent); the DVR pipeline's
    // premultiplied partials must blend in view order, so ranks first
    // share their partition's eye distance.
    const auto composite_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      if (!slot.delivered) return;
      const bool ordered_alpha =
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastDvr;
      if (ordered_alpha) {
        const double my_dist =
            double(length(slot.viz_data->bounds().center() - base_camera.eye()));
        const auto dist_bytes = comm.gather(
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(&my_dist), sizeof my_dist),
            0);
        if (r == 0) {
          std::vector<double> dists(static_cast<std::size_t>(M));
          for (int src = 0; src < M; ++src)
            std::memcpy(&dists[static_cast<std::size_t>(src)],
                        dist_bytes[static_cast<std::size_t>(src)].data(),
                        sizeof(double));
          slot.view_order.resize(static_cast<std::size_t>(M));
          std::iota(slot.view_order.begin(), slot.view_order.end(),
                    std::size_t(0));
          // Equal view distances (symmetric partitions) tie-break on
          // rank so the blend order — and therefore the composited
          // image — never depends on the sort implementation.
          std::sort(slot.view_order.begin(), slot.view_order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return dists[a] != dists[b] ? dists[a] < dists[b] : a < b;
                    });
        }
      }

      for (std::size_t img = 0; img < slot.viz_out.images.size(); ++img) {
        const std::vector<std::uint8_t> packed = pack_image(slot.viz_out.images[img]);
        report.image_bytes = std::max(report.image_bytes, Bytes(packed.size()));
        const auto gathered = comm.gather(packed, 0);
        report.counters.bytes_communicated += packed.size();
        if (r != 0) continue;

        // KernelTimer: the compositors fan out over the thread pool, and
        // rank 0 must be charged for the worker-executed pixel chunks.
        KernelTimer comp_timer;
        ImageBuffer merged;
        std::vector<ImageBuffer> partials;
        partials.reserve(static_cast<std::size_t>(M));
        partials.push_back(std::move(slot.viz_out.images[img]));
        for (int src = 1; src < M; ++src)
          partials.push_back(unpack_image(gathered[static_cast<std::size_t>(src)]));
        if (ordered_alpha) {
          merged = ImageBuffer(partials[0].width(), partials[0].height());
          merged.clear({0, 0, 0, 0});
          alpha_composite_premultiplied(partials, slot.view_order, merged,
                                        report.counters);
        } else {
          // Pairwise reduction tree in ascending rank order: bit-
          // identical to the sequential rank-order fold (ties resolve
          // to the lower rank) but with log2(M) parallel levels.
          depth_composite_tree(partials, report.counters);
          merged = std::move(partials[0]);
        }
        auto& comp_phase = report.phases["composite"];
        comp_phase.cpu_seconds += comp_timer.elapsed();
        comp_phase.parallel_items =
            Index(double(merged.num_pixels()) * spec.pixel_scale);
        slot.merged.push_back(std::move(merged));
      }
    };

    // ---- stage "write": artifact output + final-image capture, then
    // the slot's payloads release (freeing its in-flight token is the
    // pipeline's job). Only rank 0 holds composited images.
    const auto write_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      for (std::size_t img = 0; img < slot.merged.size(); ++img) {
        ImageBuffer& merged = slot.merged[img];
        if (!spec.artifact_dir.empty()) {
          const trace::Span span("write");
          ThreadCpuTimer write_timer;
          merged.write_ppm(spec.artifact_dir + "/" + spec.name +
                           strprintf("_t%03lld_i%03zu.ppm", static_cast<long long>(t),
                                     img));
          report.phases["write"].cpu_seconds += write_timer.elapsed();
        }
        if (t == spec.timesteps - 1 && img + 1 == slot.merged.size()) {
          std::lock_guard<std::mutex> lock(harness_mutex);
          final_image = std::move(merged);
        }
      }
      slot.viz_data.reset();
      slot.viz_out = insitu::VizRankOutput{};
      slot.merged.clear();
    };

    StagePipeline::Options pipe_options;
    pipe_options.depth = pipeline_depth;
    // produce + couple are rank-local (no collectives) — only they may
    // leave the rank thread. Depth 1 keeps everything inline.
    pipe_options.async_stages = pipeline_depth > 1 ? 2 : 0;
    pipe_options.worker_wrap = [&](const std::function<void()>& loop) {
      // Stage workers attribute exactly like the rank thread they
      // serve: same trace track, same run sink; their CPU (plus pool
      // chunks they borrowed) folds into the rank total.
      const trace::TrackScope worker_track(ctx.trace_track_base + r);
      const RunSinkScope worker_sink(&run_sink);
      KernelTimer worker_timer;
      loop();
      const double cpu = worker_timer.elapsed();
      std::lock_guard<std::mutex> lock(stage_worker_cpu_mutex);
      stage_worker_cpu += cpu;
    };
    StagePipeline pipeline({{"produce", produce_stage},
                            {"couple", couple_stage},
                            {"viz", viz_stage},
                            {"composite", composite_stage},
                            {"write", write_stage}},
                           pipe_options);
    pipeline.run(spec.timesteps);

    {
      std::lock_guard<std::mutex> lock(harness_mutex);
      reports[static_cast<std::size_t>(r)] = std::move(report);
      transferred_total += rank_transferred;
      robustness_total.merge(rank_robustness);
      rank_totals[static_cast<std::size_t>(r)] =
          rank_timer.elapsed() + stage_worker_cpu;
    }
  });

  // Join THIS run's in-flight read-ahead before accounting (and before
  // callers delete proxy directories out from under a late prefetch).
  prefetch_group.wait();

  // ---- aggregate measurements and map onto the modelled machine.
  // The run's own counts (data plane, wire, cache lookups) plus the
  // shared cache's resident footprint when the run ended (observational
  // — cache-class metrics are the ONLY ones allowed to differ between
  // cache-on and cache-off runs), folded by the registry's merge rules.
  run_sink.cache_bytes.add(cache.stats().bytes_resident);
  RunResult result;
  result.counters.fold(run_sink);
  result.robustness = robustness_total;
  result.timesteps_dropped = timesteps_dropped_total;
  for (const core::RankReport& report : reports) {
    result.counters.merge(report.counters);
    std::map<std::string, double>& phase_cpu = result.rank_phase_cpu.emplace_back();
    for (const auto& [name, sample] : report.phases) {
      phase_cpu[name] = sample.cpu_seconds;
      result.measured_cpu_seconds += sample.cpu_seconds;
    }
  }
  result.rank_cpu_total = rank_totals;
  // Scale per-rank transfer volume to the full modelled node count.
  result.bytes_transferred =
      transferred_total / static_cast<Bytes>(std::max(1, M)) *
      static_cast<Bytes>(internode ? P_viz : spec.layout.nodes);

  const core::NodePhaseTimes times =
      core::reduce_reports(reports, spec.machine, options_);
  if (knobs::value(knobs::Knob::model_debug) != 0) {
    std::fprintf(stderr,
                 "[eth model] %s: gen=%.4fs(u=%.2f) viz=%.4fs(u=%.2f) "
                 "comp=%.4fs write=%.4fs data=%s image=%s\n",
                 spec.name.c_str(), times.generate, times.generate_utilization,
                 times.viz_compute, times.viz_utilization, times.root_composite,
                 times.root_write, format_bytes(times.dataset_bytes).c_str(),
                 format_bytes(times.image_bytes).c_str());
  }
  const cluster::Timeline timeline =
      core::compose_timeline(times, spec.layout, spec.machine, options_,
                             spec.timesteps, spec.viz.images_per_timestep,
                             options_.direct_send_composite, pipeline_depth);
  const cluster::RunPowerReport power = timeline.report();
  result.busy_spans = timeline.spans();

  // Observability (DESIGN.md §11): sample this run's byte-volume
  // metrics (data plane, wire, cache footprint) as trace counters, and
  // project the modelled BusySpans onto "model node" tracks (modelled
  // seconds scaled to trace nanoseconds) so the simulated timeline sits
  // next to the measured wall spans in one Perfetto view.
  if (trace::enabled()) {
    for_each_run_metric(
        [](const MetricInfo& m, const auto& cell) {
          if constexpr (std::is_same_v<decltype(cell.load()), Bytes>)
            trace::counter(m.name, double(cell.load()));
        },
        run_sink);
    for (const cluster::BusySpan& span : result.busy_spans)
      trace::emit_span_at(span.label,
                          trace::kModelTrackBase + ctx.trace_track_base +
                              span.first_node,
                          std::int64_t(span.start * 1e9),
                          std::int64_t(span.duration() * 1e9));
  }

  result.exec_seconds = power.makespan;
  result.average_power = power.average_power;
  result.average_dynamic_power = power.average_dynamic_power;
  result.energy = power.energy;
  result.dynamic_energy = power.dynamic_energy;
  result.power_trace = power.trace;
  if (final_image.num_pixels() > 0) result.final_image = std::move(final_image);
  return result;
}

namespace {

/// The one robustness column list: f(name, value) per column.
template <class F>
void for_each_robustness_column(const RunResult& result, F&& f) {
  const insitu::RobustnessReport& r = result.robustness;
  f("frames_sent", r.frames_sent);
  f("frames_delivered", r.frames_delivered);
  f("frames_retried", r.frames_retried);
  f("frames_dropped", r.frames_dropped);
  f("frames_corrupt", r.frames_corrupt);
  f("frames_timed_out", r.frames_timed_out);
  f("timesteps_dropped", result.timesteps_dropped);
  for_each_run_metric(
      [&](const MetricInfo& m, const auto& value) {
        if (m.determinism != Determinism::measured) f(m.name, Index(value));
      },
      result.counters);
}

} // namespace

std::vector<std::string> robustness_columns() {
  std::vector<std::string> names;
  for_each_robustness_column(RunResult{}, [&](const char* name, Index) {
    names.emplace_back(name);
  });
  return names;
}

void add_robustness_cells(ResultTable& table, const RunResult& result) {
  for_each_robustness_column(result, [&](const char*, Index value) {
    table.add_cell(value);
  });
}

ResultTable robustness_table(const RunResult& result) {
  ResultTable table(robustness_columns());
  table.begin_row();
  add_robustness_cells(table, result);
  return table;
}

} // namespace eth
