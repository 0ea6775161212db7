// eth_perfbench: one run of one workload of the ETH benchmark.
//
//   eth_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --scratch <dir> [--print-pins]
//
// Sets up (inputs plus one untimed warm-up unit, several times), then
// runs the workload's unit in a closed loop for --seconds, checks every
// unit's final images and deterministic counters, and prints the
// end-to-end metrics. With --trace 1 it then replays one design point
// layer by layer (replay.hpp) and prints the per-layer metrics
// instead. The last stdout line is the JSON result. perfbench/run.py
// builds this program and is the benchmark's entry point; README.md
// describes the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "insitu/transport.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"

#include "pins.hpp"
#include "replay.hpp"

namespace {

using namespace eth;
using perfbench::kPins;
using perfbench::kSignatureLength;
using perfbench::Signature;
using perfbench::SpanStats;
using Clock = std::chrono::steady_clock;

// Seeds. Pinned reference values exist for kDefaultSeed only; every
// later performance claim must also hold on kHeldOutSeed, which no
// tuning of this benchmark used.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7919;

// Thread budget (4 cores): pool workers <= nproc and, per workload,
// ranks x sweep workers <= nproc.
constexpr unsigned kPoolThreads = 4;
constexpr Bytes kCacheBytes = Bytes(512) << 20;
constexpr int kSetups = 3;
constexpr int kMinTimedUnits = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; only meaningful with >= 10 samples beyond it.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull + salt);
  return sm.next();
}

// ---------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::vector<SweepPoint> points; ///< one point, or the sweep
  int sweep_workers = 1;
  std::size_t replay_point = 0;   ///< the point the traced run replays
};

ExperimentSpec hacc_spec(std::uint64_t seed, const std::string& proxy_dir) {
  ExperimentSpec spec;
  spec.application = Application::kHacc;
  spec.hacc.num_halos = 96;
  spec.hacc.seed = derive_seed(seed, 1);
  spec.timesteps = 1;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 256;
  spec.viz.image_height = 256;
  spec.viz.sampling_seed = derive_seed(seed, 3);
  spec.use_disk_proxy = true;
  spec.proxy_dir = proxy_dir;
  spec.pipeline_depth = 1;
  return spec;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& proxy_dir) {
  Workload w;
  w.name = name;
  if (name == "hacc-internode-lz4") {
    // 1.2 M particles over P_sim = P_viz = 4 shares: 9.6 MB per rank
    // share, 4.6x the 2 MiB per-core L2.
    ExperimentSpec spec = hacc_spec(seed, proxy_dir);
    spec.name = name;
    spec.hacc.num_particles = 1'200'000;
    spec.viz.images_per_timestep = 4;
    spec.layout.coupling = cluster::Coupling::kInternode;
    spec.layout.nodes = 8;
    spec.layout.ranks = 4;
    spec.transport_codec = "lz4";
    w.points.push_back({name, spec});
  } else if (name == "xrage-geometry-async") {
    ExperimentSpec spec;
    spec.name = name;
    spec.application = Application::kXrage;
    spec.xrage.dims = {160, 100, 84};
    spec.xrage.seed = derive_seed(seed, 2);
    spec.timesteps = 3;
    spec.viz.algorithm = insitu::VizAlgorithm::kVtkGeometry;
    spec.viz.volume_field = "temperature";
    spec.viz.isovalue = 0.5f;
    spec.viz.num_slices = 2;
    spec.viz.image_width = 256;
    spec.viz.image_height = 256;
    spec.viz.images_per_timestep = 4;
    spec.viz.sampling_seed = derive_seed(seed, 3);
    spec.proxy_dir = proxy_dir;
    spec.layout.coupling = cluster::Coupling::kAsync;
    spec.layout.nodes = 4;
    spec.layout.ranks = 4;
    spec.pipeline_depth = 2;
    spec.transport_codec = "none";
    w.points.push_back({name, spec});
  } else if (name == "hacc-sweep-warm") {
    ExperimentSpec base = hacc_spec(seed, proxy_dir);
    base.name = name;
    base.hacc.num_particles = 600'000;
    base.viz.images_per_timestep = 2;
    base.layout.coupling = cluster::Coupling::kIntercore;
    base.layout.nodes = 4;
    base.layout.ranks = 2;
    base.transport_codec = "none";
    for (const auto algorithm :
         {insitu::VizAlgorithm::kRaycastSpheres, insitu::VizAlgorithm::kGaussianSplat,
          insitu::VizAlgorithm::kVtkPoints})
      for (const double ratio : {1.0, 0.5, 0.25}) {
        SweepPoint point{std::string(insitu::to_string(algorithm)) + "@" +
                             std::to_string(ratio).substr(0, 4),
                         base};
        point.spec.viz.algorithm = algorithm;
        point.spec.viz.sampling_ratio = ratio;
        point.spec.name = name + "-" + point.label;
        w.points.push_back(std::move(point));
      }
    w.sweep_workers = 2;
    w.replay_point = 1; // raycast-spheres at ratio 0.5: sample, BVH, raycast
  } else {
    fail("unknown workload '" + name +
         "' (valid: hacc-internode-lz4, xrage-geometry-async, hacc-sweep-warm)");
  }
  return w;
}

// ------------------------------------------------------- correctness

const char* const kSignatureNames[kSignatureLength] = {
    "image_fp",      "bytes_on_wire",      "frames_sent",   "frames_delivered",
    "bytes_copied",  "bytes_borrowed",     "elements",      "primitives",
    "rays_cast",     "ray_steps",          "bvh_nodes",     "flop_estimate_bits",
    "bytes_read",    "bytes_written",      "bytes_communicated", "timesteps_dropped"};

std::uint64_t image_fingerprint(const ImageBuffer& image) {
  return fingerprint_bytes(pack_image(image));
}

/// The values that are bit-identical across threads, ISA, codec and
/// cache (DESIGN.md §9-§15) for one design point.
Signature point_signature(const RunResult& r) {
  const cluster::PerfCounters& c = r.counters;
  std::uint64_t flop_bits = 0;
  std::memcpy(&flop_bits, &c.flop_estimate, sizeof flop_bits);
  return {r.final_image ? image_fingerprint(*r.final_image) : 0,
          c.bytes_on_wire,
          std::uint64_t(r.robustness.frames_sent),
          std::uint64_t(r.robustness.frames_delivered),
          c.bytes_copied,
          c.bytes_borrowed,
          std::uint64_t(c.elements_processed),
          std::uint64_t(c.primitives_emitted),
          std::uint64_t(c.rays_cast),
          std::uint64_t(c.ray_steps),
          std::uint64_t(c.bvh_nodes_visited),
          flop_bits,
          c.bytes_read,
          c.bytes_written,
          c.bytes_communicated,
          std::uint64_t(r.timesteps_dropped)};
}

/// Describe the first difference, or "" when equal.
std::string signature_diff(const std::vector<Signature>& got,
                           const std::vector<Signature>& want) {
  if (got.size() != want.size())
    return "point count " + std::to_string(got.size()) + " != " + std::to_string(want.size());
  for (std::size_t p = 0; p < got.size(); ++p)
    for (std::size_t k = 0; k < kSignatureLength; ++k)
      if (got[p][k] != want[p][k])
        return "point " + std::to_string(p) + " " + kSignatureNames[k] + ": " +
               std::to_string(got[p][k]) + " != " + std::to_string(want[p][k]);
  return "";
}

// ------------------------------------------------------------- units

struct Unit {
  double wall_s = 0;
  std::vector<RunResult> results; ///< one per design point (set-up units only)
  std::vector<Signature> signature;
  double makespan_s = 0;     ///< summed over the unit's points
  double energy_j = 0;
  double measured_cpu_s = 0;
  Index frames_retried = 0;
  Bytes cache_bytes = 0;     ///< largest resident cache at a point's end
};

/// One closed-loop unit: the cache is cleared, then the point (or the
/// whole sweep) runs; the next unit starts when this one returns.
Unit run_unit(const Harness& harness, const Workload& w) {
  Unit unit;
  const Clock::time_point t0 = Clock::now();
  global_artifact_cache().clear();
  if (w.points.size() == 1) {
    unit.results.push_back(harness.run(w.points[0].spec));
  } else {
    for (SweepOutcome& outcome : run_sweep(harness, w.points))
      unit.results.push_back(std::move(outcome.result));
  }
  unit.wall_s = seconds_since(t0);
  for (const RunResult& r : unit.results) {
    unit.signature.push_back(point_signature(r));
    unit.makespan_s += r.exec_seconds;
    unit.energy_j += r.energy;
    unit.measured_cpu_s += r.measured_cpu_seconds;
    unit.frames_retried += r.robustness.frames_retried;
    unit.cache_bytes = std::max(unit.cache_bytes, r.counters.cache_bytes);
  }
  return unit;
}

// ------------------------------------------------------------ record

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {0};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    return s;
  }
#endif
  return "unknown";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_json_result(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  bool print_pins = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--print-pins") {
      a.print_pins = true;
      continue;
    }
    require(i + 1 < argc, "missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--scratch") a.scratch = value;
    else fail("unknown argument " + key);
  }
  require(!a.workload.empty() && !a.scratch.empty(), "--workload and --scratch are required");
  require(a.seconds > 0, "--seconds must be positive");
  return a;
}

// The span names of the replay, in table order.
const char* const kSpans[] = {
    "sim.generate",        "sim.extract",          "sim.dump_write",
    "sim.proxy_load",      "data.serialize",       "data.deserialize",
    "data.field_range",    "insitu.frame_encode",  "insitu.frame_decode",
    "insitu.transfer",     "common.byte_shuffle",  "common.byte_unshuffle",
    "common.lz_compress",  "common.lz_decompress", "common.crc32",
    "pipeline.sample",     "pipeline.isosurface",  "pipeline.slice",
    "render.bvh_build",    "render.raycast_spheres", "render.raster_mesh",
    "render.pack_image",   "render.unpack_image",  "render.composite"};

const char* const kRateSpans[] = {"sim.dump_write",       "sim.proxy_load",
                                  "common.lz_compress",   "common.lz_decompress",
                                  "common.byte_shuffle",  "common.crc32"};

int run(const Args& args) {
  const std::string build_type = ETH_PERFBENCH_BUILD_TYPE;
  require(build_type == "Release" || build_type == "RelWithDebInfo",
          "refusing to measure an unoptimized build (CMAKE_BUILD_TYPE=" + build_type + ")");
  // ---- pin all eight runtime knobs (spec fields and override hooks;
  // run.py also clears every ETH_* variable from the environment).
  unsetenv("ETH_MODEL_DEBUG");
  unsetenv("ETH_TRACE");
  trace::set_enabled(false);
  ThreadPool pool(kPoolThreads);
  set_global_pool(&pool);
  struct PoolReset {
    ~PoolReset() { set_global_pool(nullptr); }
  } pool_reset;
  simd::set_isa_override("native");
  insitu::set_wire_codec_override("none");
  ArtifactCache& cache = global_artifact_cache();
  cache.set_enabled(true);
  cache.set_budget_bytes(kCacheBytes);

  const std::string proxy_dir = args.scratch + "/proxy";
  const Workload w = make_workload(args.workload, args.seed, proxy_dir);
  set_sweep_worker_override(w.sweep_workers);
  const ExperimentSpec& spec0 = w.points[0].spec;
  const int ranks = spec0.layout.ranks;

  const long nproc = long(std::thread::hardware_concurrency());
  std::printf("== eth_perfbench  workload %s  seed %llu%s  seconds %g  trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seed == kDefaultSeed ? " (default, pinned)" : "", args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc %ld  cpu \"%s\"  L2 %ld KiB/core  L3 %ld KiB shared  isa %s  "
              "build %s\n",
              nproc, cpu_model().c_str(), sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024, simd::isa_label().c_str(),
              ETH_PERFBENCH_BUILD_TYPE);
  std::printf("knobs: ETH_THREADS=%u ETH_SIMD=%s ETH_WIRE_CODEC=%s ETH_SWEEP_WORKERS=%d "
              "ETH_PIPELINE_DEPTH=%d ETH_CACHE_BYTES=%llu ETH_TRACE=%s ETH_MODEL_DEBUG=%s\n",
              global_pool().size(), simd::isa_label().c_str(),
              insitu::to_string(spec0.resolved_transport_codec()), sweep_worker_count(),
              spec0.resolved_pipeline_depth(),
              static_cast<unsigned long long>(cache.enabled() ? cache.budget_bytes() : 0),
              trace::enabled() ? "on" : "unset",
              std::getenv("ETH_MODEL_DEBUG") != nullptr ? "set" : "unset");
  std::printf("threads: %d ranks x %d sweep workers, pool %u (nproc %ld); held-out seed %llu\n",
              ranks, w.sweep_workers, global_pool().size(), nproc,
              static_cast<unsigned long long>(kHeldOutSeed));
  if (long(ranks) * w.sweep_workers > nproc || long(kPoolThreads) > nproc)
    std::printf("warning: thread budget exceeds nproc; numbers measure oversubscription\n");

  const Harness harness;
  long attempted = 0;
  long failed = 0;
  const auto attempt = [&](Unit& unit) -> bool {
    ++attempted;
    try {
      unit = run_unit(harness, w);
      return true;
    } catch (const std::exception& e) {
      ++failed;
      std::printf("unit failed: %s\n", e.what());
      return false;
    }
  };

  // ---- set-up: fresh inputs and one untimed warm-up unit, kSetups
  // times; the first warm-up's outputs are this run's reference.
  std::vector<double> setup_s;
  Unit reference;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    std::filesystem::remove_all(proxy_dir);
    std::filesystem::create_directories(proxy_dir);
    Unit unit;
    if (!attempt(unit)) {
      print_json_result(false, attempted, failed, {});
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
    if (s == 0) reference = std::move(unit);
  }
  if (args.print_pins) {
    std::printf("    {\"%s\", {\n", w.name.c_str());
    for (const Signature& sig : reference.signature) {
      std::printf("        {");
      for (std::size_t k = 0; k < kSignatureLength; ++k)
        std::printf("%s%lluull", k ? ", " : "", static_cast<unsigned long long>(sig[k]));
      std::printf("},\n");
    }
    std::printf("    }},\n");
    return 0;
  }
  std::vector<Signature> expected = reference.signature;
  bool correct = true;
  if (args.seed == kDefaultSeed) {
    const auto pin = kPins.find(w.name);
    require(pin != kPins.end(), "no pinned reference for " + w.name);
    const std::string diff = signature_diff(reference.signature, pin->second);
    if (!diff.empty()) {
      std::printf("MISMATCH against the pinned reference: %s\n", diff.c_str());
      expected = pin->second;
      failed += kSetups; // every set-up unit reproduced the mismatch
      correct = false;
    }
  }

  // ---- timed closed loop.
  const CacheStats cache_before = cache.stats();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point loop_start = Clock::now();
  std::vector<Unit> units;
  for (int timed = 0; timed < kMinTimedUnits || seconds_since(loop_start) < args.seconds;
       ++timed) {
    Unit unit;
    if (!attempt(unit)) {
      correct = false;
      continue;
    }
    const std::string diff = signature_diff(unit.signature, expected);
    if (!diff.empty()) {
      std::printf("unit %zu MISMATCH: %s\n", units.size(), diff.c_str());
      ++failed;
      correct = false;
    }
    // Keep aggregates only: holding every unit's images would grow the
    // process's RSS with the run length.
    unit.results.clear();
    units.push_back(std::move(unit));
  }
  if (units.empty()) {
    print_json_result(false, attempted, failed, {});
    return 1;
  }
  const double loop_wall = seconds_since(loop_start);
  const double loop_cpu = process_cpu_seconds() - cpu0;
  const double rss = peak_rss_mib();
  const CacheStats cache_after = cache.stats();

  const double points = double(units.size() * w.points.size());
  std::vector<double> wall, makespan, energy, measured_cpu;
  Index frames_retried = 0;
  double cache_peak_mb = 0;
  for (const Unit& u : units) {
    wall.push_back(u.wall_s);
    makespan.push_back(u.makespan_s);
    energy.push_back(u.energy_j / 1e3);
    measured_cpu.push_back(u.measured_cpu_s);
    frames_retried += u.frames_retried;
    cache_peak_mb = std::max(cache_peak_mb, double(u.cache_bytes) / (1 << 20));
  }
  const double wall_s = median(wall);
  const double error_rate = attempted > 0 ? double(failed) / double(attempted) : 1.0;

  std::printf("set-up: %d x (inputs + warm-up unit), s:", kSetups);
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf(" (the first carries the process's cold start)\n");
  std::printf("timed: %zu units of %zu point(s) in %.3f s (closed loop); unit wall s:",
              units.size(), w.points.size(), loop_wall);
  for (double v : wall) std::printf(" %.3f", v);
  std::printf("\n");
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setup_s)},
      {"wall_s", "s", wall_s},
      {"points_per_s", "1/s", points / loop_wall},
      {"cpu_s_per_point", "s", loop_cpu / points},
      {"peak_rss_mb", "MiB", rss},
      {"model_makespan_s", "s", median(makespan)},
      {"model_energy_kj", "kJ", median(energy)},
  };
  std::printf("end-to-end (median of %zu units where a median):\n", units.size());
  for (const Metric& m : end_to_end)
    std::printf("  %-18s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-18s %14.6f fraction (%ld failed of %ld attempted)\n", "error_rate",
              error_rate, failed, attempted);

  if (!args.trace) {
    print_json_result(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }

  // ---- traced replay of one design point (tracing off above).
  const SweepPoint& point = w.points[w.replay_point];
  const RunResult& harness_result = reference.results[w.replay_point];
  std::printf("replay: point '%s' serially, one share at a time\n", point.label.c_str());
  const perfbench::ReplayResult rp = perfbench::replay_point(point.spec);

  std::vector<std::string> fidelity;
  const auto expect_equal = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want)
      fidelity.push_back(std::string(what) + " " + std::to_string(got) + " != harness " +
                         std::to_string(want));
  };
  expect_equal("final image fingerprint", image_fingerprint(rp.final_image),
               harness_result.final_image ? image_fingerprint(*harness_result.final_image) : 0);
  expect_equal("bytes_on_wire", rp.bytes_on_wire, harness_result.counters.bytes_on_wire);
  expect_equal("bytes_copied", rp.bytes_copied, harness_result.counters.bytes_copied);
  expect_equal("bytes_borrowed", rp.bytes_borrowed, harness_result.counters.bytes_borrowed);
  for (const std::string& f : fidelity) std::printf("REPLAY FIDELITY FAILED: %s\n", f.c_str());

  double layer_self_ms = 0;
  for (const auto& [name, stats] : rp.spans)
    for (double v : stats.self_ms) layer_self_ms += v;
  const double self_sum_ratio = layer_self_ms / rp.root_ms;
  const double wall_per_point = wall_s / double(w.points.size());
  const double coverage = rp.root_ms / 1e3 / wall_per_point;
  const bool attribution_ok = std::abs(1.0 - self_sum_ratio) <= 0.05;
  if (!attribution_ok)
    std::printf("ATTRIBUTION FAILED: layer self times cover %.1f%% of the replayed point "
                "(needs 95%%)\n",
                100 * self_sum_ratio);
  const Index lookups = (cache_after.hits + cache_after.misses) -
                        (cache_before.hits + cache_before.misses);
  const double n_units = double(units.size());

  std::vector<Metric> per_layer;
  std::printf("per-layer self time of the replayed point (ms; p95 shown with >= 200 calls):\n");
  std::printf("  %-24s %6s %10s %10s %10s\n", "span", "count", "p50", "p95", "self");
  for (const char* name : kSpans) {
    const auto it = rp.spans.find(name);
    const std::vector<double> none;
    const std::vector<double>& v = it != rp.spans.end() ? it->second.self_ms : none;
    double total = 0;
    for (double x : v) total += x;
    const double p50 = v.empty() ? 0 : median(v);
    per_layer.push_back({std::string(name) + ".p50_ms", "ms", p50});
    per_layer.push_back({std::string(name) + ".self_ms", "ms", total});
    per_layer.push_back({std::string(name) + ".count", "count", double(v.size())});
    if (v.empty()) continue;
    const std::string p95 =
        v.size() >= 200 ? std::to_string(percentile(v, 0.95)) : std::string("-");
    std::printf("  %-24s %6zu %10.3f %10s %10.3f\n", name, v.size(), p50, p95.c_str(), total);
  }
  for (const char* name : kRateSpans) {
    const auto it = rp.spans.find(name);
    double rate = 0;
    if (it != rp.spans.end()) {
      double total_ms = 0;
      for (double x : it->second.self_ms) total_ms += x;
      rate = total_ms > 0 ? it->second.bytes / 1e6 / (total_ms / 1e3) : 0;
    }
    per_layer.push_back({std::string(name) + ".mb_per_s", "MB/s", rate});
    if (rate > 0) std::printf("  %-24s %14.3f MB/s\n", per_layer.back().name.c_str(), rate);
  }
  const SpanStats& payloads = rp.spans.at("data.deserialize");
  std::printf("payload per rank share: %.2f MiB (per-core L2 %.2f MiB)\n",
              payloads.bytes / double(payloads.self_ms.size()) / (1 << 20),
              double(sysconf(_SC_LEVEL2_CACHE_SIZE)) / (1 << 20));
  const std::vector<Metric> counts = {
      {"common.lz_ratio", "ratio", rp.lz_coded_bytes > 0 ? rp.lz_raw_bytes / rp.lz_coded_bytes : 0},
      {"data.bytes_copied", "bytes", double(rp.bytes_copied)},
      {"data.bytes_borrowed", "bytes", double(rp.bytes_borrowed)},
      {"insitu.bytes_on_wire", "bytes", double(rp.bytes_on_wire)},
      {"insitu.frames_retried", "count", double(frames_retried) / n_units},
      {"pipeline.triangles", "count", double(rp.triangles)},
      {"parallel.cpu_util", "fraction", loop_cpu / (loop_wall * double(global_pool().size()))},
      {"core.cache_hit_ratio", "fraction",
       lookups > 0 ? double(cache_after.hits - cache_before.hits) / double(lookups) : 0},
      {"core.cache_lookups", "count", double(lookups) / n_units},
      {"core.prefetch_hits", "count",
       double(cache_after.prefetch_hits - cache_before.prefetch_hits) / n_units},
      {"core.cache_peak_mb", "MiB", cache_peak_mb},
      {"cluster.measured_cpu_s", "s", median(measured_cpu)},
      {"trace.coverage", "ratio", coverage},
      {"trace.self_sum_ratio", "ratio", self_sum_ratio},
  };
  for (const Metric& m : counts) {
    per_layer.push_back(m);
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("trace: replay %.1f ms per point against untraced wall_s %.1f ms per point "
              "(overhead %+.1f%%; serial replay vs parallel harness)\n",
              rp.root_ms, 1e3 * wall_per_point, 100 * (coverage - 1));

  const bool traced_ok = correct && fidelity.empty() && attribution_ok;
  print_json_result(traced_ok, attempted, failed, per_layer);
  return traced_ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  int code = 2;
  try {
    args = parse_args(argc, argv);
    code = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eth_perfbench: %s\n", e.what());
  }
  std::error_code ec;
  if (!args.scratch.empty()) std::filesystem::remove_all(args.scratch + "/proxy", ec);
  return code;
}
