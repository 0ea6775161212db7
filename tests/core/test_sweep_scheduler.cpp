// Concurrent sweep scheduler gate (ISSUE 7, DESIGN.md §12).
//
// The contract under test: run_sweep at ETH_SWEEP_WORKERS=N produces
// every artifact BIT-IDENTICAL to the serial sweep — images, the
// robustness table (all columns, cache included, for cache-off and
// cache-warm sweeps), the metrics table's count columns, and the
// trace's (name, track) -> count histogram — while on_result still
// fires serially in submission order. Plus the cross-run lifetime
// regressions the scheduler exposed: a harness run must join only its
// OWN read-ahead tasks, and concurrent runs sharing the artifact cache
// and content-addressed dump files must not corrupt each other.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"

#include "../knob_env_guard.hpp"

namespace eth {
namespace {

/// Pin the sweep worker count for one test; drops the override (back
/// to the environment) afterwards.
class ScopedSweepWorkers {
public:
  explicit ScopedSweepWorkers(int workers) { set_sweep_worker_override(workers); }
  ~ScopedSweepWorkers() { set_sweep_worker_override(0); }
  ScopedSweepWorkers(const ScopedSweepWorkers&) = delete;
  ScopedSweepWorkers& operator=(const ScopedSweepWorkers&) = delete;
};

class CacheStateGuard {
public:
  CacheStateGuard() : was_enabled_(global_artifact_cache().enabled()) {}
  ~CacheStateGuard() {
    global_artifact_cache().set_enabled(was_enabled_);
    global_artifact_cache().clear();
  }

private:
  bool was_enabled_;
};

class TraceStateGuard {
public:
  explicit TraceStateGuard(bool enable) : was_enabled_(trace::enabled()) {
    trace::reset();
    trace::set_enabled(enable);
  }
  ~TraceStateGuard() {
    trace::set_enabled(was_enabled_);
    trace::reset();
  }

private:
  bool was_enabled_;
};

/// Faulted HACC mini-sweep: intercore coupling with bit-flip faults and
/// retries, 2 ranks x 2 timesteps x 4 points. Fault outcomes are a
/// pure function of the per-rank fault seed, so the dropped/retried
/// counts are deterministic — and must stay so under concurrency.
std::vector<SweepPoint> hacc_faulted_sweep() {
  ExperimentSpec spec;
  spec.name = "sweep-sched-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2000;
  spec.hacc.num_halos = 4;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 1;
  spec.viz.sampling_ratio = 0.5;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.fault.seed = 11;
  spec.fault.p_bit_flip = 0.4;
  spec.transfer_retry.max_attempts = 4;

  std::vector<SweepPoint> points;
  for (const Index particles : {1200, 1600, 2000, 2400}) {
    SweepPoint point{"p" + std::to_string(particles), spec};
    point.spec.hacc.num_particles = particles;
    point.spec.name = spec.name + "-" + point.label;
    points.push_back(std::move(point));
  }
  return points;
}

/// Faulted xRAGE mini-sweep: grid volumes through the same faulted
/// intercore path, varying sampling ratio.
std::vector<SweepPoint> xrage_faulted_sweep() {
  ExperimentSpec spec;
  spec.name = "sweep-sched-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {16, 12, 10};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.fault.seed = 7;
  spec.fault.p_truncate = 0.3;
  spec.transfer_retry.max_attempts = 4;

  std::vector<SweepPoint> points;
  int i = 0;
  for (const double ratio : {1.0, 0.75, 0.5}) {
    SweepPoint point{"r" + std::to_string(i++), spec};
    point.spec.viz.sampling_ratio = Real(ratio);
    point.spec.name = spec.name + "-" + point.label;
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<std::vector<std::uint8_t>> packed_images(
    const std::vector<SweepOutcome>& outcomes) {
  std::vector<std::vector<std::uint8_t>> packed;
  for (const SweepOutcome& o : outcomes) {
    EXPECT_TRUE(o.result.final_image.has_value()) << o.label;
    packed.push_back(o.result.final_image ? pack_image(*o.result.final_image)
                                          : std::vector<std::uint8_t>{});
  }
  return packed;
}

void expect_outcomes_bit_identical(const std::vector<SweepOutcome>& serial,
                                   const std::vector<SweepOutcome>& concurrent,
                                   const char* what) {
  ASSERT_EQ(serial.size(), concurrent.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].label, concurrent[i].label) << what << " point " << i;

  const auto serial_imgs = packed_images(serial);
  const auto concurrent_imgs = packed_images(concurrent);
  for (std::size_t i = 0; i < serial_imgs.size(); ++i) {
    ASSERT_EQ(serial_imgs[i].size(), concurrent_imgs[i].size())
        << what << " point " << i;
    EXPECT_EQ(std::memcmp(serial_imgs[i].data(), concurrent_imgs[i].data(),
                          serial_imgs[i].size()),
              0)
        << what << ": image differs at point " << i;
  }

  // The robustness table holds every count-based column (faults,
  // drops, data-plane bytes, cache traffic) — byte-identical, cache
  // columns included: off-sweep lookups are zero and warm-sweep hits
  // are a pure function of the spec.
  EXPECT_EQ(robustness_table("point", serial).to_csv(),
            robustness_table("point", concurrent).to_csv())
      << what;

  // metrics_table's time/power/energy derive from measured host CPU
  // and legitimately jitter run to run; its label column must match.
  const ResultTable ms = metrics_table("point", serial);
  const ResultTable mc = metrics_table("point", concurrent);
  ASSERT_EQ(ms.num_rows(), mc.num_rows()) << what;
  for (std::size_t row = 0; row < ms.num_rows(); ++row)
    EXPECT_EQ(ms.cell(row, 0), mc.cell(row, 0)) << what << " row=" << row;
}

void expect_serial_concurrent_equivalence(const std::vector<SweepPoint>& points) {
  CacheStateGuard cache_guard;
  ArtifactCache& cache = global_artifact_cache();
  const Harness harness;

  // Cache off: serial vs 4 workers.
  cache.set_enabled(false);
  std::vector<SweepOutcome> serial_off, concurrent_off;
  {
    ScopedSweepWorkers workers(1);
    serial_off = run_sweep(harness, points);
  }
  {
    ScopedSweepWorkers workers(4);
    concurrent_off = run_sweep(harness, points);
  }
  expect_outcomes_bit_identical(serial_off, concurrent_off, "cache off");

  // Cache warm: one warming pass, then serial vs 4 workers against the
  // fully resident cache. (Cold is excluded by design: the demand /
  // prefetch interleaving makes the cache columns timing-dependent.)
  cache.set_enabled(true);
  cache.clear();
  {
    ScopedSweepWorkers workers(1);
    (void)run_sweep(harness, points); // warming pass
  }
  std::vector<SweepOutcome> serial_warm, concurrent_warm;
  {
    ScopedSweepWorkers workers(1);
    serial_warm = run_sweep(harness, points);
  }
  {
    ScopedSweepWorkers workers(4);
    concurrent_warm = run_sweep(harness, points);
  }
  expect_outcomes_bit_identical(serial_warm, concurrent_warm, "cache warm");

  // Warm runs must actually exercise the cache, and the concurrent
  // sweep must agree with serial that it did.
  Index warm_hits = 0;
  for (const SweepOutcome& o : serial_warm) warm_hits += o.result.counters.cache_hits;
  EXPECT_GT(warm_hits, 0);

  // And the off/warm IMAGES agree with each other too (cache purity).
  const auto off_imgs = packed_images(serial_off);
  const auto warm_imgs = packed_images(serial_warm);
  for (std::size_t i = 0; i < off_imgs.size(); ++i)
    EXPECT_EQ(off_imgs[i], warm_imgs[i]) << "cache changed image at point " << i;
}

TEST(SweepEquivalence, HaccFaultedSweepSerialVsFourWorkers) {
  expect_serial_concurrent_equivalence(hacc_faulted_sweep());
}

TEST(SweepEquivalence, XrageFaultedSweepSerialVsFourWorkers) {
  expect_serial_concurrent_equivalence(xrage_faulted_sweep());
}

TEST(SweepEquivalence, BackToBackConcurrentSweepsReproduce) {
  CacheStateGuard cache_guard;
  global_artifact_cache().set_enabled(false);
  ScopedSweepWorkers workers(4);
  const std::vector<SweepPoint> points = hacc_faulted_sweep();
  const Harness harness;
  const auto first = run_sweep(harness, points);
  const auto second = run_sweep(harness, points);
  expect_outcomes_bit_identical(first, second, "back-to-back");
}

TEST(SweepScheduler, WorkerCountResolutionOrder) {
  // Override wins over the environment; the environment wins over the
  // serial default; garbage throws.
  const KnobEnvGuard env(knobs::Knob::sweep_workers);
  env.set(nullptr);
  EXPECT_EQ(sweep_worker_count(), 1);
  env.set("6");
  EXPECT_EQ(sweep_worker_count(), 6);
  for (const char* bad : {"not-a-number", "0", "400"}) { // 400: over the cap
    env.set(bad);
    EXPECT_THROW(sweep_worker_count(), Error) << bad;
  }
  env.set("2");
  set_sweep_worker_override(5);
  EXPECT_EQ(sweep_worker_count(), 5);
  set_sweep_worker_override(0);
  EXPECT_EQ(sweep_worker_count(), 2);
}

TEST(SweepScheduler, OnResultFiresSeriallyInSubmissionOrder) {
  CacheStateGuard cache_guard;
  global_artifact_cache().set_enabled(false);
  ScopedSweepWorkers workers(4);
  const std::vector<SweepPoint> points = hacc_faulted_sweep();
  const Harness harness;

  std::vector<std::string> seen;
  std::atomic<int> in_callback{0};
  const auto outcomes = run_sweep(harness, points, [&](const SweepOutcome& o) {
    EXPECT_EQ(in_callback.fetch_add(1), 0) << "on_result ran concurrently";
    seen.push_back(o.label);
    in_callback.fetch_sub(1);
  });

  ASSERT_EQ(outcomes.size(), points.size());
  ASSERT_EQ(seen.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(seen[i], points[i].label);
    EXPECT_EQ(outcomes[i].label, points[i].label);
  }
}

TEST(SweepScheduler, LowestIndexFailurePropagates) {
  ScopedSweepWorkers workers(4);
  std::vector<SweepPoint> points = hacc_faulted_sweep();
  points[1].spec.layout.ranks = 0;    // invalid: fails validate()
  points[3].spec.viz.image_width = 0; // invalid for a different reason

  const Harness harness;
  std::string serial_error;
  try {
    set_sweep_worker_override(1);
    run_sweep(harness, points);
    FAIL() << "serial sweep did not throw";
  } catch (const Error& e) {
    serial_error = e.what();
  }
  std::string concurrent_error;
  try {
    set_sweep_worker_override(4);
    run_sweep(harness, points);
    FAIL() << "concurrent sweep did not throw";
  } catch (const Error& e) {
    concurrent_error = e.what();
  }
  // Both must surface point 1's failure, not point 3's.
  EXPECT_EQ(concurrent_error, serial_error);
}

TEST(SweepScheduler, TraceHistogramMatchesSerialAtFourWorkers) {
  TraceStateGuard trace_guard(true);
  CacheStateGuard cache_guard;
  global_artifact_cache().set_enabled(false);
  const std::vector<SweepPoint> points = hacc_faulted_sweep();
  const Harness harness;

  using Histogram = std::map<std::pair<std::string, std::int32_t>, std::int64_t>;
  const auto histogram_for = [&](int sweep_workers) {
    ScopedSweepWorkers workers(sweep_workers);
    trace::reset();
    run_sweep(harness, points);
    Histogram histogram;
    for (const trace::TraceEvent& e : trace::snapshot())
      ++histogram[{e.name, e.track}];
    return histogram;
  };

  const Histogram serial = histogram_for(1);
  const Histogram concurrent = histogram_for(4);
  ASSERT_FALSE(serial.empty());

  // Sweep points must occupy DISTINCT namespaced rank tracks.
  bool saw_point1_track = false;
  for (const auto& [key, count] : serial)
    saw_point1_track |= key.second == trace::kSweepTrackStride; // point 1, rank 0
  EXPECT_TRUE(saw_point1_track);

  EXPECT_EQ(serial.size(), concurrent.size());
  for (const auto& [key, count] : serial) {
    const auto it = concurrent.find(key);
    ASSERT_NE(it, concurrent.end())
        << "(" << key.first << ", track " << key.second
        << ") present serial, absent concurrent";
    EXPECT_EQ(count, it->second)
        << "(" << key.first << ", track " << key.second << ") count differs";
  }

  // Trace summary table: same rows and counts either way (total_ms
  // jitters, so compare the deterministic columns).
  const ScopedSweepWorkers workers(1);
  trace::reset();
  run_sweep(harness, points);
  const ResultTable a = trace_summary_table();
  set_sweep_worker_override(4);
  trace::reset();
  run_sweep(harness, points);
  const ResultTable b = trace_summary_table();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t row = 0; row < a.num_rows(); ++row) {
    EXPECT_EQ(a.cell(row, 0), b.cell(row, 0)); // span name
    EXPECT_EQ(a.cell(row, 1), b.cell(row, 1)); // kind
    EXPECT_EQ(a.cell(row, 2), b.cell(row, 2)); // count
  }
}

// Satellite regression (ISSUE 7): Harness::run used to join read-ahead
// with global_pool().wait_idle(), which waits on EVERY task in the
// process — including another run's (or any unrelated) work. With a
// long-running unrelated task parked on the shared pool, the old code
// hangs; the per-run prefetch latch returns as soon as the run's own
// read-aheads finish.
TEST(SweepScheduler, RunJoinsOnlyItsOwnPrefetches) {
  CacheStateGuard cache_guard;
  ArtifactCache& cache = global_artifact_cache();
  cache.set_enabled(true);
  cache.clear();

  ThreadPool pool(2);
  set_global_pool(&pool);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release_blocker = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return release_blocker; });
  });

  ExperimentSpec spec = hacc_faulted_sweep()[0].spec;
  spec.fault = {};
  spec.timesteps = 3; // leaves room for t+1 read-ahead prefetches
  spec.use_disk_proxy = true;
  spec.proxy_dir =
      (std::filesystem::temp_directory_path() / "eth_sweep_sched_latch").string();
  std::filesystem::remove_all(spec.proxy_dir);

  const Harness harness;
  const RunResult result = harness.run(spec); // must not hang
  EXPECT_TRUE(result.final_image.has_value());

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_blocker = true;
  }
  gate_cv.notify_all();
  pool.wait_idle();
  set_global_pool(nullptr);
  std::filesystem::remove_all(spec.proxy_dir);
}

// Two concurrent runs of the SAME spec share content-addressed dump
// files and artifact-cache entries. Both must produce the serial
// baseline's image bit for bit; the cache's in-flight dedup may split
// hits/misses between them nondeterministically, but the deterministic
// outputs may not move. With memoization off the runs still share the
// dump files: the dump registry must keep the second run from
// rewriting (truncating) a file the first one is reading.
TEST(SweepScheduler, ConcurrentRunsOfSameSpecShareDumpsSafely) {
  CacheStateGuard cache_guard;
  ArtifactCache& cache = global_artifact_cache();
  for (const bool memoize : {true, false}) {
    SCOPED_TRACE(memoize ? "cache on" : "cache off");
    cache.set_enabled(memoize);
    cache.clear();

    ExperimentSpec spec = hacc_faulted_sweep()[0].spec;
    spec.use_disk_proxy = true;
    spec.proxy_dir =
        (std::filesystem::temp_directory_path() / "eth_sweep_sched_shared").string();
    std::filesystem::remove_all(spec.proxy_dir);

    const Harness harness;
    const RunResult baseline = harness.run(spec);
    ASSERT_TRUE(baseline.final_image.has_value());
    const auto baseline_img = pack_image(*baseline.final_image);

    cache.clear(); // both concurrent runs start cold and race on the files
    std::filesystem::remove_all(spec.proxy_dir);

    std::vector<RunResult> results(2);
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i)
      threads.emplace_back([&, i] {
        // Distinct track bases, as the sweep scheduler would assign.
        RunContext ctx;
        ctx.trace_track_base = i * trace::kSweepTrackStride;
        results[static_cast<std::size_t>(i)] = harness.run(spec, ctx);
      });
    for (std::thread& t : threads) t.join();

    for (const RunResult& result : results) {
      ASSERT_TRUE(result.final_image.has_value());
      const auto img = pack_image(*result.final_image);
      ASSERT_EQ(img.size(), baseline_img.size());
      EXPECT_EQ(std::memcmp(img.data(), baseline_img.data(), img.size()), 0);
      // Per-run attribution: each run owns its own transfer traffic.
      EXPECT_EQ(result.robustness.frames_sent, baseline.robustness.frames_sent);
      EXPECT_EQ(result.timesteps_dropped, baseline.timesteps_dropped);
    }

    std::filesystem::remove_all(spec.proxy_dir);
  }
}

} // namespace
} // namespace eth
