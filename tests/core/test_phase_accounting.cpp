// Phase-accounting invariant (DESIGN.md §13): every rank's per-phase
// cpu_seconds — including pool chunks borrowed by parallel_for and the
// CPU of pipeline stage workers — must fit inside that rank's
// whole-body CPU total, for every coupling and pipeline depth. A stage
// refactor that double-charged a phase (or dropped a slot's
// measurements on the floor) breaks this immediately.
//
// Cache OFF on purpose: with the artifact cache on, a hit replays the
// recorded first-load phase cost by design (DESIGN.md §10), charging
// this rank CPU that was physically spent elsewhere — the one sanctioned
// violation of the containment invariant.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {
namespace {

class CacheOffGuard {
public:
  CacheOffGuard() : was_enabled_(global_artifact_cache().enabled()) {
    global_artifact_cache().set_enabled(false);
  }
  ~CacheOffGuard() { global_artifact_cache().set_enabled(was_enabled_); }

private:
  bool was_enabled_;
};

ExperimentSpec small_spec(const std::string& coupling, int depth) {
  ExperimentSpec spec;
  spec.name = "phase-acct-" + coupling + "-d" + std::to_string(depth);
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 1500;
  spec.hacc.num_halos = 3;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.viz.sampling_ratio = 0.5;
  spec.timesteps = 4;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.layout.coupling = cluster::coupling_from_string(coupling);
  if (spec.layout.coupling == cluster::Coupling::kInternode)
    spec.layout.viz_nodes = 1;
  spec.pipeline_depth = depth;
  return spec;
}

const std::set<std::string>& known_phases() {
  static const std::set<std::string> names = {
      "generate", "transfer", "sample", "extract",
      "build",    "render",   "composite", "write"};
  return names;
}

TEST(PhaseAccounting, PhaseCpuIsContainedInRankTotalAcrossCouplingsAndDepths) {
  const CacheOffGuard cache_off;
  struct Case {
    const char* coupling;
    int depth;
    Index particles = 1500;
  };
  // The 60k-particle cases synthesize their in-memory HACC shares on the
  // pool (the generator cuts them into many chunks); their lent CPU is
  // charged to "generate" and must still nest inside the rank total.
  for (const Case& c : {Case{"tight", 1}, Case{"intercore", 1},
                        Case{"internode", 1}, Case{"async", 1}, Case{"async", 2},
                        Case{"async", 3}, Case{"intercore", 1, 60'000},
                        Case{"async", 2, 60'000}}) {
    SCOPED_TRACE(std::string(c.coupling) + " depth " + std::to_string(c.depth) +
                 " particles " + std::to_string(c.particles));
    ExperimentSpec spec = small_spec(c.coupling, c.depth);
    spec.hacc.num_particles = c.particles;
    const Harness harness;
    const RunResult result = harness.run(spec);

    ASSERT_EQ(result.rank_phase_cpu.size(),
              static_cast<std::size_t>(spec.layout.ranks));
    ASSERT_EQ(result.rank_cpu_total.size(),
              static_cast<std::size_t>(spec.layout.ranks));

    double across_ranks = 0;
    for (std::size_t r = 0; r < result.rank_phase_cpu.size(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      double rank_sum = 0;
      for (const auto& [name, cpu] : result.rank_phase_cpu[r]) {
        EXPECT_TRUE(known_phases().count(name)) << "unknown phase " << name;
        EXPECT_GE(cpu, 0.0) << name;
        rank_sum += cpu;
      }
      // Some work happened and every phase interval nests inside the
      // rank thread's (or its stage workers') whole-body CPU interval,
      // so the sum can never exceed the rank total. Small epsilon for
      // clock granularity only.
      EXPECT_GT(rank_sum, 0.0);
      EXPECT_LE(rank_sum, result.rank_cpu_total[r] + 1e-6);
      across_ranks += rank_sum;
    }
    // The per-rank breakdown and the aggregate are produced by the same
    // summation order, so the totals agree exactly, not approximately.
    EXPECT_DOUBLE_EQ(across_ranks, result.measured_cpu_seconds);
  }
}

// The breakdown itself must be complete: the phases that define the
// coupling's data path have to be present with real cost on every rank.
TEST(PhaseAccounting, ExpectedPhasesArePresentPerCoupling) {
  const CacheOffGuard cache_off;
  for (const char* coupling : {"tight", "intercore", "async"}) {
    SCOPED_TRACE(coupling);
    const ExperimentSpec spec = small_spec(coupling, 2);
    const Harness harness;
    const RunResult result = harness.run(spec);
    const bool tight = std::string(coupling) == "tight";
    for (std::size_t r = 0; r < result.rank_phase_cpu.size(); ++r) {
      const auto& phases = result.rank_phase_cpu[r];
      EXPECT_TRUE(phases.count("generate"));
      EXPECT_TRUE(phases.count("render"));
      EXPECT_EQ(phases.count("transfer"), tight ? 0u : 1u);
      // Compositing happens at the root only.
      EXPECT_EQ(phases.count("composite"), r == 0 ? 1u : 0u);
    }
  }
}

// Measured-CPU check (a loose ratio, not an exact figure): in-memory
// HACC shares are synthesized on the pool, and the share factory times
// them with a KernelTimer, so the CPU the pool lends is still charged
// to "generate" (DESIGN.md §4.1). A thread-only timer would see little
// more than the schedule pass at pool width 4.
TEST(PhaseAccounting, InMemoryHaccGenerateChargesLentPoolCpu) {
  const CacheOffGuard cache_off;
  ExperimentSpec spec = small_spec("intercore", 1);
  spec.hacc.num_particles = 200'000;
  spec.timesteps = 2;
  const auto generate_cpu = [&](unsigned threads) {
    ThreadPool pool(threads);
    set_global_pool(&pool);
    const RunResult result = Harness().run(spec);
    set_global_pool(nullptr);
    double sum = 0;
    for (const auto& phases : result.rank_phase_cpu) sum += phases.at("generate");
    return sum;
  };
  const double at_one = generate_cpu(1);
  const double at_four = generate_cpu(4);
  EXPECT_GT(at_one, 0.0);
  EXPECT_GE(at_four, 0.5 * at_one) << "pool 1: " << at_one << " s, pool 4: " << at_four << " s";
}

} // namespace
} // namespace eth
