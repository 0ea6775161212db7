// Ablation: SphereBVH construction choices (DESIGN.md §4.2).
//
// Compares binned-SAH vs median splits and sweeps leaf sizes, for both
// build cost and traversal cost on HACC-like clustered particles —
// the two sides of the paper's "additional setup phase" trade-off.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "render/ray/bvh.hpp"
#include "sim/hacc_generator.hpp"

namespace {

using namespace eth;

std::vector<Vec3f> clustered_particles(Index n) {
  sim::HaccParams params;
  params.num_particles = n;
  params.num_halos = 32;
  const auto ps = sim::generate_hacc(params);
  return {ps->positions().begin(), ps->positions().end()};
}

void BM_BvhBuild(benchmark::State& state) {
  const auto split = static_cast<SphereBVH::SplitMethod>(state.range(0));
  const Index n = state.range(1);
  const auto centers = clustered_particles(n);
  for (auto _ : state) {
    SphereBVH bvh(centers, 0.2f, split, 4);
    benchmark::DoNotOptimize(bvh.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BvhBuild)
    ->ArgsProduct({{int(SphereBVH::SplitMethod::kBinnedSAH),
                    int(SphereBVH::SplitMethod::kMedian)},
                   {10000, 100000}})
    ->Unit(benchmark::kMillisecond);

void BM_BvhTraverse(benchmark::State& state) {
  const auto split = static_cast<SphereBVH::SplitMethod>(state.range(0));
  const int leaf = static_cast<int>(state.range(1));
  const auto centers = clustered_particles(100000);
  const SphereBVH bvh(centers, 0.2f, split, leaf);
  const Camera camera = Camera::framing(bvh.bounds(), {-0.5f, -0.4f, -0.75f});
  const CameraFrame frame = camera.frame(128, 128);
  cluster::PerfCounters counters;
  for (auto _ : state) {
    Index hits = 0;
    for (Index py = 0; py < 128; py += 2)
      for (Index px = 0; px < 128; px += 2) {
        const SphereHit hit =
            bvh.intersect(frame.ray(px, py), 0.01f, 1e6f, counters);
        hits += hit.valid();
      }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
  state.counters["nodes/ray"] =
      double(counters.bvh_nodes_visited) / double(state.iterations() * 64 * 64);
}
BENCHMARK(BM_BvhTraverse)
    ->ArgsProduct({{int(SphereBVH::SplitMethod::kBinnedSAH),
                    int(SphereBVH::SplitMethod::kMedian)},
                   {1, 4, 16, 64}})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
