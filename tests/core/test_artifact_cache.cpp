#include "core/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/knobs.hpp"

#include "../knob_env_guard.hpp"

namespace eth {
namespace {

/// Factory producing an int artifact of a declared byte size.
ArtifactCache::Factory int_factory(int value, std::size_t bytes,
                                   std::atomic<int>* runs = nullptr) {
  return [value, bytes, runs]() -> CacheArtifact {
    if (runs != nullptr) runs->fetch_add(1);
    return CacheArtifact{std::make_shared<int>(value), bytes, {},
                         fingerprint_chain(std::uint64_t(value), "int")};
  };
}

TEST(ArtifactCache, MissThenHitReturnsSameValue) {
  ArtifactCache cache(1 << 20);
  std::atomic<int> runs{0};
  const ArtifactKey key{1, "op"};

  const CacheLookup first = cache.get_or_compute(key, int_factory(7, 100, &runs));
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(*first.as<int>(), 7);

  const CacheLookup second = cache.get_or_compute(key, int_factory(8, 100, &runs));
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(*second.as<int>(), 7);       // cached value, factory not rerun
  EXPECT_EQ(second.value, first.value);  // same shared object
  EXPECT_EQ(runs.load(), 1);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.bytes_resident, 100u);
}

TEST(ArtifactCache, RecordedCountersReplayOnHit) {
  ArtifactCache cache(1 << 20);
  const ArtifactKey key{2, "op"};
  const auto factory = [&]() -> CacheArtifact {
    cluster::PerfCounters recorded;
    recorded.elements_processed = 42;
    recorded.phases.add("build", 1.5);
    return CacheArtifact{std::make_shared<int>(0), 10, std::move(recorded), 99};
  };
  (void)cache.get_or_compute(key, factory);
  const CacheLookup hit = cache.get_or_compute(key, factory);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.recorded.elements_processed, 42);
  EXPECT_DOUBLE_EQ(hit.recorded.phases.get("build"), 1.5);
  EXPECT_EQ(hit.content_fp, 99u);
}

TEST(ArtifactCache, LruEvictionRespectsByteBudget) {
  ArtifactCache cache(300); // room for three 100-byte artifacts
  for (int i = 0; i < 3; ++i)
    (void)cache.get_or_compute({std::uint64_t(i), "op"}, int_factory(i, 100));
  EXPECT_EQ(cache.stats().bytes_resident, 300u);
  EXPECT_EQ(cache.stats().evictions, 0);

  // A fourth insertion must evict the least recently used (key 0).
  (void)cache.get_or_compute({3, "op"}, int_factory(3, 100));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes_resident, 300u);
  EXPECT_LE(stats.bytes_resident, cache.budget_bytes());
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_FALSE(cache.contains({0, "op"}));
  EXPECT_TRUE(cache.contains({1, "op"}));
  EXPECT_TRUE(cache.contains({2, "op"}));
  EXPECT_TRUE(cache.contains({3, "op"}));
}

TEST(ArtifactCache, TouchOnHitProtectsRecentlyUsed) {
  ArtifactCache cache(300);
  for (int i = 0; i < 3; ++i)
    (void)cache.get_or_compute({std::uint64_t(i), "op"}, int_factory(i, 100));
  // Touch key 0 so key 1 becomes the LRU victim.
  (void)cache.get_or_compute({0, "op"}, int_factory(0, 100));
  (void)cache.get_or_compute({3, "op"}, int_factory(3, 100));
  EXPECT_TRUE(cache.contains({0, "op"}));
  EXPECT_FALSE(cache.contains({1, "op"}));
}

TEST(ArtifactCache, OversizedArtifactEvictsEverythingIncludingItself) {
  ArtifactCache cache(100);
  (void)cache.get_or_compute({1, "op"}, int_factory(1, 50));
  const CacheLookup big = cache.get_or_compute({2, "op"}, int_factory(2, 1000));
  EXPECT_EQ(*big.as<int>(), 2); // caller still gets the value
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes_resident, cache.budget_bytes());
  EXPECT_FALSE(cache.contains({2, "op"}));
}

TEST(ArtifactCache, ShrinkingBudgetEvictsImmediately) {
  ArtifactCache cache(1000);
  for (int i = 0; i < 5; ++i)
    (void)cache.get_or_compute({std::uint64_t(i), "op"}, int_factory(i, 100));
  cache.set_budget_bytes(250);
  EXPECT_LE(cache.stats().bytes_resident, 250u);
  EXPECT_TRUE(cache.contains({4, "op"})); // most recent survives
}

TEST(ArtifactCache, DisabledIsPurePassThrough) {
  ArtifactCache cache(1 << 20);
  cache.set_enabled(false);
  std::atomic<int> runs{0};
  const ArtifactKey key{1, "op"};
  (void)cache.get_or_compute(key, int_factory(1, 100, &runs));
  (void)cache.get_or_compute(key, int_factory(2, 100, &runs));
  cache.prefetch(key, int_factory(3, 100, &runs));
  EXPECT_EQ(runs.load(), 2); // every demand call computes; prefetch no-ops
  EXPECT_FALSE(cache.contains(key));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.insertions, 0);
}

TEST(ArtifactCache, PrefetchWarmsAndFirstDemandHitCountsPrefetchHit) {
  ArtifactCache cache(1 << 20);
  const ArtifactKey key{5, "op"};
  cache.prefetch(key, int_factory(5, 100));
  EXPECT_TRUE(cache.contains(key));
  // Prefetch itself counts neither hit nor miss.
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);

  const CacheLookup first = cache.get_or_compute(key, int_factory(-1, 100));
  EXPECT_TRUE(first.hit);
  EXPECT_EQ(*first.as<int>(), 5);
  EXPECT_EQ(cache.stats().prefetch_hits, 1);

  // Later hits on the same entry are plain hits.
  (void)cache.get_or_compute(key, int_factory(-1, 100));
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().prefetch_hits, 1);
}

TEST(ArtifactCache, PrefetchOfResidentKeyIsANoOp) {
  ArtifactCache cache(1 << 20);
  std::atomic<int> runs{0};
  const ArtifactKey key{6, "op"};
  (void)cache.get_or_compute(key, int_factory(6, 100, &runs));
  cache.prefetch(key, int_factory(7, 100, &runs));
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(*cache.get_or_compute(key, int_factory(-1, 100)).as<int>(), 6);
}

TEST(ArtifactCache, PrefetchSwallowsFactoryExceptions) {
  ArtifactCache cache(1 << 20);
  const ArtifactKey key{7, "op"};
  cache.prefetch(key, []() -> CacheArtifact { throw std::runtime_error("io"); });
  EXPECT_FALSE(cache.contains(key));
  // The key stays computable on demand.
  EXPECT_EQ(*cache.get_or_compute(key, int_factory(9, 10)).as<int>(), 9);
}

TEST(ArtifactCache, FactoryExceptionWithdrawsPlaceholder) {
  ArtifactCache cache(1 << 20);
  const ArtifactKey key{8, "op"};
  EXPECT_THROW(cache.get_or_compute(
                   key, []() -> CacheArtifact { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(*cache.get_or_compute(key, int_factory(4, 10)).as<int>(), 4);
}

TEST(ArtifactCache, ClearDropsEntriesAndDumpRegistry) {
  ArtifactCache cache(1 << 20);
  (void)cache.get_or_compute({1, "op"}, int_factory(1, 100));
  cache.register_dump("/tmp/x.eth", 123);
  cache.clear();
  EXPECT_FALSE(cache.contains({1, "op"}));
  EXPECT_EQ(cache.stats().bytes_resident, 0u);
  EXPECT_FALSE(cache.lookup_dump("/tmp/x.eth").has_value());
}

// Satellite regression (ISSUE 7): clear() must never sweep an
// in-flight placeholder. A computation racing with clear() finds its
// placeholder intact, publishes into it, and the entry is resident
// afterwards; waiters blocked on the placeholder get the value. (An
// earlier publish() carried a dead "placeholder swept; reinsert"
// recovery branch for this case — it is now a hard invariant.)
TEST(ArtifactCache, ClearDuringInFlightComputationStillPublishes) {
  ArtifactCache cache(1 << 20);
  (void)cache.get_or_compute({1, "resident"}, int_factory(1, 100));

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool factory_entered = false;
  bool release_factory = false;
  const ArtifactKey key{77, "slow"};

  std::thread computer([&] {
    (void)cache.get_or_compute(key, [&]() -> CacheArtifact {
      {
        std::unique_lock<std::mutex> lock(gate_mutex);
        factory_entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release_factory; });
      }
      return CacheArtifact{std::make_shared<int>(77), 100, {}, 77};
    });
  });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return factory_entered; });
  }

  // A waiter arrives for the in-flight key while the factory runs.
  std::atomic<int> waiter_value{0};
  std::thread waiter([&] {
    const CacheLookup lookup = cache.get_or_compute(key, int_factory(-1, 100));
    waiter_value.store(*lookup.as<int>());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  cache.clear(); // sweeps the ready entry, must spare the placeholder
  EXPECT_FALSE(cache.contains({1, "resident"}));

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_factory = true;
  }
  gate_cv.notify_all();
  computer.join();
  waiter.join();

  EXPECT_TRUE(cache.contains(key));
  EXPECT_EQ(waiter_value.load(), 77);
  EXPECT_EQ(cache.stats().bytes_resident, 100u);
}

TEST(ArtifactCache, DumpRegistryRoundTrip) {
  ArtifactCache cache(1 << 20);
  EXPECT_FALSE(cache.lookup_dump("p").has_value());
  cache.register_dump("p", 42);
  ASSERT_TRUE(cache.lookup_dump("p").has_value());
  EXPECT_EQ(*cache.lookup_dump("p"), 42u);
}

TEST(ArtifactCache, ConcurrentSameKeyComputesExactlyOnce) {
  ArtifactCache cache(1 << 20);
  std::atomic<int> runs{0};
  const ArtifactKey key{11, "op"};
  const auto slow_factory = [&]() -> CacheArtifact {
    runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return CacheArtifact{std::make_shared<int>(11), 100, {}, 11};
  };

  std::vector<std::thread> threads;
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&]() {
      const CacheLookup lookup = cache.get_or_compute(key, slow_factory);
      sum.fetch_add(*lookup.as<int>());
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(runs.load(), 1); // in-flight dedup: one factory run
  EXPECT_EQ(sum.load(), 8 * 11);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 7);
}

TEST(ArtifactCache, ConcurrentMixedStress) {
  // Many threads hammering overlapping keys with prefetch, demand and
  // eviction pressure — primarily a TSan target.
  ArtifactCache cache(1500);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 50; ++i) {
        const ArtifactKey key{std::uint64_t(i % 20), "stress"};
        if ((t + i) % 3 == 0)
          cache.prefetch(key, int_factory(i % 20, 100));
        else
          EXPECT_EQ(*cache.get_or_compute(key, int_factory(i % 20, 100)).as<int>(),
                    i % 20);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.stats().bytes_resident, cache.budget_bytes());
}

TEST(GlobalArtifactCache, DefaultsOnWithDocumentedBudget) {
  ArtifactCache& cache = global_artifact_cache();
  // The suite runs without ETH_CACHE_BYTES set, so the default applies.
  if (std::getenv("ETH_CACHE_BYTES") == nullptr) {
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.budget_bytes(), Bytes(512) << 20);
  }
  EXPECT_EQ(&cache, &global_artifact_cache()); // one process-wide object
}

TEST(ArtifactCache, CacheBudgetParseRejectsPartialNumbers) {
  const KnobEnvGuard env(knobs::Knob::cache_bytes);
  const auto budget = [] { return Bytes(knobs::value(knobs::Knob::cache_bytes)); };
  const Bytes fallback = Bytes(512) << 20;
  // strtoull would read "512MiB" as 512 bytes; the whole value must parse.
  env.set("512MiB");
  EXPECT_THROW(budget(), Error);
  env.set("");
  EXPECT_EQ(budget(), fallback);
  env.set(nullptr);
  EXPECT_EQ(budget(), fallback);
  env.set("0"); // memoization off
  EXPECT_EQ(budget(), 0u);
  env.set("1048576");
  EXPECT_EQ(budget(), Bytes(1) << 20);
}

} // namespace
} // namespace eth
