#include "cluster/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>

namespace eth::cluster {
namespace {

/// Give every declared metric a distinct value: `base + k` for the k-th
/// metric in registry order.
void fill_distinct(PerfCounters& c, int base) {
  int k = 0;
  for_each_metric([&](const MetricInfo&, auto& v) { v = std::decay_t<decltype(v)>(base + k++); }, c);
}

TEST(PerfCounters, MergeAddsWorkAndMaxesParallelism) {
  // a holds small values, b larger ones, so a sum and a max differ from
  // both operands for every metric.
  PerfCounters a, b;
  fill_distinct(a, 10);
  fill_distinct(b, 1000);
  a.phases.add("render", 1.5);
  b.phases.add("render", 0.5);
  b.phases.add("build", 2.0);

  const PerfCounters before = a;
  a.merge(b);
  for_each_metric(
      [&](const MetricInfo& m, const auto& merged, const auto& x, const auto& y) {
        const auto want = m.merge == MetricMerge::sum ? x + y : std::max(x, y);
        EXPECT_EQ(merged, want) << m.name;
      },
      a, before, b);
  EXPECT_EQ(a.max_parallel_items, b.max_parallel_items); // a gauge: max
  EXPECT_EQ(a.rays_cast, before.rays_cast + b.rays_cast); // work: sum
  EXPECT_DOUBLE_EQ(a.phases.get("render"), 2.0);
  EXPECT_DOUBLE_EQ(a.phases.get("build"), 2.0);
}

TEST(PerfCounters, MergeOfEmptyIsIdentity) {
  PerfCounters a;
  a.flop_estimate = 42;
  a.primitives_emitted = 7;
  PerfCounters b;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.flop_estimate, 42);
  EXPECT_EQ(a.primitives_emitted, 7);
}

TEST(PerfCounters, SummaryMentionsEveryCounter) {
  PerfCounters c;
  fill_distinct(c, 101);
  std::istringstream lines(c.summary());
  std::string line;
  for_each_metric(
      [&](const MetricInfo& m, const auto& v) {
        const std::string prefix = std::string(m.name) + ": ";
        ASSERT_TRUE(std::getline(lines, line)) << m.name;
        EXPECT_EQ(line.rfind(prefix, 0), 0u) << m.name << " vs " << line;
        // Counts print exactly; byte and second values print formatted.
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, Index>) {
          EXPECT_EQ(line, prefix + std::to_string(v));
        }
      },
      c);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("cpu_seconds_total: ", 0), 0u);
}

TEST(PerfCounters, FoldCombinesRunAttributedMetricsOnly) {
  RunCounterSink sink;
  {
    const RunSinkScope scope(&sink);
    emit_metric(&RunCounterSink::bytes_on_wire, 40);
    emit_metric(&RunCounterSink::cache_misses, 2);
    emit_metric(&RunCounterSink::cache_bytes, 64);
  }
  PerfCounters c;
  c.bytes_on_wire = 2;
  c.cache_bytes = 100;
  c.rays_cast = 5;
  c.fold(sink);
  EXPECT_EQ(c.bytes_on_wire, 42u);  // sum
  EXPECT_EQ(c.cache_misses, 2);
  EXPECT_EQ(c.cache_bytes, 100u);   // max
  EXPECT_EQ(c.rays_cast, 5);        // rank-scoped: untouched
}

} // namespace
} // namespace eth::cluster
