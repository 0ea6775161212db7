#pragma once
// Registry-driven counter checks for the equivalence suites (DESIGN.md
// §17): "all deterministic metrics" means every ETH_PERF_METRICS entry
// of the deterministic class, enumerated from the registry instead of
// listed by hand, so a new metric is covered the day it is declared.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/counters.hpp"

namespace eth {

/// The registry entry named `name`, or nullopt (e.g. a non-metric
/// table column such as frames_sent).
inline std::optional<MetricInfo> find_metric(std::string_view name) {
  const cluster::PerfCounters any;
  std::optional<MetricInfo> found;
  for_each_metric(
      [&](const MetricInfo& m, const auto&) {
        if (name == m.name) found = m;
      },
      any);
  return found;
}

/// Every deterministic metric of `a` and `b` matches bit for bit
/// (doubles by representation), except the named `excluded` metrics —
/// each exclusion must name a declared metric.
inline void expect_deterministic_metrics_identical(
    const cluster::PerfCounters& a, const cluster::PerfCounters& b, const std::string& what,
    std::initializer_list<std::string_view> excluded = {}) {
  for (std::string_view name : excluded)
    EXPECT_TRUE(find_metric(name).has_value()) << "excluded metric '" << name << "' is not declared";
  for_each_metric(
      [&](const MetricInfo& m, const auto& x, const auto& y) {
        if (m.determinism != Determinism::deterministic) return;
        for (std::string_view name : excluded)
          if (name == m.name) return;
        EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
            << what << ": " << m.name << " " << x << " != " << y;
      },
      a, b);
}

} // namespace eth
