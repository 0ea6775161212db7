#pragma once
// The metric registry and per-run attribution of counted work
// (DESIGN.md §17).
//
// ETH_PERF_METRICS is the ONE declaration of every cluster::PerfCounters
// metric. Each entry X(name, type, merge, determinism, scope) gives:
//
//   merge        sum | max   how two tallies combine (rank merges,
//                            CounterShards folds, the run sink)
//   determinism  deterministic  a pure function of the spec: bit-
//                                compared across threads, SIMD ISA,
//                                pipeline depth and sweep workers
//                cache          depends only on artifact-cache state
//                                (the ONLY class allowed to differ
//                                between cache-on and cache-off runs)
//                measured       host time; reported, never bit-compared
//   scope        rank   accumulated by kernels into the rank's counters
//                run    emitted from anywhere on a run's behalf and teed
//                       through the calling thread's RunCounterSink
//
// PerfCounters' fields, merge and summary, the RunCounterSink cells,
// the sink fold into RunResult::counters, the robustness-table counter
// columns, the run's trace counters and the equivalence suites are all
// derived from this list, so a new metric costs one entry here plus
// its increment sites. Entry order is the table/summary column order.
//
// Attribution: a run owns one RunCounterSink; every thread working on
// its behalf — minimpi rank threads, stage workers, and pool workers
// executing chunks those threads issued — installs it via RunSinkScope
// (the thread pool propagates it into worker chunks). emit_metric()
// tees a count into the calling thread's sink, so concurrent runs each
// see exactly their own traffic. Scoped sinks are also how counts are
// captured (a local sink) or muted (RunSinkScope(nullptr)).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

// clang-format off
#define ETH_PERF_METRICS(X)                                                 \
  /* Work counters (kernel-reported estimates): particles / cells / */      \
  /* pixels iterated, triangles or impostors generated, rays, raymarch */   \
  /* iterations, BVH nodes visited, floating-point operations. */           \
  X(elements_processed,   Index,  sum, deterministic, rank)                 \
  X(primitives_emitted,   Index,  sum, deterministic, rank)                 \
  X(rays_cast,            Index,  sum, deterministic, rank)                 \
  X(ray_steps,            Index,  sum, deterministic, rank)                 \
  X(bvh_nodes_visited,    Index,  sum, deterministic, rank)                 \
  X(flop_estimate,        double, sum, deterministic, rank)                 \
  /* Data movement. */                                                      \
  X(bytes_read,           Bytes,  sum, deterministic, rank)                 \
  X(bytes_written,        Bytes,  sum, deterministic, rank)                 \
  X(bytes_communicated,   Bytes,  sum, deterministic, rank)                 \
  /* Data-plane ownership (common/buffer.hpp): payload bytes memcpy'd */    \
  /* in userspace versus passed across a layer boundary by reference. */    \
  X(bytes_copied,         Bytes,  sum, deterministic, run)                  \
  X(bytes_borrowed,       Bytes,  sum, deterministic, run)                  \
  /* Wire codec (DESIGN.md §15): framed bytes put on the wire and the */    \
  /* thread CPU spent in codec (de)compression. */                          \
  X(bytes_on_wire,        Bytes,  sum, deterministic, run)                  \
  X(compress_cpu_seconds, double, sum, measured,      run)                  \
  /* Memoization (core/artifact_cache.hpp): demand hits/misses, the */      \
  /* cache's resident footprint at run end, prefetch-warmed hits. */        \
  X(cache_hits,           Index,  sum, cache,         run)                  \
  X(cache_misses,         Index,  sum, cache,         run)                  \
  X(cache_bytes,          Bytes,  max, cache,         run)                  \
  X(prefetch_hits,        Index,  sum, cache,         run)                  \
  /* Largest data-parallel loop extent: the machine model turns it into */  \
  /* node utilization (Finding 4: small sampled problems cannot keep all */ \
  /* parallel resources busy). */                                           \
  X(max_parallel_items,   Index,  max, deterministic, rank)
// clang-format on

namespace eth {

enum class MetricMerge { sum, max };
enum class Determinism { deterministic, cache, measured };

struct MetricInfo {
  const char* name;
  MetricMerge merge;
  Determinism determinism;
};

// Expansion helpers for ETH_PERF_METRICS entries.
#define ETH_METRIC_IF_rank(...)
#define ETH_METRIC_IF_run(...) __VA_ARGS__
#define ETH_METRIC_VISIT(name, type, merge, det, scope)                      \
  f(MetricInfo{#name, MetricMerge::merge, Determinism::det}, objs.name...);
#define ETH_METRIC_VISIT_RUN(name, type, merge, det, scope)                  \
  ETH_METRIC_IF_##scope(ETH_METRIC_VISIT(name, type, merge, det, scope))
#define ETH_SINK_CELL(name, type, merge, det, scope)                         \
  ETH_METRIC_IF_##scope(MetricCell<type, MetricMerge::merge> name;)

/// Combine two tallies of one metric by its merge rule.
template <class T>
constexpr T merge_metric(MetricMerge rule, T a, T b) {
  return rule == MetricMerge::sum ? T(a + b) : std::max(a, b);
}

/// Call f(info, objs.<name>...) for every declared metric in
/// declaration order. Any objects with one member per metric work:
/// PerfCounters (fields) and, via for_each_run_metric, RunCounterSink.
template <class F, class... Objs>
void for_each_metric(F&& f, Objs&... objs) {
  ETH_PERF_METRICS(ETH_METRIC_VISIT)
}

/// for_each_metric restricted to the run-attributed entries — the ones
/// RunCounterSink has cells for.
template <class F, class... Objs>
void for_each_run_metric(F&& f, Objs&... objs) {
  ETH_PERF_METRICS(ETH_METRIC_VISIT_RUN)
}

/// One relaxed atomic tally combined by a fixed merge rule. The sink is
/// deliberately dumb — monotonic, no reset — because it only ever
/// aggregates within one run's (or one capture's) lifetime.
template <class T, MetricMerge Rule>
class MetricCell {
public:
  T load() const { return value_.load(std::memory_order_relaxed); }

  void add(T v) {
    if constexpr (Rule == MetricMerge::sum && std::is_integral_v<T>) {
      value_.fetch_add(v, std::memory_order_relaxed);
    } else {
      // atomic<double>::fetch_add and atomic max are not portable
      // library features; a relaxed CAS loop is equivalent for tallies.
      T cur = value_.load(std::memory_order_relaxed);
      while (merge_metric(Rule, cur, v) != cur &&
             !value_.compare_exchange_weak(cur, merge_metric(Rule, cur, v),
                                           std::memory_order_relaxed)) {
      }
    }
  }

private:
  std::atomic<T> value_{0};
};

/// One cell per run-attributed metric, named after it.
struct RunCounterSink {
  ETH_PERF_METRICS(ETH_SINK_CELL)
};

/// The sink the calling thread attributes to, or nullptr when the
/// thread is not working on behalf of any run.
RunCounterSink* current_run_sink();

/// The one emitter: add `v` to `metric` (e.g.
/// &RunCounterSink::bytes_on_wire) in the calling thread's sink by the
/// metric's merge rule; a no-op outside any run.
template <class T, MetricMerge Rule, class V>
void emit_metric(MetricCell<T, Rule> RunCounterSink::*metric, V v) {
  if (RunCounterSink* sink = current_run_sink()) (sink->*metric).add(static_cast<T>(v));
}

/// RAII: route this thread's attributable counts into `sink`, restore
/// the previous sink on destruction. Scopes nest (innermost wins);
/// passing nullptr detaches the thread for the scope's extent.
class RunSinkScope {
public:
  explicit RunSinkScope(RunCounterSink* sink);
  ~RunSinkScope();
  RunSinkScope(const RunSinkScope&) = delete;
  RunSinkScope& operator=(const RunSinkScope&) = delete;

private:
  RunCounterSink* prev_;
};

} // namespace eth
