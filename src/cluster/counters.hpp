#pragma once
// PerfCounters: the TACC-stats stand-in.
//
// The paper collects hardware performance counters through TACC stats
// to explain results (e.g. "raycasting performs significantly more
// computations ... from an additional setup phase"). Our kernels report
// equivalent software counters: arithmetic-operation estimates, elements
// touched, bytes moved, and per-phase CPU seconds, aggregated per rank
// and mergeable across ranks. Every metric is declared once in the
// registry (common/run_counters.hpp, DESIGN.md §17).

#include <string>
#include <vector>

#include "common/run_counters.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace eth::cluster {

struct PerfCounters {
  // One field per ETH_PERF_METRICS entry (common/run_counters.hpp),
  // zero-initialized, in declaration order.
#define ETH_PERF_FIELD(name, type, ...) type name = 0;
  ETH_PERF_METRICS(ETH_PERF_FIELD)
#undef ETH_PERF_FIELD

  // Time, by phase (CPU seconds from ThreadCpuTimer).
  PhaseTimer phases;

  /// Combine every metric by its merge rule, and the phase times.
  void merge(const PerfCounters& other);

  /// Fold a run's sink into these counters: each run-attributed metric
  /// combines by its merge rule.
  void fold(const RunCounterSink& sink);

  /// Multi-line human-readable dump ("counter: value" per line).
  std::string summary() const;
};

/// Per-worker counter slots for parallel kernels. Each chunk of a
/// parallel_for_chunks loop accumulates into its own slot (no sharing,
/// so no data races for TSan to flag); merge_into() folds the slots
/// into the kernel's aggregate in ascending chunk order at the join,
/// which keeps the aggregate bit-identical at every thread count.
class CounterShards {
public:
  explicit CounterShards(Index n_chunks)
      : shards_(static_cast<std::size_t>(n_chunks)) {}

  PerfCounters& at(Index chunk) {
    return shards_[static_cast<std::size_t>(chunk)];
  }

  /// Fold every shard into `into`, in slot order.
  void merge_into(PerfCounters& into) const {
    for (const PerfCounters& shard : shards_) into.merge(shard);
  }

private:
  std::vector<PerfCounters> shards_;
};

} // namespace eth::cluster
