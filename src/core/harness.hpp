#pragma once
// Harness: executes one ExperimentSpec end to end.
//
// Execution model (DESIGN.md §4.1): the spec's `layout.ranks`
// measurement ranks run as minimpi threads. Each plays one
// REPRESENTATIVE modelled node: it produces/loads exactly the data
// share one node of the modelled allocation would hold (1/sim_nodes of
// the workload for the simulation proxy, 1/viz_nodes for the
// visualization proxy), moves it across the configured coupling with a
// real serialize/copy, runs the real visualization kernels, and
// composites partial images over minimpi. Measured per-phase CPU times
// then drive the cluster model, which produces the paper's metrics at
// full modelled scale.
//
// Representative shares are spread across the domain (share index
// r * P / M), so spatial load imbalance — e.g. HACC halos clustering in
// some slabs — is captured by the max-over-ranks reduction.

#include <cstdint>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/table.hpp"

namespace eth {

/// Per-run execution context for re-entrant harness runs (DESIGN.md
/// §12 "Concurrent sweeps"). A plain run uses the defaults; the sweep
/// scheduler passes one context per sweep point so concurrent runs
/// stay distinguishable in the trace.
struct RunContext {
  /// Added to every trace track this run emits: measurement rank r
  /// lands on track `trace_track_base + r`, modelled node n on
  /// `trace::kModelTrackBase + trace_track_base + n`. The sweep passes
  /// `point_index * trace::kSweepTrackStride` — a pure function of the
  /// submission index — so trace histograms are identical at every
  /// worker count.
  std::int32_t trace_track_base = 0;
};

class Harness {
public:
  explicit Harness(core::ModelOptions options = {}) : options_(options) {}

  const core::ModelOptions& options() const { return options_; }

  /// Run the experiment; throws eth::Error on misconfiguration.
  /// Fully re-entrant: any number of runs may execute concurrently on
  /// distinct threads (the sweep scheduler does). Each run joins only
  /// its own read-ahead tasks and attributes only its own data-plane
  /// and cache traffic (common/run_counters.hpp), while sharing the
  /// process-wide artifact cache and thread pool.
  RunResult run(const ExperimentSpec& spec) const { return run(spec, RunContext{}); }
  RunResult run(const ExperimentSpec& spec, const RunContext& ctx) const;

  /// The camera every rank derives its image sequence from: framed on
  /// the workload's analytic global bounds, so it is identical across
  /// ranks, couplings, sampling ratios and algorithms.
  static Camera global_camera(const ExperimentSpec& spec);

  /// Analytic bounds of the full workload (no data generation needed).
  static AABB global_bounds(const ExperimentSpec& spec);

  /// Produce share `share` of `parts` of the workload at `timestep` —
  /// the simulation proxy's per-node data.
  static std::unique_ptr<DataSet> produce_share(const ExperimentSpec& spec, int share,
                                                int parts, Index timestep);

  /// Render the complete dataset on a single rank into one image (the
  /// last camera of the first timestep) — the quality-metric reference
  /// used by RMSE studies (Table II).
  static ImageBuffer render_reference(const ExperimentSpec& spec);

private:
  core::ModelOptions options_;
};

/// The robustness table's columns, shared by every robustness table:
/// the transport outcomes (frames sent / delivered / retried / dropped /
/// corrupt / timed-out, dropped timesteps), then every run-attributed
/// registry metric that is not measured (data plane, wire, cache), in
/// registry order (common/run_counters.hpp).
std::vector<std::string> robustness_columns();

/// Append one run's cells in robustness_columns() order.
void add_robustness_cells(ResultTable& table, const RunResult& result);

/// A run's robustness counters as a one-row ResultTable — the per-run
/// robustness report printed next to the paper's performance tables.
ResultTable robustness_table(const RunResult& result);

} // namespace eth
