#pragma once
// Parameter-space sweeps: the "rapid design-space exploration" loop.
// Build a list of labeled experiment variants (vary one knob per
// sweep), run them all, and collect the results for tabulation —
// exactly the workflow of the paper's Figures 8-15.

#include <functional>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/table.hpp"

namespace eth {

struct SweepPoint {
  std::string label;
  ExperimentSpec spec;
};

struct SweepOutcome {
  std::string label;
  RunResult result;
};

/// Sweep concurrency (DESIGN.md §12): number of sweep points run_sweep
/// executes concurrently: the ETH_SWEEP_WORKERS knob (default 1, the
/// historical serial sweep).
int sweep_worker_count();

/// Pin sweep_worker_count() (tests, --workers); 0 drops the pin.
void set_sweep_worker_override(int workers);

/// Run every point and return outcomes in SUBMISSION ORDER.
/// `on_result`, when set, is called once per point (progress reporting
/// in long benches) — serially and in submission order, regardless of
/// worker count.
///
/// Determinism contract: with sweep_worker_count() > 1 the points
/// execute concurrently on dedicated threads, but every artifact — the
/// returned outcomes, images, metrics/robustness tables, modelled
/// time/power/energy, dropped-timestep counts, and the trace's
/// (name, track) event histogram — is bit-identical to the serial
/// sweep. Each point runs under a RunContext whose trace track base is
/// a pure function of its submission index. If any point throws, the
/// lowest-index failure is rethrown after in-flight points finish (and
/// no further points start).
std::vector<SweepOutcome> run_sweep(
    const Harness& harness, const std::vector<SweepPoint>& points,
    const std::function<void(const SweepOutcome&)>& on_result = {});

/// Build a sweep by applying `mutate(value, spec)` to a base spec for
/// each value in `values`; labels via `label(value)`.
template <typename T>
std::vector<SweepPoint> sweep_over(const ExperimentSpec& base,
                                   const std::vector<T>& values,
                                   const std::function<std::string(const T&)>& label,
                                   const std::function<void(const T&, ExperimentSpec&)>& mutate) {
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (const T& value : values) {
    SweepPoint point{label(value), base};
    mutate(value, point.spec);
    point.spec.name = base.name + "-" + point.label;
    points.push_back(std::move(point));
  }
  return points;
}

/// Standard metrics table over sweep outcomes: label plus the modelled
/// time, power, dynamic power and energy. Counters live in
/// robustness_table, so no column is printed twice.
ResultTable metrics_table(const std::string& label_column,
                          const std::vector<SweepOutcome>& outcomes);

/// Robustness counters over sweep outcomes, one row per configuration:
/// the label column, then robustness_columns() (core/harness.hpp).
ResultTable robustness_table(const std::string& label_column,
                             const std::vector<SweepOutcome>& outcomes);

/// Compact per-phase summary of the current trace snapshot (DESIGN.md
/// §11): one row per span/counter name with event count and total span
/// milliseconds — the terminal companion of the Chrome JSON export.
ResultTable trace_summary_table();

} // namespace eth
