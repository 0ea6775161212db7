#pragma once
// Timers.
//
// The measured-compute / modelled-machine split at the heart of this
// reproduction (DESIGN.md §4.1) depends on ThreadCpuTimer: rank kernels
// run as threads of one process, so wall time is distorted by scheduling,
// but CLOCK_THREAD_CPUTIME_ID charges each rank only for cycles it
// actually executed — the closest observable analogue to "time on a
// dedicated core of a cluster node".

#include <chrono>
#include <ctime>

#include "common/types.hpp"

namespace eth {

/// Monotonic wall-clock timer.
class WallTimer {
public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time timer (scheduling-independent).
class ThreadCpuTimer {
public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  /// CPU-seconds consumed by the calling thread since construction/reset.
  double elapsed() const { return now() - start_; }

  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
  }

private:
  double start_;
};

/// Accumulates named phase durations (build, render, composite, ...).
/// Implemented in timer.cpp; thread-compatible (one instance per rank).
class PhaseTimer {
public:
  /// Add `seconds` to phase `name` (creates it on first use).
  void add(const char* name, double seconds);

  /// Total across all phases.
  double total() const;

  /// Seconds recorded for `name` (0 if never recorded).
  double get(const char* name) const;

  /// Add every phase `other` recorded time for, in its entry order.
  void merge(const PhaseTimer& other);

  void clear();

private:
  // Small fixed vocabulary; linear scan beats a map for <10 entries.
  struct Entry {
    const char* name;
    double seconds;
  };
  static constexpr int kMaxPhases = 16;
  Entry entries_[kMaxPhases]{};
  int count_ = 0;
};

} // namespace eth
