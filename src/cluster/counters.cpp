#include "cluster/counters.hpp"

#include <type_traits>

#include "common/string_util.hpp"

namespace eth::cluster {

void PerfCounters::merge(const PerfCounters& other) {
  for_each_metric(
      [](const MetricInfo& m, auto& mine, const auto& theirs) {
        mine = merge_metric(m.merge, mine, theirs);
      },
      *this, other);
  phases.merge(other.phases);
}

void PerfCounters::fold(const RunCounterSink& sink) {
  for_each_run_metric(
      [](const MetricInfo& m, auto& mine, const auto& cell) {
        mine = merge_metric(m.merge, mine, cell.load());
      },
      *this, sink);
}

std::string PerfCounters::summary() const {
  std::string out;
  for_each_metric(
      [&](const MetricInfo& m, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Bytes>)
          out += strprintf("%s: %s\n", m.name, format_bytes(v).c_str());
        else if constexpr (std::is_same_v<T, double>)
          out += strprintf(m.determinism == Determinism::measured ? "%s: %.4f\n"
                                                                   : "%s: %.3g\n",
                           m.name, v);
        else
          out += strprintf("%s: %lld\n", m.name, static_cast<long long>(v));
      },
      *this);
  out += strprintf("cpu_seconds_total: %.4f\n", phases.total());
  return out;
}

} // namespace eth::cluster
