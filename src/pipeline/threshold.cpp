#include "pipeline/threshold.hpp"

#include "common/string_util.hpp"

#include <vector>

#include "data/point_set.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

ThresholdFilter::ThresholdFilter(std::string field_name, Real lower, Real upper)
    : field_name_(std::move(field_name)), lower_(lower), upper_(upper) {
  require(lower <= upper, "ThresholdFilter: lower must not exceed upper");
}

void ThresholdFilter::set_range(Real lower, Real upper) {
  require(lower <= upper, "ThresholdFilter: lower must not exceed upper");
  lower_ = lower;
  upper_ = upper;
  modified();
}

std::unique_ptr<DataSet> ThresholdFilter::execute(const DataSet* input,
                                                  cluster::PerfCounters& counters) {
  require(input != nullptr && input->kind() == DataSetKind::kPointSet,
          "ThresholdFilter: input must be a PointSet");
  const auto& ps = static_cast<const PointSet&>(*input);
  const Field& field = ps.point_fields().get(field_name_);

  // Chunk-parallel predicate evaluation; per-chunk keep lists are
  // concatenated in ascending chunk order, reproducing the serial scan
  // exactly (chunks are contiguous ascending index ranges).
  const Index n = ps.num_points();
  const Index n_chunks = plan_chunks(n, 4096);
  std::vector<std::vector<Index>> chunk_keep(static_cast<std::size_t>(n_chunks));
  parallel_for_chunks(0, n, n_chunks, [&](Index c, Index b, Index e) {
    std::vector<Index>& local = chunk_keep[static_cast<std::size_t>(c)];
    for (Index i = b; i < e; ++i) {
      const Real v = field.get(i);
      if (v >= lower_ && v <= upper_) local.push_back(i);
    }
  });
  std::vector<Index> keep;
  for (const auto& local : chunk_keep) keep.insert(keep.end(), local.begin(), local.end());

  counters.elements_processed += n;
  counters.bytes_read += ps.byte_size();
  counters.max_parallel_items = std::max(counters.max_parallel_items, n);
  auto out = std::make_unique<PointSet>(ps.subset(keep));
  counters.bytes_written += out->byte_size();
  return out;
}

std::string ThresholdFilter::cache_signature() const {
  return strprintf("threshold field=%s lo=%a hi=%a", field_name_.c_str(),
                   static_cast<double>(lower_), static_cast<double>(upper_));
}

} // namespace eth
