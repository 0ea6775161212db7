#pragma once
// Traced layer-by-layer replay of one ETH design point.
//
// Harness::run interleaves every layer on rank threads, stage workers
// and pool workers, so its wall time cannot be split by layer from the
// outside. The replay re-executes the same design point serially, one
// share at a time, by calling each layer's public functions in the
// harness's stage order, with a span around every call. A layer's self
// time is its spans' duration minus the part their child spans cover.
//
// The replay must compute what the harness computes: its final
// composited image and its wire / data-plane byte counts are compared
// with the harness's RunResult for the same spec (replay fidelity).

#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// All calls of one span name within the replay.
struct SpanStats {
  std::vector<double> self_ms; ///< self time of each call
  double bytes = 0;            ///< payload bytes the calls processed
};

struct ReplayResult {
  std::map<std::string, SpanStats> spans; ///< every span but the root
  double root_ms = 0;      ///< inclusive wall time of the whole point
  eth::ImageBuffer final_image;
  eth::Bytes bytes_on_wire = 0;
  eth::Bytes bytes_copied = 0;
  eth::Bytes bytes_borrowed = 0;
  eth::Index triangles = 0; ///< extracted isosurface + slice triangles
  double lz_raw_bytes = 0;   ///< payload bytes fed to the LZ coder
  double lz_coded_bytes = 0; ///< bytes it produced
};

/// Replay `spec` serially. Supports what the benchmark's workloads use:
/// intercore / internode / async coupling with P_sim == P_viz, the HACC
/// disk proxy or in-memory synthesis, and the raycast-spheres and
/// vtk-geometry pipelines. Dumps go under `spec.proxy_dir`. Before
/// returning, checks that the replay's hand-assembled frames equal the
/// transport's own (insitu::frame_encode_msg / frame_decode_msg) on a
/// prefix of the first payload; throws eth::Error on any mismatch.
ReplayResult replay_point(const eth::ExperimentSpec& spec);

} // namespace perfbench
