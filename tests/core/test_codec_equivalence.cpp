// Codec-equivalence gate (DESIGN.md §15): the wire codec is lossless,
// so a run must produce BIT-IDENTICAL images, robustness counts and
// metrics with the codec on or off — only the wire accounting
// (bytes_on_wire, compress_cpu_seconds) and the data-plane segment
// bookkeeping may differ. The codec-on path must also stay
// deterministic across thread counts, and its wire volume must never
// exceed the stored frames' (adaptive fallback).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "data/image.hpp"
#include "insitu/transport.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"

#include "../metric_checks.hpp"

namespace eth {
namespace {

class ScopedPool {
public:
  explicit ScopedPool(unsigned threads) : pool_(threads) {
    set_global_pool(&pool_);
  }
  ~ScopedPool() { set_global_pool(nullptr); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

/// The cache's replay bookkeeping is orthogonal to the codec; run with
/// it off so every counter below is a pure transport quantity.
class CacheOffGuard {
public:
  CacheOffGuard() : was_enabled_(global_artifact_cache().enabled()) {
    global_artifact_cache().set_enabled(false);
  }
  ~CacheOffGuard() {
    global_artifact_cache().set_enabled(was_enabled_);
    global_artifact_cache().clear();
  }

private:
  bool was_enabled_;
};

/// Pin the process-wide ETH_WIRE_CODEC resolution for one scope.
class ScopedCodec {
public:
  explicit ScopedCodec(const char* name) {
    insitu::set_wire_codec_override(name);
  }
  ~ScopedCodec() { insitu::set_wire_codec_override(nullptr); }
};

ExperimentSpec faulted_hacc() {
  ExperimentSpec spec;
  spec.name = "codec-eq-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2500;
  spec.hacc.num_halos = 6;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.timesteps = 2;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.fault.seed = 77;
  spec.fault.p_bit_flip = 0.2;
  spec.fault.p_truncate = 0.1;
  spec.transfer_retry.max_attempts = 4;
  return spec;
}

ExperimentSpec faulted_xrage() {
  ExperimentSpec spec;
  spec.name = "codec-eq-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {16, 12, 10};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.timesteps = 2;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.fault.seed = 99;
  spec.fault.p_bit_flip = 0.15;
  spec.transfer_retry.max_attempts = 4;
  return spec;
}

RunResult run_with_codec(const ExperimentSpec& base, const char* codec) {
  ExperimentSpec spec = base;
  spec.transport_codec = codec;
  return Harness().run(spec);
}

std::vector<std::uint8_t> image_of(const RunResult& result) {
  EXPECT_TRUE(result.final_image.has_value());
  return result.final_image ? pack_image(*result.final_image)
                            : std::vector<std::uint8_t>{};
}

/// Everything the codec must NOT change: images, robustness counts,
/// dropped timesteps, and every work counter except the wire/data-plane
/// accounting.
void expect_codec_invariant(const ExperimentSpec& base) {
  const CacheOffGuard cache_off;
  const RunResult off = run_with_codec(base, "none");
  const RunResult on = run_with_codec(base, "lz4");

  const std::vector<std::uint8_t> img_off = image_of(off);
  const std::vector<std::uint8_t> img_on = image_of(on);
  ASSERT_EQ(img_off.size(), img_on.size());
  EXPECT_EQ(std::memcmp(img_off.data(), img_on.data(), img_off.size()), 0)
      << base.name << ": image depends on the wire codec";

  EXPECT_EQ(off.robustness, on.robustness)
      << base.name << ": robustness counts depend on the wire codec\noff:\n"
      << off.robustness.summary() << "on:\n" << on.robustness.summary();
  EXPECT_EQ(off.timesteps_dropped, on.timesteps_dropped);

  // Every deterministic metric is codec-invariant except the ones the
  // codec legitimately changes:
  expect_deterministic_metrics_identical(
      off.counters, on.counters, base.name,
      {// framed bytes shrink when compression pays off
       "bytes_on_wire",
       // a compressed frame decodes into an owned buffer instead of
       // borrowing the wire frame zero-copy, so the copy/borrow split
       // moves (DESIGN.md §15)
       "bytes_copied", "bytes_borrowed"});
  // bytes_transferred feeds the interconnect model from the transport's
  // own byte count, so compression legitimately SHRINKS it — that is
  // the modelled benefit of the codec, not a determinism leak.
  EXPECT_LE(on.bytes_transferred, off.bytes_transferred);

  // The codec must have been exercised and must never cost wire bytes
  // (stored fallback). Retried frames resend identical bytes, so the
  // comparison holds under fault injection too.
  EXPECT_GT(on.counters.bytes_on_wire, 0u);
  EXPECT_LE(on.counters.bytes_on_wire, off.counters.bytes_on_wire);
}

TEST(CodecEquivalence, HaccFaultedRunIsCodecInvariant) {
  expect_codec_invariant(faulted_hacc());
}

TEST(CodecEquivalence, XrageFaultedRunIsCodecInvariant) {
  expect_codec_invariant(faulted_xrage());
}

TEST(CodecEquivalence, QuantizedPathIsCodecInvariant) {
  // Quantize-then-compress: the codec sees the packed lossy payload
  // and must still round-trip it bit-exactly.
  ExperimentSpec spec = faulted_hacc();
  spec.name = "codec-eq-quant";
  spec.transport_quantization_bits = 10;
  expect_codec_invariant(spec);
}

TEST(CodecEquivalence, CodecOnIsDeterministicAcrossThreadCounts) {
  const CacheOffGuard cache_off;
  const ExperimentSpec base = faulted_hacc();
  std::vector<std::uint8_t> img1, img8;
  RunResult r1, r8;
  {
    ScopedPool pool(1);
    r1 = run_with_codec(base, "lz4");
    img1 = image_of(r1);
  }
  {
    ScopedPool pool(8);
    r8 = run_with_codec(base, "lz4");
    img8 = image_of(r8);
  }
  ASSERT_EQ(img1.size(), img8.size());
  EXPECT_EQ(std::memcmp(img1.data(), img8.data(), img1.size()), 0);
  EXPECT_EQ(r1.robustness, r8.robustness);
  // The compressed wire image itself is deterministic, so every
  // deterministic metric — wire bytes included — matches across thread
  // counts.
  expect_deterministic_metrics_identical(r1.counters, r8.counters, base.name);
}

TEST(CodecEquivalence, SpecFieldWinsOverEnvResolution) {
  ExperimentSpec spec = faulted_hacc();
  {
    const ScopedCodec env("lz4");
    spec.transport_codec.clear();
    EXPECT_EQ(spec.resolved_transport_codec(), insitu::WireCodec::kLz4);
    spec.transport_codec = "none";
    EXPECT_EQ(spec.resolved_transport_codec(), insitu::WireCodec::kNone);
  }
  {
    const ScopedCodec env("none");
    spec.transport_codec = "lz4";
    EXPECT_EQ(spec.resolved_transport_codec(), insitu::WireCodec::kLz4);
  }
}

TEST(CodecEquivalence, ValidateRejectsUnknownCodec) {
  ExperimentSpec spec = faulted_hacc();
  spec.transport_codec = "zstd";
  EXPECT_THROW(spec.validate(), Error);
}

} // namespace
} // namespace eth
