// End-to-end integration tests: the full ETH architecture exercised the
// way the paper describes it — preliminary simulation dump, proxy
// reading from disk, coupling hand-off, parallel rendering over
// minimpi, compositing, metrics — including the real socket-layer
// internode path.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/timer.hpp"
#include "core/harness.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "insitu/fault.hpp"
#include "insitu/socket_transport.hpp"
#include "insitu/viz.hpp"
#include "parallel/minimpi.hpp"
#include "render/compositor.hpp"
#include "sim/dump.hpp"
#include "sim/hacc_generator.hpp"
#include "sim/partition.hpp"
#include "sim/xrage_generator.hpp"

namespace eth {
namespace {

class EndToEndTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Per-process directory: ctest runs each test as its own process,
    // possibly in parallel, so a shared path would race with TearDown.
    dir_ = std::filesystem::temp_directory_path() /
           ("eth_e2e_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

/// `bytes` as a one-segment message that owns its storage.
WireMessage message_of(std::vector<std::uint8_t> bytes) {
  WireMessage msg;
  msg.append_owned(Buffer::adopt(std::move(bytes)));
  return msg;
}

TEST_F(EndToEndTest, DumpProxyRenderCompositePipeline) {
  // 1. "Preliminary run": generate + partition + dump per rank.
  constexpr int kRanks = 3;
  sim::HaccParams params;
  params.num_particles = 6000;
  const auto full = sim::generate_hacc(params);
  const auto parts = sim::partition_points(*full, kRanks);
  const sim::DumpWriter writer(dir_.string(), "e2e");
  for (int r = 0; r < kRanks; ++r) writer.write(parts[static_cast<std::size_t>(r)], 0, r);

  // 2. Parallel proxy + viz + composite over minimpi. Every rank uses
  // the same global color scale, as the harness would arrange.
  const Camera camera = Camera::framing(full->bounds(), {-0.5f, -0.4f, -0.75f});
  const auto [speed_lo, speed_hi] = full->point_fields().get("speed").range();
  insitu::VizConfig shared_cfg;
  shared_cfg.algorithm = insitu::VizAlgorithm::kVtkPoints;
  shared_cfg.image_width = 48;
  shared_cfg.image_height = 48;
  shared_cfg.images_per_timestep = 1;
  shared_cfg.scalar_range_lo = speed_lo;
  shared_cfg.scalar_range_hi = speed_hi;

  ImageBuffer final_image;
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    const sim::SimulationProxy proxy(dir_.string(), "e2e");
    const auto data = proxy.load(0, comm.rank());
    auto out = insitu::run_viz_rank(*data, shared_cfg, camera);

    const auto packed = pack_image(out.images[0]);
    const auto gathered = comm.gather(packed, 0);
    if (comm.rank() == 0) {
      cluster::PerfCounters counters;
      ImageBuffer merged = std::move(out.images[0]);
      for (int src = 1; src < kRanks; ++src)
        depth_composite_pair(merged, unpack_image(gathered[static_cast<std::size_t>(src)]),
                             counters);
      final_image = std::move(merged);
    }
  });

  // 3. The composited parallel image equals a serial render of the
  // full data (sort-last correctness, end to end).
  const auto serial = insitu::run_viz_rank(*full, shared_cfg, camera);
  EXPECT_DOUBLE_EQ(image_rmse(final_image, serial.images[0]), 0.0);
}

TEST_F(EndToEndTest, InternodeSocketPipelineMatchesInProcess) {
  // Full internode path over real TCP: sim proxy ranks stream dumped
  // timesteps; viz ranks receive and render.
  const std::string layout_path = (dir_ / "layout.txt").string();
  sim::HaccParams params;
  params.num_particles = 2000;
  const auto data = sim::generate_hacc(params);
  const Camera camera = Camera::framing(data->bounds(), {-0.5f, -0.4f, -0.75f});

  insitu::VizConfig cfg;
  cfg.algorithm = insitu::VizAlgorithm::kGaussianSplat;
  cfg.image_width = 40;
  cfg.image_height = 40;
  cfg.images_per_timestep = 1;

  ImageBuffer via_socket;
  std::thread sim_proxy([&] {
    auto transport = insitu::socket_listen(layout_path, 0, 15.0);
    transport->send_dataset(*data);
  });
  std::thread viz_proxy([&] {
    auto transport = insitu::socket_connect(layout_path, 0, 15.0);
    const auto received = transport->recv_dataset();
    auto out = insitu::run_viz_rank(*received, cfg, camera);
    via_socket = std::move(out.images[0]);
  });
  sim_proxy.join();
  viz_proxy.join();

  const auto direct = insitu::run_viz_rank(*data, cfg, camera);
  EXPECT_DOUBLE_EQ(image_rmse(via_socket, direct.images[0]), 0.0);
}

TEST_F(EndToEndTest, InternodeSocketSurvivesCorruptFrameAndDisconnect) {
  // Robustness over the real TCP path: the sim proxy streams one good
  // frame, one bit-damaged frame, then disconnects mid-run. The viz
  // side must finish the run — the good frame delivered, the corrupt
  // frame counted dropped, the disconnect classified — with no hang.
  const std::string layout_path = (dir_ / "layout.txt").string();
  sim::HaccParams params;
  params.num_particles = 500;
  const auto data = sim::generate_hacc(params);
  const WireMessage payload = wire_message_for_dataset(*data);

  const WallTimer timer;
  std::thread sim_proxy([&] {
    auto transport = insitu::socket_listen(layout_path, 0, 15.0);
    transport->send_framed_msg(payload);
    auto corrupt = insitu::frame_encode_msg(payload).flatten();
    corrupt[insitu::kFrameHeaderBytes + 3] ^= 0x40; // damage below the CRC
    transport->send_msg(message_of(std::move(corrupt)));
    // Destroying the transport here is the mid-run disconnect: the
    // receiver still expects more timesteps.
  });

  insitu::RobustnessReport report;
  Index datasets_received = 0;
  std::thread viz_proxy([&] {
    auto transport = insitu::socket_connect(layout_path, 0, 15.0);
    transport->set_recv_deadline(10.0);
    bool closed = false;
    while (!closed) {
      const auto frame = insitu::recv_framed_tolerant(*transport, report, &closed);
      if (!frame.has_value()) continue;
      const auto restored = deserialize_dataset(*frame);
      ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
      EXPECT_EQ(static_cast<const PointSet&>(*restored).num_points(),
                data->num_points());
      ++datasets_received;
    }
  });
  sim_proxy.join();
  viz_proxy.join();

  EXPECT_EQ(datasets_received, 1);
  EXPECT_EQ(report.frames_delivered, 1);
  EXPECT_EQ(report.frames_corrupt, 1);
  EXPECT_EQ(report.frames_dropped, 2); // the corrupt frame + the disconnect
  EXPECT_LT(timer.elapsed(), 15.0);    // survived, and without hanging
}

TEST_F(EndToEndTest, InternodeSocketSurvivesCorruptCompressedFrameAndDisconnect) {
  // Same survival contract over the COMPRESSED wire path (DESIGN.md
  // §15): a good lz4-codec frame, a bit-damaged one (damage lands in
  // the coded region, so the CRC over the compressed bytes must catch
  // it before any decompression), then a mid-run disconnect.
  const std::string layout_path = (dir_ / "layout.txt").string();
  sim::HaccParams params;
  params.num_particles = 500;
  const auto data = sim::generate_hacc(params);
  const WireMessage payload = wire_message_for_dataset(*data);

  // The HACC payload must actually take the compressed branch, or
  // this test silently degrades into the stored-frame one.
  const auto lz_frame =
      insitu::frame_encode_msg(payload, insitu::WireCodec::kLz4).flatten();
  ASSERT_LT(lz_frame.size(), insitu::frame_encode_msg(payload).total_bytes());
  ASSERT_EQ(lz_frame[3], 0x5A); // 'Z' of the little-endian "ETHZ" magic

  const WallTimer timer;
  std::thread sim_proxy([&] {
    auto transport = insitu::socket_listen(layout_path, 0, 15.0);
    transport->send_framed_msg(payload, insitu::WireCodec::kLz4);
    auto corrupt = lz_frame;
    corrupt[insitu::kLzFrameHeaderBytes + 3] ^= 0x40; // damage a coded byte
    transport->send_msg(message_of(std::move(corrupt)));
    // Destroying the transport here is the mid-run disconnect.
  });

  insitu::RobustnessReport report;
  Index datasets_received = 0;
  std::thread viz_proxy([&] {
    auto transport = insitu::socket_connect(layout_path, 0, 15.0);
    transport->set_recv_deadline(10.0);
    bool closed = false;
    while (!closed) {
      const auto frame = insitu::recv_framed_tolerant(*transport, report, &closed);
      if (!frame.has_value()) continue;
      const auto restored = deserialize_dataset(*frame);
      ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
      EXPECT_EQ(static_cast<const PointSet&>(*restored).num_points(),
                data->num_points());
      ++datasets_received;
    }
  });
  sim_proxy.join();
  viz_proxy.join();

  EXPECT_EQ(datasets_received, 1);
  EXPECT_EQ(report.frames_delivered, 1);
  EXPECT_EQ(report.frames_corrupt, 1);
  EXPECT_EQ(report.frames_dropped, 2); // the corrupt frame + the disconnect
  EXPECT_LT(timer.elapsed(), 15.0);
}

TEST_F(EndToEndTest, CouplingStrategiesAgreeOnTheImage) {
  // Different couplings are performance choices; the rendered artifact
  // must be identical across all three.
  ExperimentSpec spec;
  spec.name = "coupling-image";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2500;
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  spec.viz.image_width = 40;
  spec.viz.image_height = 40;
  spec.viz.images_per_timestep = 1;
  spec.layout.nodes = 4;
  spec.layout.ranks = 4;

  const Harness harness;
  std::optional<ImageBuffer> reference;
  for (const auto coupling : {cluster::Coupling::kTight, cluster::Coupling::kIntercore,
                              cluster::Coupling::kInternode}) {
    spec.layout.coupling = coupling;
    const RunResult result = harness.run(spec);
    ASSERT_TRUE(result.final_image.has_value());
    if (!reference) {
      reference = result.final_image;
    } else {
      EXPECT_DOUBLE_EQ(image_rmse(*reference, *result.final_image), 0.0)
          << "coupling " << cluster::to_string(coupling);
    }
  }
}

TEST_F(EndToEndTest, XrageTwelveTimestepLoop) {
  // A miniature of the paper's xRAGE run: several timesteps, sliding
  // planes, varying isovalue, both pipelines, through the full harness.
  ExperimentSpec spec;
  spec.name = "xrage-loop";
  spec.application = Application::kXrage;
  spec.xrage.dims = {16, 12, 12};
  spec.timesteps = 3;
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkGeometry;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 2;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.use_disk_proxy = true;
  spec.proxy_dir = (dir_ / "xrage_proxy").string();

  const Harness harness;
  const RunResult result = harness.run(spec);
  EXPECT_GT(result.exec_seconds, 0);
  EXPECT_GT(result.counters.primitives_emitted, 0);
  // Proxy files were really created: 3 timesteps x 2 ranks.
  Index files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spec.proxy_dir))
    if (entry.path().extension() == ".eth") ++files;
  EXPECT_EQ(files, 6);
}

TEST_F(EndToEndTest, SamplingQualityEnergyTradeoff) {
  // Table II's workflow end to end: sampling saves energy and costs
  // RMSE, monotonically.
  ExperimentSpec spec;
  spec.name = "tradeoff";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 20000;
  spec.viz.algorithm = insitu::VizAlgorithm::kGaussianSplat;
  spec.viz.image_width = 48;
  spec.viz.image_height = 48;
  spec.viz.images_per_timestep = 1;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;

  const Harness harness;
  const ImageBuffer reference = Harness::render_reference(spec);

  double last_energy = 1e30;
  double last_rmse = -1;
  for (const double ratio : {1.0, 0.5, 0.25}) {
    spec.viz.sampling_ratio = ratio;
    const RunResult result = harness.run(spec);
    ExperimentSpec ref_spec = spec;
    const ImageBuffer sampled = Harness::render_reference(ref_spec);
    const double rmse = image_rmse(sampled, reference);
    // Energy comes from measured host CPU time; allow scheduler noise.
    EXPECT_LE(result.energy, last_energy * 1.20);
    EXPECT_GE(rmse, last_rmse - 1e-9);
    last_energy = result.energy;
    last_rmse = rmse;
  }
  EXPECT_GT(last_rmse, 0.0); // 0.25 sampling visibly differs
}

} // namespace
} // namespace eth
