#include "core/spec_config.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"

namespace eth {
namespace {

TEST(SpecConfig, SingleValuedKeysSetTheSpec) {
  const auto points = parse_experiment_config(R"(
# comment line
application hacc
particles 12345
algorithm vtk-points    # trailing comment
coupling internode
nodes 32
ranks 4
viz_nodes 8
sampling 0.5
images 7
image_size 96x64
quantization_bits 12
)");
  ASSERT_EQ(points.size(), 1u);
  const ExperimentSpec& spec = points[0].spec;
  EXPECT_EQ(spec.application, Application::kHacc);
  EXPECT_EQ(spec.hacc.num_particles, 12345);
  EXPECT_EQ(spec.viz.algorithm, insitu::VizAlgorithm::kVtkPoints);
  EXPECT_EQ(spec.layout.coupling, cluster::Coupling::kInternode);
  EXPECT_EQ(spec.layout.nodes, 32);
  EXPECT_EQ(spec.layout.viz_nodes, 8);
  EXPECT_DOUBLE_EQ(spec.viz.sampling_ratio, 0.5);
  EXPECT_EQ(spec.viz.images_per_timestep, 7);
  EXPECT_EQ(spec.viz.image_width, 96);
  EXPECT_EQ(spec.viz.image_height, 64);
  EXPECT_EQ(spec.transport_quantization_bits, 12);
  EXPECT_EQ(points[0].label, "run");
}

TEST(SpecConfig, CartesianProductExpansion) {
  const auto points = parse_experiment_config(R"(
application hacc
particles 1000
algorithm gaussian-splat vtk-points raycast-spheres
sampling 1.0 0.5
nodes 8
ranks 2
)");
  ASSERT_EQ(points.size(), 6u); // 3 algorithms x 2 ratios
  // Labels carry every swept dimension.
  EXPECT_EQ(points[0].label, "algorithm=gaussian-splat sampling=1.0");
  EXPECT_EQ(points[5].label, "algorithm=raycast-spheres sampling=0.5");
  // Names are unique (proxy/artifact separation).
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j)
      EXPECT_NE(points[i].spec.name, points[j].spec.name);
}

TEST(SpecConfig, XrageGridsAndVolumeKeys) {
  const auto points = parse_experiment_config(R"(
application xrage
grid 16x12x10 24x20x16
algorithm raycast-volume
isovalue 0.4
slices 3
nodes 4
ranks 2
)");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.xrage.dims, (Vec3i{16, 12, 10}));
  EXPECT_EQ(points[1].spec.xrage.dims, (Vec3i{24, 20, 16}));
  EXPECT_FLOAT_EQ(points[0].spec.viz.isovalue, 0.4f);
  EXPECT_EQ(points[0].spec.viz.num_slices, 3);
}

TEST(SpecConfig, ProxyDirEnablesDiskProxy) {
  const auto points = parse_experiment_config(
      "application hacc\nalgorithm vtk-points\nproxy_dir /tmp/x\nnodes 2\nranks 2\n");
  EXPECT_TRUE(points[0].spec.use_disk_proxy);
  EXPECT_EQ(points[0].spec.proxy_dir, "/tmp/x");
}

TEST(SpecConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse_experiment_config(""), Error);
  EXPECT_THROW(parse_experiment_config("bogus_key 3\n"), Error);
  EXPECT_THROW(parse_experiment_config("particles\n"), Error);
  EXPECT_THROW(parse_experiment_config("application klingon\n"), Error);
  EXPECT_THROW(parse_experiment_config("application hacc\nalgorithm warp\n"), Error);
  EXPECT_THROW(parse_experiment_config("application hacc\nimage_size 64\n"), Error);
  // Validation catches inconsistent expanded specs.
  EXPECT_THROW(parse_experiment_config(
                   "application xrage\nalgorithm vtk-points\nnodes 2\nranks 2\n"),
               Error);
  // A repeated key is an error naming the key, not a silent override.
  try {
    parse_experiment_config("application hacc\nnodes 4\nranks 2\nnodes 8\n");
    ADD_FAILURE() << "repeated key accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'nodes'"), std::string::npos) << e.what();
  }
}

TEST(SpecConfig, LoadFromFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eth_spec_config_test.cfg").string();
  {
    std::ofstream f(path);
    f << "application hacc\nalgorithm vtk-points\nparticles 500\nnodes 2\nranks 2\n";
  }
  const auto points = load_experiment_config(path);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].spec.hacc.num_particles, 500);
  std::filesystem::remove(path);
  EXPECT_THROW(load_experiment_config(path), Error);
}

TEST(SpecConfig, ReferenceMentionsEveryKey) {
  const std::string ref = experiment_config_reference();
  for (const char* key : {"application", "particles", "grid", "algorithm", "coupling",
                          "nodes", "sampling", "quantization_bits", "proxy_dir",
                          "pipeline_depth", "async"})
    EXPECT_NE(ref.find(key), std::string::npos) << key;
}

TEST(SpecConfig, UnknownKeySuggestsNearestMatch) {
  // Strict validation: a typo'd key fails loudly AND points at the fix.
  const auto message_for = [](const char* text) -> std::string {
    try {
      parse_experiment_config(text);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected a parse failure for: " << text;
    return "";
  };
  const std::string typo = message_for("couplng async\nnodes 2\nranks 2\n");
  EXPECT_NE(typo.find("unknown key 'couplng'"), std::string::npos) << typo;
  EXPECT_NE(typo.find("did you mean 'coupling'?"), std::string::npos) << typo;

  const std::string depth =
      message_for("application hacc\npipeline_deph 2\nnodes 2\nranks 2\n");
  EXPECT_NE(depth.find("did you mean 'pipeline_depth'?"), std::string::npos)
      << depth;

  // Nothing plausibly close: the error stays, the suggestion is omitted.
  const std::string junk = message_for("zzqqxxyy 1\nnodes 2\nranks 2\n");
  EXPECT_NE(junk.find("unknown key 'zzqqxxyy'"), std::string::npos) << junk;
  EXPECT_EQ(junk.find("did you mean"), std::string::npos) << junk;
}

TEST(SpecConfig, AsyncCouplingAndPipelineDepthSweep) {
  const auto points = parse_experiment_config(R"(
application hacc
algorithm vtk-points
coupling async
pipeline_depth 1 2 4
nodes 2
ranks 2
)");
  ASSERT_EQ(points.size(), 3u);
  for (const auto& point : points)
    EXPECT_EQ(point.spec.layout.coupling, cluster::Coupling::kAsync);
  EXPECT_EQ(points[0].spec.pipeline_depth, 1);
  EXPECT_EQ(points[1].spec.pipeline_depth, 2);
  EXPECT_EQ(points[2].spec.pipeline_depth, 4);
  EXPECT_EQ(points[1].label, "pipeline_depth=2");
  // Out-of-range depths are rejected by spec validation at parse time.
  EXPECT_THROW(parse_experiment_config("application hacc\nalgorithm vtk-points\n"
                                       "coupling async\npipeline_depth 99\n"
                                       "nodes 2\nranks 2\n"),
               Error);
}

} // namespace
} // namespace eth
