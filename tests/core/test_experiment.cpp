#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/knobs.hpp"

#include "../knob_env_guard.hpp"

namespace eth {
namespace {

ExperimentSpec valid_hacc() {
  ExperimentSpec spec;
  spec.application = Application::kHacc;
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  spec.layout.nodes = 4;
  spec.layout.ranks = 2;
  return spec;
}

TEST(ExperimentSpec, ValidSpecPasses) {
  EXPECT_NO_THROW(valid_hacc().validate());
}

TEST(ExperimentSpec, RejectsAlgorithmDataMismatch) {
  ExperimentSpec spec = valid_hacc();
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkGeometry; // volume algo on HACC
  EXPECT_THROW(spec.validate(), Error);
  spec.application = Application::kXrage; // now consistent
  EXPECT_NO_THROW(spec.validate());
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsOversizedLayout) {
  ExperimentSpec spec = valid_hacc();
  spec.layout.nodes = spec.machine.total_nodes + 1;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsDegenerateCounts) {
  ExperimentSpec spec = valid_hacc();
  spec.timesteps = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.viz.images_per_timestep = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.name.clear();
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.layout.ranks = 100;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.use_disk_proxy = true;
  spec.proxy_dir.clear();
  EXPECT_THROW(spec.validate(), Error);
  // Sampling ratio must lie in (0, 1]; NaN must not slip past as "no
  // sampling" (the viz stage only samples when ratio < 1).
  for (const double ratio : {0.0, -0.5, 2.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    spec = valid_hacc();
    spec.viz.sampling_ratio = ratio;
    EXPECT_THROW(spec.validate(), Error) << "sampling ratio " << ratio;
  }
  spec = valid_hacc();
  spec.viz.sampling_ratio = 1.0;
  EXPECT_NO_THROW(spec.validate());
  spec = valid_hacc();
  spec.hacc.num_particles = -5;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsSubUnityScaleFactors) {
  ExperimentSpec spec = valid_hacc();
  spec.data_scale = 0.5;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.pixel_scale = 0.0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.data_scale = 125.0;
  spec.pixel_scale = 16.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(Application, Names) {
  EXPECT_STREQ(to_string(Application::kHacc), "hacc");
  EXPECT_STREQ(to_string(Application::kXrage), "xrage");
}

TEST(ExperimentSpec, PipelineDepthBounds) {
  ExperimentSpec spec = valid_hacc();
  spec.pipeline_depth = 0; // auto
  EXPECT_NO_THROW(spec.validate());
  spec.pipeline_depth = 32;
  EXPECT_NO_THROW(spec.validate());
  spec.pipeline_depth = 33;
  EXPECT_THROW(spec.validate(), Error);
  spec.pipeline_depth = -1;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, ResolvedPipelineDepthPrefersSpecOverEnvironment) {
  ExperimentSpec spec = valid_hacc();
  const KnobEnvGuard env(knobs::Knob::pipeline_depth);

  env.set("3");
  spec.pipeline_depth = 0;
  EXPECT_EQ(spec.resolved_pipeline_depth(), 3);
  spec.pipeline_depth = 2; // explicit spec value beats the environment
  EXPECT_EQ(spec.resolved_pipeline_depth(), 2);

  // Malformed or out-of-range environment values throw.
  spec.pipeline_depth = 0;
  for (const char* bad : {"banana", "0", "999"}) {
    env.set(bad);
    EXPECT_THROW(spec.resolved_pipeline_depth(), Error) << bad;
  }

  env.set(nullptr);
  EXPECT_EQ(spec.resolved_pipeline_depth(), 1);
}

TEST(SpecSummary, ListsEveryEffectiveValue) {
  ExperimentSpec spec = valid_hacc();
  spec.name = "summary-test";
  spec.fault.p_bit_flip = 0.25;
  spec.fault.seed = 42;
  const std::string text = spec_summary(spec);
  for (const char* needle :
       {"summary-test", "application", "hacc", "timesteps", "coupling",
        "nodes", "ranks", "fault", "bit_flip=0.25", "seed=42"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  // pipeline_depth only appears for the async coupling.
  EXPECT_EQ(text.find("pipeline_depth"), std::string::npos);
  spec.layout.coupling = cluster::Coupling::kAsync;
  spec.pipeline_depth = 2;
  EXPECT_NE(spec_summary(spec).find("pipeline_depth  2"), std::string::npos);
}

} // namespace
} // namespace eth
