#include "core/spec_config.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace eth {

namespace {

insitu::VizAlgorithm algorithm_from_string(std::string_view name) {
  for (const auto algorithm :
       {insitu::VizAlgorithm::kRaycastSpheres, insitu::VizAlgorithm::kGaussianSplat,
        insitu::VizAlgorithm::kVtkPoints, insitu::VizAlgorithm::kVtkGeometry,
        insitu::VizAlgorithm::kRaycastVolume, insitu::VizAlgorithm::kRaycastDvr}) {
    if (name == insitu::to_string(algorithm)) return algorithm;
  }
  fail("experiment config: unknown algorithm '" + std::string(name) + "'");
}

SamplingMode sampling_mode_from_string(std::string_view name) {
  for (const auto mode : {SamplingMode::kBernoulli, SamplingMode::kStride,
                          SamplingMode::kStratified}) {
    if (name == to_string(mode)) return mode;
  }
  fail("experiment config: unknown sampling mode '" + std::string(name) + "'");
}

Vec3i parse_dims(std::string_view value) {
  const auto parts = split(value, 'x');
  require(parts.size() == 3,
          "experiment config: grid/image size must be AxBxC or AxB, got '" +
              std::string(value) + "'");
  return {parse_index(parts[0], "dims"), parse_index(parts[1], "dims"),
          parse_index(parts[2], "dims")};
}

/// A key's handler applies one string value to a spec.
using Applier = std::function<void(const std::string&, ExperimentSpec&)>;

const std::map<std::string, Applier>& appliers() {
  static const std::map<std::string, Applier> map = {
      {"name", [](const std::string& v, ExperimentSpec& s) { s.name = v; }},
      {"application",
       [](const std::string& v, ExperimentSpec& s) {
         if (v == "hacc")
           s.application = Application::kHacc;
         else if (v == "xrage")
           s.application = Application::kXrage;
         else
           fail("experiment config: unknown application '" + v + "'");
       }},
      {"particles",
       [](const std::string& v, ExperimentSpec& s) {
         s.hacc.num_particles = parse_index(v, "particles");
       }},
      {"halos",
       [](const std::string& v, ExperimentSpec& s) {
         s.hacc.num_halos = parse_index(v, "halos");
       }},
      {"grid",
       [](const std::string& v, ExperimentSpec& s) { s.xrage.dims = parse_dims(v); }},
      {"timesteps",
       [](const std::string& v, ExperimentSpec& s) {
         s.timesteps = parse_index(v, "timesteps");
       }},
      {"algorithm",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.algorithm = algorithm_from_string(v);
       }},
      {"coupling",
       [](const std::string& v, ExperimentSpec& s) {
         s.layout.coupling = cluster::coupling_from_string(v);
       }},
      {"nodes",
       [](const std::string& v, ExperimentSpec& s) {
         s.layout.nodes = static_cast<int>(parse_index(v, "nodes"));
       }},
      {"ranks",
       [](const std::string& v, ExperimentSpec& s) {
         s.layout.ranks = static_cast<int>(parse_index(v, "ranks"));
       }},
      {"viz_nodes",
       [](const std::string& v, ExperimentSpec& s) {
         s.layout.viz_nodes = static_cast<int>(parse_index(v, "viz_nodes"));
       }},
      {"sampling",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.sampling_ratio = parse_double(v, "sampling");
       }},
      {"sampling_mode",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.sampling_mode = sampling_mode_from_string(v);
       }},
      {"images",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.images_per_timestep = parse_index(v, "images");
       }},
      {"image_size",
       [](const std::string& v, ExperimentSpec& s) {
         const auto parts = split(v, 'x');
         require(parts.size() == 2, "experiment config: image_size must be WxH");
         s.viz.image_width = parse_index(parts[0], "image_size");
         s.viz.image_height = parse_index(parts[1], "image_size");
       }},
      {"isovalue",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.isovalue = Real(parse_double(v, "isovalue"));
       }},
      {"slices",
       [](const std::string& v, ExperimentSpec& s) {
         s.viz.num_slices = static_cast<int>(parse_index(v, "slices"));
       }},
      {"quantization_bits",
       [](const std::string& v, ExperimentSpec& s) {
         s.transport_quantization_bits =
             static_cast<int>(parse_index(v, "quantization_bits"));
       }},
      {"transport_codec",
       [](const std::string& v, ExperimentSpec& s) { s.transport_codec = v; }},
      {"pipeline_depth",
       [](const std::string& v, ExperimentSpec& s) {
         s.pipeline_depth = static_cast<int>(parse_index(v, "pipeline_depth"));
       }},
      {"data_scale",
       [](const std::string& v, ExperimentSpec& s) {
         s.data_scale = parse_double(v, "data_scale");
       }},
      {"pixel_scale",
       [](const std::string& v, ExperimentSpec& s) {
         s.pixel_scale = parse_double(v, "pixel_scale");
       }},
      {"core_speed_ratio",
       [](const std::string& v, ExperimentSpec& s) {
         s.machine.host_core_speed_ratio = parse_double(v, "core_speed_ratio");
       }},
      {"fault_seed",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.seed = static_cast<std::uint64_t>(parse_index(v, "fault_seed"));
       }},
      {"fault_bit_flip",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.p_bit_flip = parse_double(v, "fault_bit_flip");
       }},
      {"fault_truncate",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.p_truncate = parse_double(v, "fault_truncate");
       }},
      {"fault_recv_timeout",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.p_recv_timeout = parse_double(v, "fault_recv_timeout");
       }},
      {"fault_delay",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.p_delay = parse_double(v, "fault_delay");
       }},
      {"fault_delay_ms",
       [](const std::string& v, ExperimentSpec& s) {
         s.fault.delay_ms = parse_double(v, "fault_delay_ms");
       }},
      {"transfer_attempts",
       [](const std::string& v, ExperimentSpec& s) {
         s.transfer_retry.max_attempts =
             static_cast<int>(parse_index(v, "transfer_attempts"));
       }},
      {"artifact_dir",
       [](const std::string& v, ExperimentSpec& s) { s.artifact_dir = v; }},
      {"proxy_dir",
       [](const std::string& v, ExperimentSpec& s) {
         s.proxy_dir = v;
         s.use_disk_proxy = true;
       }},
  };
  return map;
}

} // namespace

std::vector<SweepPoint> parse_experiment_config(const std::string& text) {
  // Collect (key, values) in file order; multi-valued keys become sweep
  // dimensions in that same order.
  std::vector<std::pair<std::string, std::vector<std::string>>> entries;
  for (const std::string& raw : split(text, '\n')) {
    std::string line(trim(raw));
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = std::string(trim(line.substr(0, hash)));
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (appliers().count(key) != 1) {
      // Strict validation with a nearest-match hint: a typo'd key must
      // fail loudly (a silently ignored "couplng async" would quietly
      // run the wrong experiment), and the hint makes the fix obvious.
      std::string message = "experiment config: unknown key '" + key + "'";
      std::vector<std::string> known;
      known.reserve(appliers().size());
      for (const auto& [name, applier] : appliers()) known.push_back(name);
      const std::string suggestion = closest_match(key, known);
      if (!suggestion.empty())
        message += " (did you mean '" + suggestion + "'?)";
      fail(message);
    }
    std::vector<std::string> values;
    std::string value;
    while (is >> value) values.push_back(value);
    require(!values.empty(), "experiment config: key '" + key + "' has no value");
    entries.push_back({key, std::move(values)});
  }
  require(!entries.empty(), "experiment config: empty configuration");

  // Expand the Cartesian product of multi-valued keys.
  std::vector<SweepPoint> points;
  points.push_back({"", ExperimentSpec{}});
  points.back().spec.name = "config";
  for (const auto& [key, values] : entries) {
    const Applier& apply = appliers().at(key);
    if (values.size() == 1) {
      for (SweepPoint& point : points) apply(values[0], point.spec);
      continue;
    }
    std::vector<SweepPoint> expanded;
    expanded.reserve(points.size() * values.size());
    for (const SweepPoint& point : points) {
      for (const std::string& value : values) {
        SweepPoint next = point;
        apply(value, next.spec);
        if (!next.label.empty()) next.label += " ";
        next.label += key + "=" + value;
        expanded.push_back(std::move(next));
      }
    }
    points = std::move(expanded);
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].label.empty()) points[i].label = "run";
    // Unique spec names keep proxy/artifact files apart.
    points[i].spec.name += strprintf("-%zu", i);
    points[i].spec.validate();
  }
  return points;
}

std::vector<SweepPoint> load_experiment_config(const std::string& path) {
  std::ifstream f(path);
  require(f.good(), "cannot open experiment config '" + path + "'");
  std::ostringstream os;
  os << f.rdbuf();
  return parse_experiment_config(os.str());
}

std::string experiment_config_reference() {
  return "experiment config keys (multi-valued keys sweep):\n"
         "  name <str>                experiment name prefix\n"
         "  application hacc|xrage\n"
         "  particles <N...>          HACC particle count\n"
         "  halos <N>                 HACC halo count\n"
         "  grid <XxYxZ...>           xRAGE grid dims\n"
         "  timesteps <N>\n"
         "  algorithm <name...>       raycast-spheres gaussian-splat vtk-points\n"
         "                            vtk-geometry raycast-volume raycast-dvr\n"
         "  coupling <name...>        tight intercore internode async\n"
         "  nodes <N...>              modelled allocation size\n"
         "  ranks <N>                 measurement ranks\n"
         "  viz_nodes <N>             internode viz partition\n"
         "  sampling <R...>           spatial sampling ratio (0, 1]\n"
         "  sampling_mode bernoulli|stride|stratified\n"
         "  images <N>                images per timestep\n"
         "  image_size <WxH>\n"
         "  isovalue <R>\n"
         "  slices <N>\n"
         "  quantization_bits <B...>  transport compression (0 = off)\n"
         "  transport_codec <c...>    lossless wire compression (unset: ETH_WIRE_CODEC)\n"
         "  pipeline_depth <N...>     async timesteps in flight (unset: ETH_PIPELINE_DEPTH)\n"
         "  data_scale <R>            paper/executed workload ratio\n"
         "  pixel_scale <R>\n"
         "  core_speed_ratio <R>      modelled-core / host-core speed\n"
         "  fault_seed <N>            transport fault schedule seed\n"
         "  fault_bit_flip <P...>     per-frame bit-flip probability\n"
         "  fault_truncate <P...>     per-frame truncation probability\n"
         "  fault_recv_timeout <P...> per-frame recv-timeout probability\n"
         "  fault_delay <P>           per-frame injected-delay probability\n"
         "  fault_delay_ms <R>        mean injected delay\n"
         "  transfer_attempts <N>     coupling delivery retry budget\n"
         "  artifact_dir <path>       write composited PPMs\n"
         "  proxy_dir <path>          enable the disk dump/proxy cycle\n";
}

} // namespace eth
