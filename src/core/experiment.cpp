#include "core/experiment.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace eth {

const char* to_string(Application app) {
  return app == Application::kHacc ? "hacc" : "xrage";
}

std::string ExperimentSpec::knob_setting(knobs::Knob knob) const {
  if (knob == knobs::Knob::pipeline_depth && pipeline_depth != 0)
    return std::to_string(pipeline_depth);
  return knob == knobs::Knob::wire_codec ? transport_codec : std::string();
}

int ExperimentSpec::resolved_pipeline_depth() const {
  const auto knob = knobs::Knob::pipeline_depth;
  return static_cast<int>(knobs::resolve(knob, knob_setting(knob)).value);
}

insitu::WireCodec ExperimentSpec::resolved_transport_codec() const {
  const auto knob = knobs::Knob::wire_codec;
  return static_cast<insitu::WireCodec>(knobs::resolve(knob, knob_setting(knob)).value);
}

void ExperimentSpec::validate() const {
  require(!name.empty(), "ExperimentSpec: name must not be empty");
  require(timesteps > 0, "ExperimentSpec: need at least one timestep");
  layout.validate();
  machine.validate();
  require(layout.nodes <= machine.total_nodes,
          "ExperimentSpec: layout requests more nodes than the machine has");
  require(layout.ranks >= 1, "ExperimentSpec: need at least one measurement rank");
  require(layout.ranks <= 64,
          "ExperimentSpec: more than 64 measurement ranks is never useful");
  require(viz.images_per_timestep > 0, "ExperimentSpec: images_per_timestep > 0");
  require(data_scale >= 1.0 && pixel_scale >= 1.0,
          "ExperimentSpec: scale factors must be >= 1 (paper scale / executed scale)");
  const bool particle = insitu::is_particle_algorithm(viz.algorithm);
  require(particle == (application == Application::kHacc),
          "ExperimentSpec: algorithm does not match the application's data kind");
  require(transport_quantization_bits == 0 ||
              (transport_quantization_bits >= 1 && transport_quantization_bits <= 24),
          "ExperimentSpec: quantization bits must be 0 (off) or in [1, 24]");
  if (use_disk_proxy)
    require(!proxy_dir.empty(), "ExperimentSpec: disk proxy needs proxy_dir");
  for (const double p : {fault.p_connect_refused, fault.p_recv_timeout,
                         fault.p_truncate, fault.p_bit_flip, fault.p_delay})
    require(p >= 0.0 && p <= 1.0,
            "ExperimentSpec: fault probabilities must be in [0, 1]");
  require(fault.delay_ms >= 0.0, "ExperimentSpec: fault delay must be >= 0");
  require(transfer_retry.max_attempts >= 1,
          "ExperimentSpec: transfer retry budget must be >= 1 attempt");
  require(transfer_retry.recv_deadline_seconds > 0,
          "ExperimentSpec: transfer recv deadline must be positive");
  for (const knobs::KnobInfo& knob : knobs::kKnobs) // spec keys parse like their knobs
    if (!knob_setting(knob.knob).empty()) knobs::resolve(knob.knob, knob_setting(knob.knob));
}

std::string spec_summary(const ExperimentSpec& spec) {
  std::ostringstream os;
  os << "name            " << spec.name << '\n';
  os << "application     " << to_string(spec.application) << '\n';
  if (spec.application == Application::kHacc) {
    os << "particles       " << spec.hacc.num_particles << '\n';
    os << "halos           " << spec.hacc.num_halos << '\n';
  } else {
    os << "grid            " << spec.xrage.dims.x << 'x' << spec.xrage.dims.y
       << 'x' << spec.xrage.dims.z << '\n';
  }
  os << "timesteps       " << spec.timesteps << '\n';
  os << "algorithm       " << insitu::to_string(spec.viz.algorithm) << '\n';
  os << "sampling        " << spec.viz.sampling_ratio << " ("
     << to_string(spec.viz.sampling_mode) << ")\n";
  os << "images          " << spec.viz.images_per_timestep << " @ "
     << spec.viz.image_width << 'x' << spec.viz.image_height << '\n';
  os << "coupling        " << cluster::to_string(spec.layout.coupling) << '\n';
  if (spec.layout.coupling == cluster::Coupling::kAsync)
    os << "pipeline_depth  " << spec.resolved_pipeline_depth() << '\n';
  os << "nodes           " << spec.layout.nodes << '\n';
  os << "ranks           " << spec.layout.ranks << '\n';
  if (spec.layout.coupling == cluster::Coupling::kInternode)
    os << "viz_nodes       " << spec.layout.viz_node_count() << '\n';
  if (spec.transport_quantization_bits > 0)
    os << "quantization    " << spec.transport_quantization_bits << " bits\n";
  if (spec.resolved_transport_codec() != insitu::WireCodec::kNone)
    os << "transport_codec " << insitu::to_string(spec.resolved_transport_codec()) << '\n';
  os << "data_scale      " << spec.data_scale << '\n';
  os << "pixel_scale     " << spec.pixel_scale << '\n';
  if (spec.fault.any()) {
    os << strprintf("fault           seed=%llu bit_flip=%g truncate=%g "
                    "recv_timeout=%g delay=%g delay_ms=%g\n",
                    static_cast<unsigned long long>(spec.fault.seed),
                    spec.fault.p_bit_flip, spec.fault.p_truncate,
                    spec.fault.p_recv_timeout, spec.fault.p_delay,
                    spec.fault.delay_ms);
    os << "retry_attempts  " << spec.transfer_retry.max_attempts << '\n';
  }
  if (spec.use_disk_proxy) os << "proxy_dir       " << spec.proxy_dir << '\n';
  if (!spec.artifact_dir.empty())
    os << "artifact_dir    " << spec.artifact_dir << '\n';
  return os.str();
}

} // namespace eth
