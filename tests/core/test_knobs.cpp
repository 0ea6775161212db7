// The runtime knob table (common/knobs.hpp): every ETH_* knob parses
// strictly and resolves spec > override > env > default through one
// resolver, and the domain accessors and override hooks read it.

#include "common/knobs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/experiment.hpp"
#include "insitu/transport.hpp"

#include "../knob_env_guard.hpp"

namespace eth {
namespace {

using knobs::Kind;
using knobs::Knob;
using knobs::Source;

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

/// A valid spelling of value `v` in `form` (paths: any non-empty text).
std::string spelling(const knobs::Form& form, std::int64_t v) {
  if (form.kind == Kind::kPath) return v == form.hi ? "env.json" : "pin.json";
  if (form.kind == Kind::kInteger || form.kind == Kind::kBytes) return std::to_string(v);
  return form.names[v];
}

/// Inputs every non-path knob must reject: trailing characters and
/// whitespace, leading whitespace and sign, a negative number, a base
/// prefix, 64-bit overflow and one past either bound.
std::vector<std::string> invalid_inputs(const knobs::Form& form) {
  if (form.kind == Kind::kPath) return {};
  const std::string top = spelling(form, form.hi);
  return {top + "x",
          top + " ",
          " " + top,
          "+" + top,
          "3 ",
          " 3",
          "+3",
          "-1",
          "0x10",
          "18446744073709551616",
          std::to_string(form.lo - 1),
          std::to_string(static_cast<std::uint64_t>(form.hi) + 1)};
}

TEST(Knobs, EveryKnobParsesAndResolvesTheSameWay) {
  ASSERT_EQ(std::size(knobs::kKnobs), 8u);
  for (const knobs::KnobInfo& knob : knobs::kKnobs) {
    SCOPED_TRACE(knob.env);
    const Knob k = knob.knob;
    const knobs::Form& form = knob.form;
    const bool has_spec = knob.spec_key[0] != '\0';
    const KnobEnvGuard env(k);
    const std::string top = spelling(form, form.hi);
    const std::string bottom = spelling(form, form.lo);
    const std::int64_t top_value = form.kind == Kind::kPath ? 1 : form.hi;
    const std::int64_t bottom_value = form.kind == Kind::kPath ? 1 : form.lo;

    // Unset or empty: the default.
    env.set(nullptr);
    const knobs::Setting unset = knobs::resolve(k);
    EXPECT_EQ(unset.source, Source::kDefault);
    EXPECT_EQ(knobs::value(k), unset.value);
    env.set("");
    EXPECT_EQ(knobs::resolve(k).source, Source::kDefault);
    EXPECT_EQ(knobs::value(k), unset.value);

    // Invalid input throws an eth::Error naming the variable, whether
    // it arrives through the environment, an override or a spec key.
    for (const std::string& bad : invalid_inputs(form)) {
      SCOPED_TRACE("'" + bad + "'");
      env.set(bad.c_str());
      EXPECT_NE(error_of([&] { knobs::value(k); }).find(knob.env), std::string::npos);
      EXPECT_NE(error_of([&] { knobs::set_override(k, bad.c_str()); }).find(knob.env),
                std::string::npos);
      if (has_spec) {
        EXPECT_NE(error_of([&] { knobs::resolve(k, bad); }).find(knob.spec_key),
                  std::string::npos);
      }
    }

    // Both bounds parse.
    EXPECT_EQ(knobs::parse(k, top), top_value);
    EXPECT_EQ(knobs::parse(k, bottom), bottom_value);

    // env > default, cached on first read until the pin is dropped.
    env.set(top.c_str());
    knobs::Setting s = knobs::resolve(k);
    EXPECT_EQ(s.source, Source::kEnv);
    EXPECT_EQ(s.value, top_value);
    EXPECT_EQ(s.text, top);
    ::setenv(knob.env, bottom.c_str(), 1);
    EXPECT_EQ(knobs::resolve(k).text, top) << "re-read the environment uncached";
    env.set(top.c_str());

    // override > env; nullptr or "" drops the pin and re-reads the env.
    knobs::set_override(k, bottom.c_str());
    s = knobs::resolve(k);
    EXPECT_EQ(s.source, Source::kOverride);
    EXPECT_EQ(s.value, bottom_value);
    EXPECT_EQ(s.text, bottom);
    EXPECT_EQ(knobs::value(k), bottom_value);
    knobs::set_override(k, nullptr);
    EXPECT_EQ(knobs::resolve(k).source, Source::kEnv);
    EXPECT_EQ(knobs::value(k), top_value);
    knobs::set_override(k, bottom.c_str());
    knobs::set_override(k, "");
    EXPECT_EQ(knobs::resolve(k).source, Source::kEnv);

    // spec > override; an unset spec key falls through to the override.
    if (has_spec) {
      knobs::set_override(k, bottom.c_str());
      s = knobs::resolve(k, top);
      EXPECT_EQ(s.source, Source::kSpec);
      EXPECT_EQ(s.value, top_value);
      EXPECT_EQ(knobs::resolve(k, "").source, Source::kOverride);
    }
  }
}

// The codec, SIMD and model-debug hooks resolve through the table;
// ETH_THREADS, ETH_SWEEP_WORKERS, ETH_PIPELINE_DEPTH and ETH_CACHE_BYTES
// keep their accessor tests beside the code that reads them.
TEST(Knobs, AccessorsAndHooksResolveThroughTheTable) {
  {
    const KnobEnvGuard env(Knob::wire_codec);
    ExperimentSpec spec;
    env.set("lz4");
    EXPECT_EQ(insitu::resolved_wire_codec(), insitu::WireCodec::kLz4);
    insitu::set_wire_codec_override("none");
    EXPECT_EQ(spec.resolved_transport_codec(), insitu::WireCodec::kNone);
    spec.transport_codec = "lz4";
    EXPECT_EQ(spec.resolved_transport_codec(), insitu::WireCodec::kLz4);
    insitu::set_wire_codec_override(nullptr);
    EXPECT_EQ(insitu::resolved_wire_codec(), insitu::WireCodec::kLz4);
    EXPECT_STREQ(insitu::to_string(insitu::WireCodec::kLz4), "lz4");
    EXPECT_STREQ(insitu::to_string(insitu::WireCodec::kNone), "none");
  }
  {
    const KnobEnvGuard env(Knob::simd);
    simd::set_isa_override("scalar");
    EXPECT_EQ(knobs::resolve(Knob::simd).source, Source::kOverride);
    EXPECT_EQ(simd::isa_label(), "scalar");
    EXPECT_NE(error_of([] { simd::set_isa_override("avx3"); }).find("ETH_SIMD"),
              std::string::npos);
    EXPECT_EQ(simd::isa_label(), "scalar"); // a rejected pin changes nothing
    simd::set_isa_override(nullptr);
    EXPECT_NE(knobs::resolve(Knob::simd).source, Source::kOverride);
  }
  {
    const KnobEnvGuard env(Knob::model_debug);
    env.set("1");
    EXPECT_EQ(knobs::value(Knob::model_debug), 1);
    env.set("yes");
    EXPECT_THROW(knobs::value(Knob::model_debug), Error);
  }
}

// Reads race pins from other threads the way rank and sweep-worker
// threads race an override hook: every read sees a whole value.
TEST(Knobs, ConcurrentReadsDuringRepinSeeWholeValues) {
  const KnobEnvGuard env(Knob::sweep_workers);
  env.set("2");
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&] {
      while (!stop.load()) {
        const std::int64_t v = knobs::value(Knob::sweep_workers);
        EXPECT_TRUE(v == 2 || v == 7) << v;
        const knobs::Setting s = knobs::resolve(Knob::sweep_workers);
        EXPECT_TRUE(s.text == "2" || s.text == "7") << s.text;
      }
    });
  for (int i = 0; i < 200; ++i) knobs::set_override(Knob::sweep_workers, i % 2 ? "7" : nullptr);
  stop = true;
  for (std::thread& t : readers) t.join();
}

} // namespace
} // namespace eth
