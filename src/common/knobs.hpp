#pragma once
// The runtime knob table (DESIGN.md §19). ETH_KNOBS is the ONE
// declaration of every ETH_* environment knob: X(id, env, form,
// fallback, spec_key, hook) gives the accepted form, the default (a
// choice's index), the spec key that pins it per experiment and the
// override hook ("" = none). Every knob resolves spec > override > env
// > default; any value that does not match its form throws eth::Error.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace eth::knobs {

enum class Kind { kInteger, kBytes, kChoice, kFlag, kPath };

/// Inclusive bounds [lo, hi] (choices: the index range) and the choice/flag spellings.
struct Form { Kind kind; std::int64_t lo = 0, hi = 0; const char* names[4] = {}; };

constexpr Form integer(std::int64_t lo, std::int64_t hi) { return {Kind::kInteger, lo, hi}; }
constexpr Form choice(const char* a, const char* b, const char* c = nullptr,
                      const char* d = nullptr) {
  return {Kind::kChoice, 0, c == nullptr ? 1 : d == nullptr ? 2 : 3, {a, b, c, d}};
}
inline constexpr Form kByteCount{Kind::kBytes, 0, INT64_MAX};
inline constexpr Form kOnOff{Kind::kFlag, 0, 1, {"0", "1"}};
inline constexpr Form kFilePath{Kind::kPath, 0, 1};

// clang-format off
#define ETH_KNOBS(X)                                                                                              \
  X(threads, "ETH_THREADS", integer(1, 4096), std::max(1u, std::thread::hardware_concurrency()), "",              \
    "set_global_pool")                                                                                            \
  X(simd, "ETH_SIMD", choice("scalar", "sse2", "avx2", "native"), 3, "", "simd::set_isa_override")                \
  X(wire_codec, "ETH_WIRE_CODEC", choice("none", "lz4"), 0, "transport_codec", "insitu::set_wire_codec_override") \
  X(sweep_workers, "ETH_SWEEP_WORKERS", integer(1, 256), 1, "", "set_sweep_worker_override")                      \
  X(pipeline_depth, "ETH_PIPELINE_DEPTH", integer(1, 32), 1, "pipeline_depth", "")                                \
  X(cache_bytes, "ETH_CACHE_BYTES", kByteCount, 512LL << 20, "", "ArtifactCache::set_budget_bytes")               \
  X(trace, "ETH_TRACE", kFilePath, 0, "", "trace::set_enabled")                                                   \
  X(model_debug, "ETH_MODEL_DEBUG", kOnOff, 0, "", "")
// clang-format on

#define ETH_KNOB_ID(id, ...) id,
enum class Knob { ETH_KNOBS(ETH_KNOB_ID) };
#undef ETH_KNOB_ID

struct KnobInfo {
  Knob knob;
  const char* env;
  Form form;
  std::int64_t (*fallback)();
  const char* spec_key;
  const char* hook;
};

#define ETH_KNOB_INFO(id, env, form, fallback, spec_key, hook) \
  {Knob::id, env, form, +[]() -> std::int64_t { return fallback; }, spec_key, hook},
inline constexpr KnobInfo kKnobs[] = {ETH_KNOBS(ETH_KNOB_INFO)};
#undef ETH_KNOB_INFO

inline const KnobInfo& info(Knob k) { return kKnobs[static_cast<int>(k)]; }

enum class Source { kDefault, kEnv, kOverride, kSpec };

struct Setting { std::int64_t value; Source source; std::string text; }; ///< text "" = default

/// `text` checked against k's form; the error names `who` (default: env).
std::int64_t parse(Knob k, std::string_view text, std::string_view who = {});

/// `spec_text` (the spec key's value, "" = unset) wins over the cached process value.
Setting resolve(Knob k, std::string_view spec_text = {});

/// Pin the process value; nullptr or "" unpins, so the next read re-reads the env.
void set_override(Knob k, const char* text);

namespace detail {
extern std::atomic<std::int64_t> g_values[std::size(kKnobs)]; ///< -1 = unresolved
} // namespace detail

/// The cached process value: a single acquire load once resolved.
inline std::int64_t value(Knob k) {
  const std::int64_t v = detail::g_values[static_cast<int>(k)].load(std::memory_order_acquire);
  return v >= 0 ? v : resolve(k).value;
}

} // namespace eth::knobs
