#include "core/artifact_cache.hpp"

#include <cstdlib>

namespace eth {

Bytes parse_cache_budget(const char* value) {
  if (value != nullptr) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end != value && *end == '\0') return Bytes(parsed);
  }
  return Bytes(512) << 20;
}

ArtifactCache& global_artifact_cache() {
  // Leaked singleton: worker threads (read-ahead prefetch tasks) may
  // touch the cache during static destruction if it were destroyed.
  static ArtifactCache* cache = [] {
    const Bytes budget = parse_cache_budget(std::getenv("ETH_CACHE_BYTES"));
    auto* c = new ArtifactCache(budget);
    c->set_enabled(budget != 0);
    return c;
  }();
  return *cache;
}

} // namespace eth
