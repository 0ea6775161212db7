#include "core/artifact_cache.hpp"

#include "common/knobs.hpp"

namespace eth {

ArtifactCache& global_artifact_cache() {
  // Leaked singleton: worker threads (read-ahead prefetch tasks) may
  // touch the cache during static destruction if it were destroyed.
  static ArtifactCache* cache = [] {
    auto* c = new ArtifactCache(Bytes(knobs::value(knobs::Knob::cache_bytes)));
    c->set_enabled(c->budget_bytes() != 0);
    return c;
  }();
  return *cache;
}

} // namespace eth
