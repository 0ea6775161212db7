#pragma once
// Scoped control of one ETH_* knob's environment variable for the knob
// tests (common/knobs.hpp): set or unset the variable and drop the
// knob's pin and cached value, restoring both on scope exit.

#include <cstdlib>
#include <optional>
#include <string>

#include "common/knobs.hpp"

namespace eth {

/// Saves a knob's environment variable; restores it and drops any pin
/// on scope exit, so each case leaves the process as it found it.
class KnobEnvGuard {
public:
  explicit KnobEnvGuard(knobs::Knob knob) : knob_(knob), env_(knobs::info(knob).env) {
    if (const char* v = std::getenv(env_)) saved_ = v;
  }
  ~KnobEnvGuard() {
    set(saved_ ? saved_->c_str() : nullptr);
  }
  KnobEnvGuard(const KnobEnvGuard&) = delete;
  KnobEnvGuard& operator=(const KnobEnvGuard&) = delete;

  /// Set (nullptr: unset) the variable, then drop the pin and the
  /// cached value so the next read sees it.
  void set(const char* value) const {
    if (value != nullptr)
      ::setenv(env_, value, 1);
    else
      ::unsetenv(env_);
    knobs::set_override(knob_, nullptr);
  }

private:
  knobs::Knob knob_;
  const char* env_;
  std::optional<std::string> saved_;
};

} // namespace eth
