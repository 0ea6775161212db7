#include "common/timer.hpp"

#include <cstring>

#include "common/error.hpp"

namespace eth {

void PhaseTimer::add(const char* name, double seconds) {
  for (int i = 0; i < count_; ++i) {
    if (std::strcmp(entries_[i].name, name) == 0) {
      entries_[i].seconds += seconds;
      return;
    }
  }
  require(count_ < kMaxPhases, "PhaseTimer: too many distinct phases");
  entries_[count_++] = Entry{name, seconds};
}

double PhaseTimer::total() const {
  double s = 0;
  for (int i = 0; i < count_; ++i) s += entries_[i].seconds;
  return s;
}

double PhaseTimer::get(const char* name) const {
  for (int i = 0; i < count_; ++i)
    if (std::strcmp(entries_[i].name, name) == 0) return entries_[i].seconds;
  return 0.0;
}

void PhaseTimer::merge(const PhaseTimer& other) {
  for (int i = 0; i < other.count_; ++i)
    if (other.entries_[i].seconds > 0) add(other.entries_[i].name, other.entries_[i].seconds);
}

void PhaseTimer::clear() { count_ = 0; }

} // namespace eth
