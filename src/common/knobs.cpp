#include "common/knobs.hpp"

#include <charconv>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace eth::knobs {

#define ETH_KNOB_UNRESOLVED(...) -1,
constinit std::atomic<std::int64_t> detail::g_values[std::size(kKnobs)] = {
    ETH_KNOBS(ETH_KNOB_UNRESOLVED)};
#undef ETH_KNOB_UNRESOLVED

namespace {

struct Cell {
  std::string pin, text; ///< pin "" = not pinned
  Source source = Source::kDefault;
};

std::mutex g_mutex; // guards the cells and every g_values store

Cell& cell(Knob k) {
  static Cell* const cells = new Cell[std::size(kKnobs)]; // leaked: exit-safe
  return cells[static_cast<int>(k)];
}

} // namespace

std::int64_t parse(Knob k, std::string_view text, std::string_view who) {
  const Form& form = info(k).form;
  if (form.kind == Kind::kPath && !text.empty()) return 1;
  if (form.kind == Kind::kInteger || form.kind == Kind::kBytes) {
    // Unsigned from_chars: a sign, whitespace, base prefix, trailing text or overflow fails.
    std::uint64_t n = 0;
    const char* end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, n);
    if (err == std::errc() && stop == end && n >= std::uint64_t(form.lo) &&
        n <= std::uint64_t(form.hi))
      return static_cast<std::int64_t>(n);
  }
  std::string expected = form.kind == Kind::kPath ? "a non-empty path" : "one of";
  for (int i = 0; form.names[0] != nullptr && i <= form.hi; ++i) {
    if (text == form.names[i]) return i;
    expected.append(i == 0 ? " " : "|").append(form.names[i]);
  }
  if (form.kind == Kind::kInteger || form.kind == Kind::kBytes)
    expected = strprintf("%s in [%lld, %lld]",
                         form.kind == Kind::kBytes ? "a decimal byte count" : "an integer",
                         static_cast<long long>(form.lo), static_cast<long long>(form.hi));
  fail(strprintf("%s: invalid value '%.*s' (expected %s)",
                 std::string(who.empty() ? info(k).env : who).c_str(),
                 static_cast<int>(text.size()), text.data(), expected.c_str()));
}

Setting resolve(Knob k, std::string_view spec_text) {
  if (!spec_text.empty())
    return {parse(k, spec_text, info(k).spec_key), Source::kSpec, std::string(spec_text)};
  std::lock_guard<std::mutex> lock(g_mutex);
  std::atomic<std::int64_t>& cached = detail::g_values[static_cast<int>(k)];
  Cell& c = cell(k);
  if (cached.load(std::memory_order_relaxed) < 0) {
    const char* env = std::getenv(info(k).env);
    c.text = !c.pin.empty() ? c.pin : env != nullptr ? env : "";
    c.source = !c.pin.empty() ? Source::kOverride : c.text.empty() ? Source::kDefault : Source::kEnv;
    cached.store(c.text.empty() ? info(k).fallback() : parse(k, c.text), std::memory_order_release);
  }
  return {cached.load(std::memory_order_relaxed), c.source, c.text};
}

void set_override(Knob k, const char* text) {
  const std::string pin = text != nullptr ? text : "";
  if (!pin.empty()) parse(k, pin, std::string(info(k).env) + " override");
  std::lock_guard<std::mutex> lock(g_mutex);
  cell(k).pin = pin;
  detail::g_values[static_cast<int>(k)].store(-1, std::memory_order_release);
}

} // namespace eth::knobs
