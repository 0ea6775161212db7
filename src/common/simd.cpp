#include "common/simd.hpp"

#include <atomic>
#include <mutex>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/simd_kernels.hpp"

namespace eth::simd {
namespace {

// Published dispatch table: kUnresolved until first use, nullptr for
// scalar, else the vector table. Stores happen under g_mutex.
const KernelTable kUnresolved{};
std::atomic<const KernelTable*> g_table{&kUnresolved};
std::mutex g_mutex;

bool avx2_available() {
#if defined(__x86_64__) || defined(__i386__)
  return kernels_w8() != nullptr && __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// The table for an ETH_SIMD choice index (scalar|sse2|avx2|native).
const KernelTable* table_for(std::int64_t choice) {
  if (choice == 3) return avx2_available() ? kernels_w8() : kernels_w4();
  require(choice != 2 || avx2_available(),
          "ETH_SIMD=avx2 requested but this build/CPU has no AVX2 (use sse2 or native)");
  return choice == 0 ? nullptr : choice == 1 ? kernels_w4() : kernels_w8();
}

} // namespace

void set_isa_override(const char* name) {
  if (name != nullptr && name[0] != '\0')
    table_for(knobs::parse(knobs::Knob::simd, name, "ETH_SIMD override"));
  std::lock_guard<std::mutex> lock(g_mutex);
  knobs::set_override(knobs::Knob::simd, name);
  g_table.store(table_for(knobs::value(knobs::Knob::simd)), std::memory_order_release);
}

const KernelTable* active_kernels() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table != &kUnresolved) return table;
  std::lock_guard<std::mutex> lock(g_mutex);
  table = g_table.load(std::memory_order_relaxed);
  if (table == &kUnresolved) {
    table = table_for(knobs::value(knobs::Knob::simd));
    g_table.store(table, std::memory_order_release);
  }
  return table;
}

std::string isa_label() {
  const KernelTable* table = active_kernels();
  return table != nullptr ? table->name : "scalar";
}

} // namespace eth::simd
