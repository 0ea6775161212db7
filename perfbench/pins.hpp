#pragma once
// Pinned reference outputs at the benchmark's default seed: per design
// point, the final-image fingerprint and the deterministic counters
// (names in eth_perfbench.cpp, kSignatureNames). The repository's
// contracts make them bit-identical across threads, SIMD ISA, codec
// and cache (DESIGN.md §9-§15), so a mismatch is a defect, not noise.
// Regenerate with `eth_perfbench --print-pins` only when a change is
// meant to alter images or counters.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kSignatureLength = 16;
using Signature = std::array<std::uint64_t, kSignatureLength>;

inline const std::map<std::string, std::vector<Signature>> kPins = {
    {"hacc-internode-lz4", {
        {17515454363989770994ull, 32255613ull, 4ull, 4ull, 72000000ull, 37055613ull, 1986432ull, 0ull, 1048576ull, 0ull, 23909382ull, 4731598174267550099ull, 38400000ull, 0ull, 20971776ull, 0ull},
    }},
    {"xrage-geometry-async", {
        {15376119876276579108ull, 49175112ull, 12ull, 12ull, 0ull, 98348376ull, 7252277ull, 1092610ull, 0ull, 0ull, 0ull, 4729557793328070656ull, 187135920ull, 9904032ull, 62915328ull, 0ull},
    }},
    {"hacc-sweep-warm", {
        {17718376355212470920ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 436788ull, 0ull, 262144ull, 0ull, 4504530ull, 4722366562480599196ull, 9782912ull, 0ull, 5242944ull, 0ull},
        {8429740306030678781ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 590165ull, 0ull, 262144ull, 0ull, 3572748ull, 4718996962943487004ull, 14690976ull, 4908064ull, 5242944ull, 0ull},
        {9453670387654328354ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 513122ull, 0ull, 262144ull, 0ull, 2832828ull, 4716146288745008534ull, 12225600ull, 2442688ull, 5242944ull, 0ull},
        {2025341318144455752ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 742504ull, 611432ull, 0ull, 0ull, 0ull, 4716408737126940672ull, 19565824ull, 0ull, 5242944ull, 0ull},
        {6385566574043527357ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 743542ull, 306754ull, 0ull, 0ull, 0ull, 4712366028292620288ull, 19599040ull, 4908064ull, 5242944ull, 0ull},
        {5093100180442375710ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 589456ull, 152668ull, 0ull, 0ull, 0ull, 4708479192411406336ull, 14668288ull, 2442688ull, 5242944ull, 0ull},
        {15571914363061531976ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 742504ull, 611432ull, 0ull, 0ull, 0ull, 4717400780083036160ull, 19565824ull, 0ull, 5242944ull, 0ull},
        {17062351884936662917ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 743542ull, 306754ull, 0ull, 0ull, 0ull, 4712989840080109568ull, 19599040ull, 4908064ull, 5242944ull, 0ull},
        {14674660338400289231ull, 9783118ull, 2ull, 2ull, 9782912ull, 19566030ull, 589456ull, 152668ull, 0ull, 0ull, 0ull, 4708596526622965760ull, 14668288ull, 2442688ull, 5242944ull, 0ull},
    }},
};

} // namespace perfbench
