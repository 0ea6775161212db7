#!/usr/bin/env bash
# Full pre-merge check: Release build + tests, then a ThreadSanitizer
# build + tests. The TSan variant is what guards the threading contract
# (DESIGN.md "Threading model"): every hot-path kernel fans out over the
# thread pool, so counter aggregation and image writes must stay
# race-free. Benches are skipped under TSan (they only add runtime, not
# coverage).
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_variant() {
  local dir="$1"
  shift
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== test ${dir} ===="
  ctest --test-dir "${dir}" --output-on-failure
}

run_variant build-release -DCMAKE_BUILD_TYPE=Release

# Cache-equivalence gate (DESIGN.md §10): the artifact cache memoizes
# proxy loads, filter outputs and render acceleration structures, and
# every one of those producers must be pure — a sweep renders
# bit-identical images with the cache off, cold, or warm. Run the gate
# by name so a filter typo can't silently skip it.
echo "==== cache equivalence (build-release) ===="
ctest --test-dir build-release --output-on-failure --no-tests=error -R 'CacheEquivalence'

# SimdGate (DESIGN.md §14): the lane layer promises every image,
# counter table and robustness row bit-identical across ETH_SIMD=scalar
# and native at any thread count. The suite carries per-kernel unit
# vectors (edge masks, tail elements, NaN payloads) plus HACC+xRAGE
# mini-sweeps memcmp'd scalar-vs-native at 1 and 8 threads; the tests
# pin the ISA internally, so one pass covers every dispatch path the
# host supports. Run it by name so a filter typo can't silently skip it.
echo "==== simd gate (build-release) ===="
ctest --test-dir build-release --output-on-failure --no-tests=error -R 'SimdGate'

# Trace gate (DESIGN.md §11): run a miniature faulted sweep end-to-end
# with ETH_TRACE on and validate the exported Chrome trace — JSON
# schema plus presence of a span from every pipeline phase (sim load,
# serialize, transport, filter, render, composite, cache, retries and
# the modelled-timeline projection). A missing name here means a layer
# lost its instrumentation. The socket-coupled transport path is
# covered by the e2e trace test, run here by name so a filter typo
# cannot silently skip it.
echo "==== trace gate (build-release) ===="
ctest --test-dir build-release --output-on-failure --no-tests=error \
  -R 'Trace.SocketCoupledExchangeTracesEveryTransportPhase'
trace_json="$(mktemp /tmp/eth_trace_gate.XXXXXX.json)"
ETH_TRACE="${trace_json}" ./build-release/tools/eth_explore tools/trace_gate.cfg
./build-release/tools/eth_trace_check "${trace_json}" \
  sim.load serialize deserialize transport.send transport.recv \
  transport.compress transport.decompress bytes_on_wire bytes_copied \
  bytes_borrowed transfer \
  transfer.retry filter.sample render.build render.raycast composite \
  pack_image chunk cache.miss cache_bytes model.generate model.viz \
  model.composite model.write
rm -f "${trace_json}"

# CodecGate (DESIGN.md §15): the wire codec promises bit-identical
# images and robustness counts with compression on or off, pristine
# (encode-once) retries under fault injection, classified rejection of
# truncated/corrupt compressed input, and pinned golden frames for both
# codecs. Run the codec, LZ and compression-hardening suites by name so
# a filter typo cannot silently skip them.
echo "==== codec gate (build-release) ===="
ctest --test-dir build-release --output-on-failure --no-tests=error \
  -R 'CodecEquivalence|LzCodec|GoldenWireFormat|QuantizePack|CompressDataset'

# TSan with a multi-worker pool even on small machines: a 1-worker pool
# runs loops inline and would hide every race from the sanitizer. The
# full suite includes the ArtifactCache concurrency/stress tests and the
# CacheEquivalence sweeps, which exercise the in-flight dedup and the
# pool-thread prefetch path under contention.
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_variant build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DETH_SANITIZE=thread -DETH_BUILD_BENCH=OFF -DETH_BUILD_EXAMPLES=OFF

# The tracer's lock-free per-thread buffers are exactly the kind of
# code TSan exists for — run the trace suites by name so they cannot be
# filtered out of the sanitized pass by accident.
echo "==== trace tests (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error -R 'Trace'

# SimdGate under TSan: the vector march and blend kernels run inside
# the same pool fan-out as the scalar paths, and the dispatch table is
# resolved once per process from the environment — the sanitizer
# confirms neither the per-ISA kernel tables nor the override hook
# introduce shared mutable state between pool workers.
echo "==== simd gate (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error -R 'SimdGate'

# CodecGate under TSan: frame compression runs on stage workers and
# rank threads concurrently, and the codec resolution (ETH_WIRE_CODEC)
# plus the run sink's wire counters are shared between threads — the
# sanitizer verifies the once-resolution and the atomic counter tees.
echo "==== codec gate (build-tsan) ===="
ETH_THREADS="${ETH_THREADS:-4}" TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error -R 'CodecEquivalence|LzCodec'

# SweepGate (DESIGN.md §12): the concurrent sweep scheduler promises
# bit-identical artifacts at any ETH_SWEEP_WORKERS, which means
# Harness::run must be fully re-entrant — per-run prefetch latches,
# per-run counter sinks, namespaced trace tracks, and a shared
# ArtifactCache whose in-flight dedup is hammered by concurrent points.
# Run the scheduler + equivalence + TaskGroup suites under TSan with a
# multi-worker pool AND multiple sweep workers, by name so a filter
# typo cannot silently skip them.
echo "==== sweep gate (build-tsan, ETH_SWEEP_WORKERS=4) ===="
ETH_THREADS="${ETH_THREADS:-4}" ETH_SWEEP_WORKERS="${ETH_SWEEP_WORKERS:-4}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'SweepScheduler|SweepEquivalence|TaskGroup'

# AsyncGate (DESIGN.md §13): the staged pipeline engine promises
# depth-1 bit-identity with the pre-refactor serial loop and
# depth-invariant artifacts under `coupling async` — and the bounded
# channels, in-flight limiter and slot ring it runs on are shared
# mutable state between stage workers and the rank thread, i.e. TSan
# territory. Run the pipeline + equivalence + accounting suites under
# TSan with a multi-worker pool, concurrent sweep workers AND an async
# pipeline depth exported into the environment, by name so a filter
# typo cannot silently skip them.
echo "==== async gate (build-tsan, ETH_PIPELINE_DEPTH=2) ===="
ETH_THREADS="${ETH_THREADS:-4}" ETH_SWEEP_WORKERS="${ETH_SWEEP_WORKERS:-2}" \
  ETH_PIPELINE_DEPTH="${ETH_PIPELINE_DEPTH:-2}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'PipelineEquivalence|StagePipeline|BoundedChannel|PhaseAccounting'

# Knob gate (DESIGN.md §19): --dry-run on the async gate sweep must
# print one line per ETH_KNOBS entry with its resolved value and source
# (the sweep's `pipeline_depth 2` shows as a spec pin), and an invalid
# knob value must fail the run with an error naming the variable.
echo "==== knob gate (build-release, dry run) ===="
knob_names="$(grep -oE '"ETH_[A-Z_]+"' src/common/knobs.hpp | tr -d '"')"
knob_lines="$(./build-release/tools/eth_explore --dry-run tools/async_gate.cfg |
  grep -E '^  ETH_[A-Z_]+ +[^ ]+ +(spec|override|env|default)$')"
for knob in ${knob_names}; do
  [ "$(grep -c "^  ${knob} " <<<"${knob_lines}")" -eq 1 ] ||
    { echo "knob gate: no single resolved line for ${knob}"; exit 1; }
done
[ "$(wc -l <<<"${knob_lines}")" -eq "$(wc -w <<<"${knob_names}")" ] ||
  { echo "knob gate: knob lines do not match the table"; exit 1; }
grep -qE '^  ETH_PIPELINE_DEPTH +2 +spec$' <<<"${knob_lines}" ||
  { echo "knob gate: pipeline_depth spec pin not reported"; exit 1; }
if knob_error="$(ETH_THREADS=four ./build-release/tools/eth_explore --dry-run \
  tools/async_gate.cfg 2>&1)"; then
  echo "knob gate: ETH_THREADS=four was accepted"; exit 1
fi
grep -q 'ETH_THREADS' <<<"${knob_error}" ||
  { echo "knob gate: error does not name ETH_THREADS: ${knob_error}"; exit 1; }

# Second half of the async gate, on the release build: run the gate
# sweep with ETH_TRACE on and require the pipeline's own
# instrumentation — `stage.queue_wait` spans and the per-stage
# `stage.*` occupancy counters — in the exported trace.
echo "==== async gate (build-release, traced async sweep) ===="
async_json="$(mktemp /tmp/eth_async_gate.XXXXXX.json)"
ETH_TRACE="${async_json}" ./build-release/tools/eth_explore tools/async_gate.cfg
./build-release/tools/eth_trace_check "${async_json}" \
  sim.load transfer filter.sample render.raycast composite pack_image \
  model.generate model.viz 'stage.queue_wait' 'stage.*'
rm -f "${async_json}"

# AddressSanitizer over the data/in-situ suites: the zero-copy data
# plane aliases receive buffers and peers' live arrays (common/buffer),
# so the lifetime contract — keepalives pin every borrowed span — is
# exactly what ASan's use-after-free detection verifies. The metric
# registry suites ride along: scoped run sinks are thread-local
# pointers to stack objects, the classic use-after-scope shape. So do
# the dump reader (untrusted header sizes) and the sphere BVH (its
# partition indexes records through collected offsets, and traversal
# writes a fixed-size stack). So do the HACC generator (workers write
# through raw pointers into uninitialized scratch and exact-size slab
# arrays), PointSet (subset gathers through raw spans after one range
# check) and Rng (the skip helpers the generator's schedule runs on).
# The variant also runs UndefinedBehaviorSanitizer (fatal on the first
# report), which is why Fingerprint (null source with an empty update)
# and Knobs (the strict parser's overflow arithmetic) ride along.
asan_variant() {
  local dir="build-asan"
  echo "==== configure ${dir} (address + undefined sanitizer) ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DETH_SANITIZE=address -DETH_BUILD_BENCH=OFF -DETH_BUILD_EXAMPLES=OFF
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== test ${dir} (data + insitu + buffer suites) ===="
  ctest --test-dir "${dir}" --output-on-failure --no-tests=error \
    -R 'Buffer|CowArray|DataPlane|WireMessage|PerfCounters|RunSink|Serialize|GoldenWireFormat|InProc|Socket|Fault|Frame|Transport|LzCodec|CodecEquivalence|QuantizePack|CompressDataset|XrageGenerator|GridBlockRange|VtkIo|DumpTest|SphereBVH|BvhProperty|HaccGenerator|PointSet|Rng|Fingerprint|Knobs'
}
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" asan_variant

echo "==== all checks passed ===="
