#include "common/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/simd.hpp"

namespace eth::trace {

namespace detail {
std::atomic<bool> g_enabled{knobs::value(knobs::Knob::trace) != 0};
} // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

// --------------------------------------------------- per-thread buffer

namespace {

constexpr std::size_t kBlockEvents = 1024;

// Append-only event storage for ONE thread. The owning thread is the
// only writer; it fills the slot first and then publishes it with a
// release store of count_, so a reader that acquire-loads count_ sees
// fully written events for every index below it. Block `next` pointers
// are plain: the owner links a block before publishing any event in
// it, so the same release/acquire pair on count_ orders them too.
// reset() (any thread) just advances trim_; storage is never freed
// while the process lives, because pool workers hold their pointer in
// a thread_local for their whole lifetime.
class ThreadTraceBuffer {
public:
  explicit ThreadTraceBuffer(std::uint32_t tid) : tid_(tid) {
    head_ = std::make_unique<Block>();
    tail_ = head_.get();
  }

  std::uint32_t tid() const { return tid_; }

  void append(const TraceEvent& event) { // owner thread only
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (tail_count_ == kBlockEvents) {
      tail_->next = std::make_unique<Block>();
      tail_ = tail_->next.get();
      tail_count_ = 0;
    }
    tail_->events[tail_count_++] = event;
    count_.store(n + 1, std::memory_order_release);
  }

  void collect(std::vector<TraceEvent>& out) const { // any thread
    const std::size_t count = count_.load(std::memory_order_acquire);
    const std::size_t trim = trim_.load(std::memory_order_relaxed);
    const Block* block = head_.get();
    std::size_t base = 0; // first event index stored in `block`
    for (std::size_t i = trim; i < count; ++i) {
      while (i >= base + kBlockEvents) {
        block = block->next.get();
        base += kBlockEvents;
      }
      out.push_back(block->events[i - base]);
    }
  }

  void trim() { // any thread
    trim_.store(count_.load(std::memory_order_acquire),
                std::memory_order_relaxed);
  }

private:
  struct Block {
    std::array<TraceEvent, kBlockEvents> events;
    std::unique_ptr<Block> next;
  };

  std::uint32_t tid_;
  std::unique_ptr<Block> head_;
  Block* tail_ = nullptr;         // owner only
  std::size_t tail_count_ = 0;    // owner only
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> trim_{0};
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry(); // leaked: outlives all threads
  return *r;
}

ThreadTraceBuffer& local_buffer() {
  thread_local ThreadTraceBuffer* buffer = [] {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadTraceBuffer>(
        static_cast<std::uint32_t>(r.buffers.size())));
    return r.buffers.back().get();
  }();
  return *buffer;
}

thread_local std::int32_t t_track = kHostTrack;

} // namespace

// ---------------------------------------------------------- track scope

std::int32_t current_track() { return t_track; }

TrackScope::TrackScope(std::int32_t track) : saved_(t_track) {
  t_track = track;
}

TrackScope::~TrackScope() { t_track = saved_; }

// ------------------------------------------------------------- emission

namespace detail {
void emit(const TraceEvent& event) {
  ThreadTraceBuffer& buffer = local_buffer();
  TraceEvent e = event;
  e.track = t_track;
  e.tid = buffer.tid();
  buffer.append(e);
}
} // namespace detail

void emit_span_at(const char* name, std::int32_t track, std::int64_t ts_ns,
                  std::int64_t dur_ns) {
  if (!enabled()) return;
  ThreadTraceBuffer& buffer = local_buffer();
  TraceEvent e;
  e.name = name;
  e.type = EventType::kSpan;
  e.track = track;
  e.tid = buffer.tid();
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  buffer.append(e);
}

// ------------------------------------------------------- flush / export

std::vector<TraceEvent> snapshot() {
  std::vector<TraceEvent> events;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& buffer : r.buffers) buffer->collect(events);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns; // parents before children
            });
  return events;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buffer : r.buffers) buffer->trim();
}

namespace {

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

std::string track_name(std::int32_t track) {
  // The host track carries the resolved SIMD ISA so every trace (and
  // the CSVs derived from it) is attributable to the lane width that
  // produced it, like ETH_THREADS is visible via the worker tracks.
  if (track == kHostTrack) return "host [simd=" + simd::isa_label() + "]";
  // Decode the sweep-point namespacing (kSweepTrackStride): point 0
  // keeps the bare "rank R" / "model node N" names so single runs and
  // pre-sweep traces read unchanged.
  if (track >= kModelTrackBase) {
    const std::int32_t n = track - kModelTrackBase;
    const std::int32_t point = n / kSweepTrackStride;
    const std::int32_t node = n % kSweepTrackStride;
    if (point == 0) return "model node " + std::to_string(node);
    return "point " + std::to_string(point) + " model node " +
           std::to_string(node);
  }
  const std::int32_t point = track / kSweepTrackStride;
  const std::int32_t rank = track % kSweepTrackStride;
  if (point == 0) return "rank " + std::to_string(rank);
  return "point " + std::to_string(point) + " rank " + std::to_string(rank);
}

void append_common_fields(std::string& out, const TraceEvent& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"pid\":%d,\"tid\":%u",
                static_cast<double>(e.ts_ns) / 1000.0, e.track, e.tid);
  out += buf;
}

} // namespace

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = snapshot();

  // One process_name metadata event per distinct track so Perfetto
  // shows "rank 0", "host", "model node 1" instead of bare pids.
  std::vector<std::int32_t> tracks;
  for (const TraceEvent& e : events) tracks.push_back(e.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const std::int32_t track : tracks) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(track);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_json_escaped(out, track_name(track).c_str());
    out += "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    switch (e.type) {
    case EventType::kSpan: {
      out += "{\"ph\":\"X\",\"name\":\"";
      append_json_escaped(out, e.name);
      out += "\",";
      append_common_fields(out, e);
      char buf[48];
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(e.dur_ns) / 1000.0);
      out += buf;
      out += '}';
      break;
    }
    case EventType::kCounter: {
      out += "{\"ph\":\"C\",\"name\":\"";
      append_json_escaped(out, e.name);
      out += "\",";
      append_common_fields(out, e);
      char buf[64];
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.17g}", e.value);
      out += buf;
      out += '}';
      break;
    }
    case EventType::kInstant: {
      out += "{\"ph\":\"i\",\"name\":\"";
      append_json_escaped(out, e.name);
      out += "\",";
      append_common_fields(out, e);
      out += ",\"s\":\"t\"}";
      break;
    }
    }
  }
  out += "]}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  require(f != nullptr, "trace: cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  require(written == json.size() && close_rc == 0,
          "trace: short write to " + path);
}

std::vector<SummaryRow> summary() {
  const std::vector<TraceEvent> events = snapshot();
  std::map<std::string, SummaryRow> rows;
  for (const TraceEvent& e : events) {
    SummaryRow& row = rows[e.name];
    if (row.name.empty()) {
      row.name = e.name;
      row.type = e.type;
    }
    row.count += 1;
    if (e.type == EventType::kSpan) row.total_ns += e.dur_ns;
  }
  std::vector<SummaryRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

} // namespace eth::trace
