#include "insitu/fault.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/trace.hpp"

namespace eth::insitu {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kConnectRefused: return "connect-refused";
    case FaultKind::kRecvTimeout: return "recv-timeout";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kDelay: return "delay";
  }
  return "?";
}

// -------------------------------------------------------- FaultSchedule

namespace {

// Stream ids keep the send/recv/connect schedules of one endpoint
// independent: querying one never perturbs another.
constexpr std::uint64_t kSendStream = 0x5e9d;
constexpr std::uint64_t kRecvStream = 0x4ecf;
constexpr std::uint64_t kConnectStream = 0xc099;

} // namespace

FaultSchedule::FaultSchedule(FaultConfig config, std::uint64_t endpoint_id)
    : config_(config), endpoint_seed_(derive_seed(config.seed, endpoint_id)) {}

FaultEvent FaultSchedule::draw(std::uint64_t stream, Index message) const {
  // A fresh Rng per (stream, message) makes each event a pure function
  // of the seed: schedules are bit-reproducible no matter how many
  // events are queried, in what order, or from which thread.
  Rng rng(derive_seed(derive_seed(endpoint_seed_, stream),
                      static_cast<std::uint64_t>(message)));
  FaultEvent event;
  event.message = message;
  const double u = rng.uniform();
  // Fixed draw order below — changing it changes every schedule, which
  // the reproducibility tests would catch.
  event.site = rng.next_u64();
  const double delay_scale = rng.uniform(0.5, 1.5);

  if (stream == kConnectStream) {
    if (u < config_.p_connect_refused) event.kind = FaultKind::kConnectRefused;
    return event;
  }
  if (stream == kRecvStream) {
    if (u < config_.p_recv_timeout) event.kind = FaultKind::kRecvTimeout;
    return event;
  }
  double edge = config_.p_truncate;
  if (u < edge) {
    event.kind = FaultKind::kTruncate;
    return event;
  }
  edge += config_.p_bit_flip;
  if (u < edge) {
    event.kind = FaultKind::kBitFlip;
    return event;
  }
  edge += config_.p_delay;
  if (u < edge) {
    event.kind = FaultKind::kDelay;
    event.delay_ms = config_.delay_ms * delay_scale;
  }
  return event;
}

FaultEvent FaultSchedule::send_event(Index message) const {
  return draw(kSendStream, message);
}

FaultEvent FaultSchedule::recv_event(Index message) const {
  return draw(kRecvStream, message);
}

FaultEvent FaultSchedule::connect_event(Index attempt) const {
  return draw(kConnectStream, attempt);
}

std::string FaultSchedule::describe(Index n) const {
  std::string out;
  const auto emit = [&](const char* stream, const FaultEvent& e) {
    if (e.kind == FaultKind::kNone) return;
    out += strprintf("%s %lld %s site=%llu delay=%.3f\n", stream,
                     static_cast<long long>(e.message), to_string(e.kind),
                     static_cast<unsigned long long>(e.site), e.delay_ms);
  };
  for (Index m = 0; m < n; ++m) emit("send", send_event(m));
  for (Index m = 0; m < n; ++m) emit("recv", recv_event(m));
  for (Index m = 0; m < n; ++m) emit("connect", connect_event(m));
  return out;
}

// -------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(std::unique_ptr<Transport> inner,
                             const FaultConfig& config, std::uint64_t endpoint_id)
    : inner_(std::move(inner)), schedule_(config, endpoint_id) {
  require(inner_ != nullptr, "FaultInjector: null inner transport");
}

namespace {

/// First `keep` logical bytes of `msg` (segment subspans, keepalives
/// shared) — the scatter-gather form of vector::resize-down.
WireMessage message_prefix(const WireMessage& msg, std::size_t keep) {
  WireMessage out;
  for (const WireMessage::Segment& seg : msg.segments()) {
    if (keep == 0) break;
    const std::size_t take = std::min(keep, seg.bytes.size());
    out.append_borrowed(seg.bytes.first(take), seg.keepalive);
    keep -= take;
  }
  return out;
}

/// `msg` with one bit flipped. Only the segment containing the bit is
/// copied; every other segment passes through by reference. The source
/// bytes (possibly a live dataset) are never modified.
WireMessage message_with_bit_flip(const WireMessage& msg, std::uint64_t bit) {
  std::size_t byte_at = static_cast<std::size_t>(bit / 8);
  const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
  WireMessage out;
  for (const WireMessage::Segment& seg : msg.segments()) {
    if (byte_at < seg.bytes.size()) {
      Buffer damaged = Buffer::copy_of(seg.bytes);
      damaged.data()[byte_at] ^= mask;
      out.append_owned(std::move(damaged));
      byte_at = std::size_t(-1); // remaining segments pass through
    } else {
      if (byte_at != std::size_t(-1)) byte_at -= seg.bytes.size();
      out.append_borrowed(seg.bytes, seg.keepalive);
    }
  }
  return out;
}

} // namespace

void FaultInjector::send_msg(const WireMessage& msg) {
  const FaultEvent event = schedule_.send_event(send_index_++);
  switch (event.kind) {
    case FaultKind::kTruncate: {
      // Drop the tail; at least the first byte survives so the message
      // still arrives (a zero-length frame would model full loss, which
      // kRecvTimeout already covers).
      const std::size_t total = msg.total_bytes();
      const std::size_t keep =
          total == 0 ? 0 : 1 + static_cast<std::size_t>(
                                   event.site % (total > 1 ? total - 1 : 1));
      ++faults_injected_;
      inner_->send_msg(message_prefix(msg, keep));
      return;
    }
    case FaultKind::kBitFlip: {
      if (msg.total_bytes() > 0) {
        const std::uint64_t bit =
            event.site % (std::uint64_t(msg.total_bytes()) * 8);
        ++faults_injected_;
        inner_->send_msg(message_with_bit_flip(msg, bit));
        return;
      }
      break;
    }
    case FaultKind::kDelay: {
      const trace::Span span("fault.delay");
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(event.delay_ms));
      ++faults_injected_;
      break;
    }
    default: break;
  }
  inner_->send_msg(msg);
}

WireMessage FaultInjector::recv_msg() {
  const FaultEvent event = schedule_.recv_event(recv_index_++);
  if (event.kind == FaultKind::kRecvTimeout) {
    // Consume the message, then report it late: models data that
    // arrives after the deadline (the frame is lost to the caller, but
    // the stream stays framed for the next recv).
    inner_->recv_msg();
    ++faults_injected_;
    throw TransportError(TransportErrorCode::kTimeout,
                         "FaultInjector: injected recv timeout");
  }
  return inner_->recv_msg();
}

void FaultInjector::set_recv_deadline(double seconds) {
  inner_->set_recv_deadline(seconds);
}

// ---------------------------------------------------- hardened delivery

void RobustnessReport::merge(const RobustnessReport& other) {
  frames_sent += other.frames_sent;
  frames_delivered += other.frames_delivered;
  frames_retried += other.frames_retried;
  frames_dropped += other.frames_dropped;
  frames_corrupt += other.frames_corrupt;
  frames_timed_out += other.frames_timed_out;
}

std::string RobustnessReport::summary() const {
  return strprintf("sent=%lld delivered=%lld retried=%lld dropped=%lld "
                   "corrupt=%lld timed_out=%lld",
                   static_cast<long long>(frames_sent),
                   static_cast<long long>(frames_delivered),
                   static_cast<long long>(frames_retried),
                   static_cast<long long>(frames_dropped),
                   static_cast<long long>(frames_corrupt),
                   static_cast<long long>(frames_timed_out));
}

namespace {

/// Classify a transport fault caught on the RECEIVE side into the
/// report. Returns true when the fault is retryable; false means the
/// channel itself is gone. kMessageTooLarge counts as corruption here:
/// an implausible length read off the wire means the frame (or the
/// stream framing) was damaged in transit — unlike the send-side guard,
/// where it is a genuine protocol violation and propagates.
bool classify_recv_fault(const TransportError& error, RobustnessReport& report) {
  switch (error.code()) {
    case TransportErrorCode::kCorruptFrame:
    case TransportErrorCode::kTruncated:
    case TransportErrorCode::kMessageTooLarge:
      ++report.frames_corrupt;
      return true;
    case TransportErrorCode::kTimeout:
      ++report.frames_timed_out;
      return true;
    default:
      return false;
  }
}

} // namespace

std::optional<WireMessage> transfer_with_retry(
    Transport& tx, Transport& rx, const WireMessage& payload,
    const RetryPolicy& policy, RobustnessReport& report, WireCodec codec) {
  require(policy.max_attempts > 0, "transfer_with_retry: need >= 1 attempt");
  const trace::Span transfer_span("transfer");
  rx.set_recv_deadline(policy.recv_deadline_seconds);
  // Pristine-retry invariant: encode (and compress) once, before the
  // attempt loop. Injected damage is applied to message COPIES below
  // the framing, so `frame` — and the live dataset its stored-format
  // segments alias — is intact for every retry; non-retryable send
  // failures still propagate.
  const WireMessage frame = frame_encode_msg(payload, codec);
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++report.frames_retried;
      trace::instant("transfer.retry");
    }
    ++report.frames_sent;
    {
      const trace::Span send_span("transport.send");
      note_bytes_on_wire(frame.total_bytes());
      tx.send_msg(frame);
    }
    try {
      WireMessage delivered = rx.recv_framed_msg();
      ++report.frames_delivered;
      return delivered;
    } catch (const TransportError& error) {
      if (!classify_recv_fault(error, report)) throw;
    }
  }
  ++report.frames_dropped;
  trace::instant("transfer.drop");
  return std::nullopt;
}

std::optional<WireMessage> recv_framed_tolerant(
    Transport& rx, RobustnessReport& report, bool* closed) {
  if (closed != nullptr) *closed = false;
  try {
    WireMessage delivered = rx.recv_framed_msg();
    ++report.frames_delivered;
    return delivered;
  } catch (const TransportError& error) {
    if (!classify_recv_fault(error, report)) {
      if (error.code() != TransportErrorCode::kConnectionClosed) throw;
      if (closed != nullptr) *closed = true;
    }
    ++report.frames_dropped;
    return std::nullopt;
  }
}

} // namespace eth::insitu
