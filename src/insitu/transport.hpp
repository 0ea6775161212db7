#pragma once
// Transports: how datasets cross the simulation/visualization interface.
//
// The paper's proxies either live in one process (tight coupling) or
// "communicat[e] via the socket layer" (§III-C). ETH provides:
//  * InProcChannel   - a shared-memory queue between two threads of one
//                      process (intercore coupling's data hand-off).
//  * SocketTransport - real loopback TCP with the paper's two-step
//                      rendezvous: the simulation proxy publishes
//                      "rank host port" lines to a globally accessible
//                      layout file, opens its port and waits; the
//                      visualization proxy polls the layout file, then
//                      connects (socket_transport.hpp).
//  * FaultInjector   - a decorator over either, injecting a seeded,
//                      reproducible schedule of transport faults
//                      (fault.hpp).
//
// Every transport moves one currency: the scatter-gather WireMessage
// (common/buffer.hpp). A transport implements exactly one send and one
// receive (send_msg/recv_msg), so coupling strategy is a pure
// configuration switch. Message integrity is handled one layer up:
// send_framed_msg()/recv_framed_msg() wrap every payload in a
// CRC32-checksummed frame (see kFrameMagic below), so corruption on
// EITHER transport is detected at the framing layer and classified as
// TransportError{kCorruptFrame} instead of surfacing as a crash inside
// the deserializer. Fault injection decorates send_msg/recv_msg, i.e.
// it damages frame bytes BELOW the checksum.

#include <cstdint>
#include <memory>
#include <string>

#include "common/buffer.hpp"
#include "data/dataset.hpp"

namespace eth::insitu {

// ------------------------------------------------------------- framing

/// Upper bound on a single message's payload (16 GiB). A length prefix
/// above this is a protocol violation — almost certainly a corrupt or
/// desynchronized stream — and is rejected as
/// TransportError{kMessageTooLarge} before any allocation is attempted.
/// The largest legitimate payload (a full-node HACC share with every
/// field) is two orders of magnitude below this.
inline constexpr std::uint64_t kMaxMessageBytes = std::uint64_t(1) << 34;

/// Frame header magic ("ETHF", little-endian) — the stored (codec-none)
/// frame tag. This layout predates the wire codec and must stay
/// byte-for-byte stable: the golden wire fixtures pin it.
inline constexpr std::uint32_t kFrameMagic = 0x46485445u;

/// Stored frame layout: u32 magic | u32 crc32(payload) |
/// u64 payload length | payload bytes.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Compressed frame magic ("ETHZ", little-endian). A codec-tagged frame
/// carries LZ-compressed payload bytes; the CRC32 is computed over the
/// COMPRESSED bytes (DESIGN.md §15), so corruption is detected before
/// any decompression work and the fault/retry loop resends the same
/// pristine compressed frame.
inline constexpr std::uint32_t kFrameMagicLz = 0x5A485445u;

/// Compressed frame layout: u32 magic | u32 crc32(compressed bytes) |
/// u64 compressed length | u64 raw (decompressed) length |
/// compressed bytes.
inline constexpr std::size_t kLzFrameHeaderBytes = 24;

/// Wire codec selection for frame encoding. The decoder never needs
/// it — frames are self-describing via their magic.
enum class WireCodec {
  kNone, ///< stored frames, byte-identical to the pre-codec format
  kLz4,  ///< byte-shuffled LZ (common/lz.hpp) with stored fallback
};

/// The ETH_WIRE_CODEC knob: its choice names, its process value and its
/// override hook (tests; nullptr or "" drops the pin).
const char* to_string(WireCodec codec);
WireCodec resolved_wire_codec();
void set_wire_codec_override(const char* name);

/// Throw TransportError{kMessageTooLarge} when a length prefix exceeds
/// kMaxMessageBytes (lengths equal to the limit are accepted).
void check_message_length(std::uint64_t length);

/// Wrap `payload` in a checksummed frame. With WireCodec::kNone:
/// prepend the stored frame header as one owned segment and share the
/// payload's segments — no contiguous copy is ever made (the CRC runs
/// incrementally over the segment list). With WireCodec::kLz4: gather + compress
/// the payload (a "transport.compress" span; CPU is charged to
/// compress_cpu_seconds) into a self-describing ETHZ frame — unless
/// compression does not shrink the payload, in which case the stored
/// format is emitted instead (adaptive fallback), so a codec-on wire is
/// never larger than codec-off.
WireMessage frame_encode_msg(const WireMessage& payload,
                             WireCodec codec = WireCodec::kNone);

/// Validate and strip the frame header from a scatter-gather frame,
/// dispatching on the frame magic: stored payloads share the frame's
/// segments (and keepalives); compressed payloads are CRC-checked
/// first, then decompressed (a "transport.decompress" span) into one
/// owned segment. Throws TransportError: kTruncated when the frame is
/// shorter than its header promises, kCorruptFrame on magic/CRC/codec
/// stream damage, kMessageTooLarge on an implausible length.
WireMessage frame_decode_msg(const WireMessage& frame);

/// Bidirectional message endpoint.
class Transport {
public:
  virtual ~Transport() = default;

  /// Send one message (blocking until enqueued/written). Lifetime
  /// contract: segments WITHOUT a keepalive are only guaranteed alive
  /// until this call returns, so queueing transports must copy them on
  /// enqueue; segments WITH a keepalive may be passed through by
  /// reference (writev on sockets, segment-list handoff in process).
  virtual void send_msg(const WireMessage& msg) = 0;

  /// Receive the next message (blocking, subject to the recv deadline).
  /// Bulk arrays deserialized from it may alias its segments.
  virtual WireMessage recv_msg() = 0;

  /// Total wire bytes moved through send_msg() on this endpoint
  /// (includes frame headers for framed traffic).
  virtual Bytes bytes_sent() const = 0;

  /// Cap how long recv_msg() may block before raising
  /// TransportError{kTimeout}; <= 0 means wait forever. Transports
  /// start with kDefaultRecvDeadlineSeconds so a dead peer can never
  /// hang a run indefinitely.
  virtual void set_recv_deadline(double seconds) = 0;

  static constexpr double kDefaultRecvDeadlineSeconds = 60.0;

  // CRC-framed wrappers. The codec applies to the send side only;
  // receivers dispatch on the frame magic, so a codec-none receiver
  // understands codec-lz4 senders and vice versa.
  void send_framed_msg(const WireMessage& payload,
                       WireCodec codec = WireCodec::kNone);
  WireMessage recv_framed_msg();

  // Dataset convenience wrappers over data/serialize (framed). The
  // const& overload borrows the dataset's arrays only for the duration
  // of the call; the shared_ptr overload attaches the dataset as
  // keepalive, so the bytes cross queues with zero copies and the
  // receiver's arrays alias the sender's until first write.
  void send_dataset(const DataSet& ds);
  void send_dataset(std::shared_ptr<const DataSet> ds);
  std::unique_ptr<DataSet> recv_dataset();
};

/// Create both ends of an in-process channel. Thread-safe; either end
/// may send and receive.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_inproc_channel();

} // namespace eth::insitu
