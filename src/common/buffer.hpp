#pragma once
// Shared-ownership byte buffers and scatter-gather messages: the
// currency of the zero-copy data plane.
//
// The sim -> transport -> viz path used to materialize 4-5 full copies
// of every payload per hop (serialize into a vector, copy into a frame,
// copy out of the frame, copy into fresh dataset storage). This module
// provides the pieces that eliminate them:
//
//  * Buffer      - a refcounted byte slab. The last handle frees it; a
//                  BufferView, a borrowed dataset array or a queued
//                  message can all keep it alive.
//  * BufferView  - a cheap slice of a Buffer (offset + length) that
//                  shares ownership of the slab.
//  * WireMessage - an ordered list of byte segments, each either owned
//                  (small headers, backed by a Buffer) or borrowed
//                  (bulk arrays aliasing live dataset storage, with an
//                  optional keepalive that shares ownership of the
//                  source). Framing and the socket layer iterate the
//                  segments (incremental CRC, writev) so a contiguous
//                  copy is never required.
//  * CowArray<T> - span-or-owned element storage for dataset classes:
//                  reads go through a borrowed view aliasing a receive
//                  buffer (or a peer's live arrays); the first mutation
//                  materializes a private owned copy (copy-on-write).
//
// Every copy and every by-reference hand-off is counted through the
// metric registry (common/run_counters.hpp): bytes_copied /
// bytes_borrowed land in the current run's sink, so the copy
// elimination is observable per run.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/run_counters.hpp"
#include "common/types.hpp"

namespace eth {

/// Type-erased shared ownership of whatever backs a borrowed span: a
/// Buffer slab, a shared dataset, a queued message's storage.
using Keepalive = std::shared_ptr<const void>;

// --------------------------------------------------------------- Buffer

/// Refcounted byte slab. Copying a Buffer copies a handle, never bytes.
/// Storage from allocate()/copy_of() is writable through the non-const
/// accessors; all handles observe writes (write before sharing).
class Buffer {
public:
  Buffer() = default;

  /// Fresh zero-initialized slab of `n` bytes (max-aligned, so any
  /// element type can be aliased at a suitably aligned offset).
  static Buffer allocate(std::size_t n);

  /// Fresh slab holding a copy of `bytes` (the copy is NOT counted;
  /// call sites that move payload account for it themselves).
  static Buffer copy_of(std::span<const std::uint8_t> bytes);

  /// Wrap an existing vector without copying (the vector is moved into
  /// shared storage).
  static Buffer adopt(std::vector<std::uint8_t>&& bytes);

  std::uint8_t* data() { return data_.get(); }
  const std::uint8_t* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  explicit operator bool() const { return data_ != nullptr; }

  std::span<std::uint8_t> span() { return {data_.get(), size_}; }
  std::span<const std::uint8_t> span() const { return {data_.get(), size_}; }

  /// Shared handle to the slab for keeping borrowed views alive.
  Keepalive handle() const { return data_; }

  /// Number of handles to the slab (diagnostics/tests).
  long use_count() const { return data_.use_count(); }

private:
  std::shared_ptr<std::uint8_t> data_; // aliasing pointers allowed
  std::size_t size_ = 0;
};

// ----------------------------------------------------------- BufferView

/// A slice of a Buffer that shares ownership of the slab. Slicing and
/// copying are O(1); the slab lives until the last view drops.
class BufferView {
public:
  BufferView() = default;
  explicit BufferView(Buffer buffer)
      : buffer_(std::move(buffer)), offset_(0), size_(buffer_.size()) {}
  BufferView(Buffer buffer, std::size_t offset, std::size_t size)
      : buffer_(std::move(buffer)), offset_(offset), size_(size) {
    require(offset_ <= buffer_.size() && size_ <= buffer_.size() - offset_,
            "BufferView: slice out of range");
  }

  const std::uint8_t* data() const { return buffer_.data() + offset_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::uint8_t> span() const { return {data(), size_}; }

  BufferView subview(std::size_t offset, std::size_t size) const {
    require(offset <= size_ && size <= size_ - offset,
            "BufferView::subview: slice out of range");
    return BufferView(buffer_, offset_ + offset, size);
  }

  const Buffer& buffer() const { return buffer_; }
  Keepalive handle() const { return buffer_.handle(); }

private:
  Buffer buffer_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------- WireMessage

/// Scatter-gather byte sequence: the logical byte stream is the
/// concatenation of the segments, but the bytes are never forced into
/// one contiguous allocation. Owned segments (headers) carry their
/// backing Buffer as keepalive; borrowed segments alias bulk arrays of
/// a live dataset and carry either a keepalive sharing ownership of the
/// source or — for strictly synchronous sends — no keepalive at all, in
/// which case the CALLER guarantees the bytes live until send returns
/// and queueing transports must copy them on enqueue.
class WireMessage {
public:
  struct Segment {
    std::span<const std::uint8_t> bytes;
    Keepalive keepalive; ///< null = caller-guaranteed lifetime
  };

  WireMessage() = default;

  /// Append an owned segment backed by `buffer`.
  void append_owned(Buffer buffer) {
    if (buffer.empty()) return;
    total_ += buffer.size();
    segments_.push_back({buffer.span(), buffer.handle()});
  }

  /// Append a borrowed segment aliasing external storage.
  void append_borrowed(std::span<const std::uint8_t> bytes, Keepalive keepalive = {}) {
    if (bytes.empty()) return;
    total_ += bytes.size();
    segments_.push_back({bytes, std::move(keepalive)});
  }

  /// Append every segment of `other` (shares keepalives, copies no
  /// payload bytes).
  void append_message(const WireMessage& other) {
    segments_.insert(segments_.end(), other.segments_.begin(), other.segments_.end());
    total_ += other.total_;
  }

  const std::vector<Segment>& segments() const { return segments_; }
  std::size_t total_bytes() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// The logical byte stream starting at `offset`: a new message of
  /// segment subspans sharing the same keepalives.
  WireMessage slice(std::size_t offset) const;

  /// Copy the logical byte stream into `out` (must hold total_bytes()).
  /// Counts the copy against the data-plane counters.
  void copy_to(std::uint8_t* out) const;

  /// Materialize the logical byte stream as one contiguous vector
  /// (counted as copied — this is exactly what the zero-copy plane
  /// avoids; it remains for compatibility shims and tests).
  std::vector<std::uint8_t> flatten() const;

  /// If the whole message is one segment, its bytes without copying.
  bool contiguous() const { return segments_.size() <= 1; }
  std::span<const std::uint8_t> contiguous_bytes() const {
    require(contiguous(), "WireMessage: message is not contiguous");
    return segments_.empty() ? std::span<const std::uint8_t>{} : segments_[0].bytes;
  }

private:
  std::vector<Segment> segments_;
  std::size_t total_ = 0;
};

// ------------------------------------------------------------ ArrayChunk

/// Result of reading a bulk array off the data plane: either a borrowed
/// view into receive storage (keepalive shares ownership) or a private
/// copy (when the source is unowned, misaligned or split across
/// segments). `view` is valid in both modes.
template <typename T>
struct ArrayChunk {
  std::span<const T> view;
  std::vector<T> storage; ///< non-empty only in copied mode
  Keepalive keepalive;    ///< non-null only in borrowed mode
  bool borrowed = false;
};

// ------------------------------------------------------------- CowArray

/// Span-or-owned element storage with copy-on-write semantics.
///
/// An owned CowArray behaves like std::vector<T>. A borrowed CowArray
/// aliases external storage (plus a keepalive sharing ownership of it);
/// reads are zero-copy, and the first mutating operation materializes a
/// private owned copy (counted as bytes_copied). Copying a borrowed
/// CowArray shares the borrow — both copies CoW independently.
template <typename T>
class CowArray {
public:
  CowArray() = default;

  bool borrowed() const { return borrowed_data_ != nullptr; }

  std::size_t size() const { return borrowed() ? borrowed_size_ : owned_.size(); }
  bool empty() const { return size() == 0; }

  /// Read-only view of the elements (no copy, borrowed or owned).
  std::span<const T> view() const {
    return borrowed() ? std::span<const T>(borrowed_data_, borrowed_size_)
                      : std::span<const T>(owned_);
  }

  const T& operator[](std::size_t i) const {
    return borrowed() ? borrowed_data_[i] : owned_[i];
  }

  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }

  /// Writable span over the elements; materializes a borrowed array.
  std::span<T> mutate() {
    materialize();
    return owned_;
  }

  /// Writable element reference; materializes a borrowed array.
  T& mut(std::size_t i) {
    materialize();
    return owned_[i];
  }

  /// The backing vector (materializes) — for insert/append-style edits.
  std::vector<T>& owned() {
    materialize();
    return owned_;
  }

  /// Enter borrowed mode: alias `data`, keeping `keepalive` alive.
  void adopt(std::span<const T> data, Keepalive keepalive) {
    owned_.clear();
    owned_.shrink_to_fit();
    borrowed_data_ = data.data();
    borrowed_size_ = data.size();
    keepalive_ = std::move(keepalive);
  }

  /// Enter owned mode with `data` (no copy).
  void adopt(std::vector<T>&& data) {
    owned_ = std::move(data);
    release_borrow();
  }

  /// Take over a chunk read off the data plane: borrow its view when it
  /// borrowed, own its storage otherwise.
  void adopt(ArrayChunk<T>&& chunk) {
    if (chunk.borrowed)
      adopt(chunk.view, std::move(chunk.keepalive));
    else
      adopt(std::move(chunk.storage));
  }

  void assign(std::size_t n, const T& value) {
    release_borrow();
    owned_.assign(n, value);
  }
  void resize(std::size_t n) {
    materialize();
    owned_.resize(n);
  }
  void reserve(std::size_t n) {
    materialize();
    owned_.reserve(n);
  }
  void push_back(const T& value) {
    materialize();
    owned_.push_back(value);
  }
  void clear() {
    release_borrow();
    owned_.clear();
  }

  Keepalive keepalive() const { return keepalive_; }

private:
  void materialize() {
    if (!borrowed()) return;
    emit_metric(&RunCounterSink::bytes_copied, borrowed_size_ * sizeof(T));
    owned_.assign(borrowed_data_, borrowed_data_ + borrowed_size_);
    release_borrow();
  }
  void release_borrow() {
    borrowed_data_ = nullptr;
    borrowed_size_ = 0;
    keepalive_.reset();
  }

  std::vector<T> owned_;
  const T* borrowed_data_ = nullptr;
  std::size_t borrowed_size_ = 0;
  Keepalive keepalive_;
};

} // namespace eth
