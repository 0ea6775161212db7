#include "common/buffer.hpp"

namespace eth {

Buffer Buffer::allocate(std::size_t n) {
  Buffer b;
  if (n == 0) return b;
  // Route through a max-aligned block so any element type can be
  // borrowed from a suitably aligned offset within the slab.
  using Block = std::aligned_storage_t<sizeof(std::max_align_t), alignof(std::max_align_t)>;
  const std::size_t blocks = (n + sizeof(Block) - 1) / sizeof(Block);
  auto storage = std::shared_ptr<Block[]>(new Block[blocks]());
  b.data_ = std::shared_ptr<std::uint8_t>(
      storage, reinterpret_cast<std::uint8_t*>(storage.get()));
  b.size_ = n;
  return b;
}

Buffer Buffer::copy_of(std::span<const std::uint8_t> bytes) {
  Buffer b = allocate(bytes.size());
  if (!bytes.empty()) std::memcpy(b.data(), bytes.data(), bytes.size());
  return b;
}

Buffer Buffer::adopt(std::vector<std::uint8_t>&& bytes) {
  Buffer b;
  if (bytes.empty()) return b;
  auto storage = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
  b.size_ = storage->size();
  b.data_ = std::shared_ptr<std::uint8_t>(storage, storage->data());
  return b;
}

WireMessage WireMessage::slice(std::size_t offset) const {
  require(offset <= total_, "WireMessage::slice: offset past end");
  WireMessage out;
  std::size_t skip = offset;
  for (const Segment& seg : segments_) {
    if (skip >= seg.bytes.size()) {
      skip -= seg.bytes.size();
      continue;
    }
    out.append_borrowed(seg.bytes.subspan(skip), seg.keepalive);
    skip = 0;
  }
  return out;
}

void WireMessage::copy_to(std::uint8_t* out) const {
  for (const Segment& seg : segments_) {
    std::memcpy(out, seg.bytes.data(), seg.bytes.size());
    out += seg.bytes.size();
  }
  emit_metric(&RunCounterSink::bytes_copied, total_);
}

std::vector<std::uint8_t> WireMessage::flatten() const {
  std::vector<std::uint8_t> out(total_);
  if (total_ != 0) copy_to(out.data());
  return out;
}

} // namespace eth
