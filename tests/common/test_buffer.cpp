#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/error.hpp"

namespace eth {
namespace {

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), std::uint8_t(0));
  return v;
}

TEST(Buffer, AllocateIsZeroInitializedAndMaxAligned) {
  Buffer b = Buffer::allocate(100);
  ASSERT_EQ(b.size(), 100u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % alignof(std::max_align_t),
            0u);
}

TEST(Buffer, CopyOfIsIndependentOfSource) {
  auto src = iota_bytes(16);
  Buffer b = Buffer::copy_of(src);
  src.assign(16, 0xFF);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(b.data()[i], std::uint8_t(i));
}

TEST(Buffer, HandlesShareOneSlab) {
  Buffer a = Buffer::copy_of(iota_bytes(8));
  Buffer b = a; // copy of the handle, not of bytes
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.use_count(), 2);
  a.data()[3] = 99;
  EXPECT_EQ(b.data()[3], 99);
}

TEST(Buffer, KeepaliveHandleOutlivesTheBufferObject) {
  Keepalive keep;
  const std::uint8_t* raw = nullptr;
  {
    Buffer b = Buffer::adopt(iota_bytes(32));
    raw = b.data();
    keep = b.handle();
  } // Buffer handle dropped; keepalive must still pin the slab.
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(raw[i], std::uint8_t(i));
}

TEST(BufferView, SubviewSlicesAndSharesOwnership) {
  BufferView v(Buffer::adopt(iota_bytes(20)));
  const BufferView mid = v.subview(5, 10);
  ASSERT_EQ(mid.size(), 10u);
  EXPECT_EQ(mid.data()[0], 5);
  EXPECT_EQ(mid.data()[9], 14);
  const BufferView inner = mid.subview(2, 3);
  EXPECT_EQ(inner.data()[0], 7);
  EXPECT_THROW(v.subview(15, 6), Error);
  EXPECT_THROW(v.subview(21, 0), Error);
}

TEST(WireMessage, ConcatenatesSegmentsInOrder) {
  const auto head = iota_bytes(4);
  const auto tail = iota_bytes(3);
  WireMessage m;
  m.append_owned(Buffer::copy_of(head));
  m.append_borrowed(tail);
  EXPECT_EQ(m.total_bytes(), 7u);
  EXPECT_EQ(m.segments().size(), 2u);
  EXPECT_EQ(m.flatten(), (std::vector<std::uint8_t>{0, 1, 2, 3, 0, 1, 2}));
}

TEST(WireMessage, SkipsEmptySegments) {
  WireMessage m;
  m.append_owned(Buffer());
  m.append_borrowed({});
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.contiguous());
  EXPECT_TRUE(m.segments().empty());
}

TEST(WireMessage, SliceSplitsMidSegment) {
  WireMessage m;
  m.append_owned(Buffer::copy_of(iota_bytes(6)));  // 0..5
  m.append_owned(Buffer::copy_of(iota_bytes(4)));  // 0..3
  const auto flat = m.flatten();
  for (std::size_t off = 0; off <= m.total_bytes(); ++off) {
    const WireMessage tail = m.slice(off);
    EXPECT_EQ(tail.total_bytes(), m.total_bytes() - off);
    EXPECT_EQ(tail.flatten(),
              std::vector<std::uint8_t>(flat.begin() + long(off), flat.end()))
        << "slice at " << off;
  }
}

TEST(WireMessage, OwnedSegmentsSurviveDroppedBufferHandles) {
  WireMessage m;
  {
    Buffer b = Buffer::adopt(iota_bytes(64));
    m.append_owned(b);
  } // only the message's keepalive pins the slab now
  const auto flat = m.flatten();
  ASSERT_EQ(flat.size(), 64u);
  EXPECT_EQ(flat[63], 63);
}

TEST(WireMessage, FlattenCountsCopiedBytes) {
  WireMessage m;
  m.append_owned(Buffer::allocate(100));
  RunCounterSink sink;
  {
    const RunSinkScope scope(&sink);
    (void)m.flatten();
  }
  EXPECT_EQ(sink.bytes_copied.load(), 100u);
  EXPECT_EQ(sink.bytes_borrowed.load(), 0u);
}

TEST(DataPlaneCounters, NoteAndReset) {
  RunCounterSink sink;
  {
    const RunSinkScope scope(&sink);
    emit_metric(&RunCounterSink::bytes_copied, 10);
    emit_metric(&RunCounterSink::bytes_borrowed, 25);
    emit_metric(&RunCounterSink::bytes_borrowed, 5);
  }
  EXPECT_EQ(sink.bytes_copied.load(), 10u);
  EXPECT_EQ(sink.bytes_borrowed.load(), 30u);
  // Outside every scope the emitter is a no-op; a reset is a fresh sink.
  emit_metric(&RunCounterSink::bytes_copied, 7);
  EXPECT_EQ(sink.bytes_copied.load(), 10u);
  const RunCounterSink fresh;
  EXPECT_EQ(fresh.bytes_copied.load(), 0u);
  EXPECT_EQ(fresh.bytes_borrowed.load(), 0u);
}

TEST(RunSinkScope, NestedScopesInnermostWinsAndNullMutes) {
  RunCounterSink outer, inner;
  EXPECT_EQ(current_run_sink(), nullptr);
  {
    const RunSinkScope outer_scope(&outer);
    emit_metric(&RunCounterSink::bytes_on_wire, 1);
    {
      const RunSinkScope inner_scope(&inner);
      EXPECT_EQ(current_run_sink(), &inner);
      emit_metric(&RunCounterSink::bytes_on_wire, 10);
      {
        const RunSinkScope mute(nullptr);
        EXPECT_EQ(current_run_sink(), nullptr);
        emit_metric(&RunCounterSink::bytes_on_wire, 100);
      }
      emit_metric(&RunCounterSink::bytes_on_wire, 1000);
    }
    EXPECT_EQ(current_run_sink(), &outer);
    emit_metric(&RunCounterSink::bytes_on_wire, 10000);
  }
  EXPECT_EQ(current_run_sink(), nullptr);
  EXPECT_EQ(outer.bytes_on_wire.load(), 10001u);
  EXPECT_EQ(inner.bytes_on_wire.load(), 1010u);
}

TEST(RunSinkScope, CellsCombineByTheirMergeRule) {
  RunCounterSink sink;
  const RunSinkScope scope(&sink);
  emit_metric(&RunCounterSink::cache_bytes, 300);
  emit_metric(&RunCounterSink::cache_bytes, 100);
  emit_metric(&RunCounterSink::compress_cpu_seconds, 0.25);
  emit_metric(&RunCounterSink::compress_cpu_seconds, 0.5);
  EXPECT_EQ(sink.cache_bytes.load(), 300u); // max-merged gauge
  EXPECT_DOUBLE_EQ(sink.compress_cpu_seconds.load(), 0.75);
}

TEST(CowArray, OwnedModeBehavesLikeVector) {
  CowArray<int> a;
  EXPECT_TRUE(a.empty());
  a.assign(3, 7);
  a.push_back(9);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], 7);
  EXPECT_EQ(a[3], 9);
  a.mut(1) = 42;
  EXPECT_EQ(a[1], 42);
  EXPECT_FALSE(a.borrowed());
}

TEST(CowArray, BorrowedViewAliasesTheSource) {
  auto slab = std::make_shared<std::vector<int>>(std::vector<int>{1, 2, 3, 4});
  CowArray<int> a;
  a.adopt(std::span<const int>(*slab), slab);
  EXPECT_TRUE(a.borrowed());
  EXPECT_EQ(a.view().data(), slab->data()); // zero-copy: same storage
  EXPECT_EQ(a[2], 3);
  // The keepalive must pin the source even after the caller drops it.
  const int* raw = slab->data();
  slab.reset();
  EXPECT_EQ(a.view().data(), raw);
  EXPECT_EQ(a[3], 4);
}

TEST(CowArray, FirstMutationMaterializesAPrivateCopy) {
  auto slab = std::make_shared<std::vector<int>>(std::vector<int>{1, 2, 3});
  CowArray<int> a;
  a.adopt(std::span<const int>(*slab), slab);

  RunCounterSink sink;
  {
    const RunSinkScope scope(&sink);
    a.mut(0) = 100;
  }
  EXPECT_FALSE(a.borrowed());
  EXPECT_EQ(sink.bytes_copied.load(), 3 * sizeof(int));
  EXPECT_EQ(a[0], 100);
  EXPECT_EQ((*slab)[0], 1); // the source is never written through
  EXPECT_NE(a.view().data(), slab->data());
}

TEST(CowArray, CopiesShareTheBorrowAndCowIndependently) {
  auto slab = std::make_shared<std::vector<int>>(std::vector<int>{5, 6});
  CowArray<int> a;
  a.adopt(std::span<const int>(*slab), slab);
  CowArray<int> b = a;
  EXPECT_EQ(a.view().data(), b.view().data());
  b.mut(0) = -1;
  EXPECT_TRUE(a.borrowed());
  EXPECT_EQ(a[0], 5); // a still reads the shared source
  EXPECT_EQ(b[0], -1);
}

TEST(CowArray, AdoptChunkPreservesMode) {
  ArrayChunk<int> copied;
  copied.storage = {1, 2};
  copied.view = copied.storage;
  copied.borrowed = false;
  CowArray<int> a;
  a.adopt(std::move(copied));
  EXPECT_FALSE(a.borrowed());
  EXPECT_EQ(a[1], 2);

  auto slab = std::make_shared<std::vector<int>>(std::vector<int>{8, 9});
  ArrayChunk<int> borrowed;
  borrowed.view = std::span<const int>(*slab);
  borrowed.keepalive = slab;
  borrowed.borrowed = true;
  CowArray<int> b;
  b.adopt(std::move(borrowed));
  EXPECT_TRUE(b.borrowed());
  EXPECT_EQ(b.view().data(), slab->data());
}

} // namespace
} // namespace eth
