#include "insitu/transport.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "sim/xrage_generator.hpp"

namespace eth::insitu {
namespace {

/// `bytes` as a one-segment message that owns its storage.
WireMessage message_of(std::vector<std::uint8_t> bytes) {
  WireMessage msg;
  msg.append_owned(Buffer::adopt(std::move(bytes)));
  return msg;
}

TEST(InProcChannel, MessageRoundTrip) {
  auto [a, b] = make_inproc_channel();
  a->send_msg(message_of({1, 2, 3}));
  EXPECT_EQ(b->recv_msg().flatten(), (std::vector<std::uint8_t>{1, 2, 3}));
  b->send_msg(message_of({9}));
  EXPECT_EQ(a->recv_msg().flatten(), (std::vector<std::uint8_t>{9}));
}

TEST(InProcChannel, PreservesMessageOrder) {
  auto [a, b] = make_inproc_channel();
  for (std::uint8_t i = 0; i < 10; ++i) a->send_msg(message_of({i}));
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b->recv_msg().flatten()[0], i);
}

TEST(InProcChannel, CountsBytesSentPerEndpoint) {
  auto [a, b] = make_inproc_channel();
  a->send_msg(message_of(std::vector<std::uint8_t>(100)));
  a->send_msg(message_of(std::vector<std::uint8_t>(50)));
  b->send_msg(message_of(std::vector<std::uint8_t>(7)));
  EXPECT_EQ(a->bytes_sent(), 150u);
  EXPECT_EQ(b->bytes_sent(), 7u);
}

TEST(InProcChannel, BlockingRecvWaitsForSender) {
  auto [a, b] = make_inproc_channel();
  std::thread sender([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->send_msg(message_of({42}));
  });
  EXPECT_EQ(b->recv_msg().flatten()[0], 42);
  sender.join();
}

TEST(InProcChannel, PeerDestructionWakesBlockedReceiver) {
  auto [a, b] = make_inproc_channel();
  std::thread receiver([&b] { EXPECT_THROW(b->recv_msg(), Error); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a.reset(); // destroy the sender endpoint
  receiver.join();
}

TEST(InProcChannel, DatasetRoundTripPointSet) {
  auto [a, b] = make_inproc_channel();
  PointSet ps(3);
  ps.set_position(1, {4, 5, 6});
  Field id("id", 3, 1);
  id.set(2, 9);
  ps.point_fields().add(std::move(id));

  a->send_dataset(ps);
  const auto restored = b->recv_dataset();
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  EXPECT_EQ(r.position(1), (Vec3f{4, 5, 6}));
  EXPECT_EQ(r.point_fields().get("id").get(2), 9);
}

TEST(InProcChannel, DatasetRoundTripGrid) {
  auto [a, b] = make_inproc_channel();
  sim::XrageParams params;
  params.dims = {8, 8, 8};
  const auto grid = sim::generate_xrage(params);
  a->send_dataset(*grid);
  const auto restored = b->recv_dataset();
  ASSERT_EQ(restored->kind(), DataSetKind::kStructuredGrid);
  EXPECT_EQ(static_cast<const StructuredGrid&>(*restored).dims(), (Vec3i{8, 8, 8}));
  // Dataset transfers ride the CRC frame, so the wire carries one frame
  // header on top of the serialized payload.
  EXPECT_EQ(a->bytes_sent(), serialize_dataset(*grid).size() + kFrameHeaderBytes);
}

// ------------------------------------------- scatter-gather / zero-copy

TEST(InProcChannel, ScatterGatherMessageRoundTrip) {
  auto [a, b] = make_inproc_channel();
  WireMessage msg;
  msg.append_owned(Buffer::copy_of(std::vector<std::uint8_t>{1, 2, 3}));
  const std::vector<std::uint8_t> bulk{4, 5};
  msg.append_borrowed(bulk);
  a->send_msg(msg);
  EXPECT_EQ(b->recv_msg().flatten(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(InProcChannel, UnownedSegmentsAreCopiedAtEnqueue) {
  // Lifetime contract: without a keepalive the bytes are only valid
  // until send_msg returns, so the queue must have copied them —
  // mutating the source afterwards must not affect delivery.
  auto [a, b] = make_inproc_channel();
  std::vector<std::uint8_t> bulk{1, 2, 3, 4};
  WireMessage msg;
  msg.append_borrowed(bulk);
  a->send_msg(msg);
  bulk.assign(4, 0xFF);
  EXPECT_EQ(b->recv_msg().flatten(), (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(InProcChannel, ZeroCopyDatasetAliasesSenderStorage) {
  auto [a, b] = make_inproc_channel();
  auto ps = std::make_shared<PointSet>(3);
  ps->set_position(0, {1, 2, 3});
  ps->set_position(2, {7, 8, 9});
  Field id("id", 3, 1);
  id.set(1, 42);
  ps->point_fields().add(std::move(id));

  reset_data_plane_counters();
  a->send_dataset(std::shared_ptr<const PointSet>(ps));
  const auto restored = b->recv_dataset();
  const auto& r = static_cast<const PointSet&>(*restored);

  // Bulk arrays alias the sender's storage through the keepalive chain.
  EXPECT_TRUE(r.positions_borrowed());
  EXPECT_TRUE(r.point_fields().get("id").values_borrowed());
  EXPECT_EQ(r.positions().data(), ps->positions().data());
  EXPECT_EQ(r.position(2), (Vec3f{7, 8, 9}));
  EXPECT_EQ(r.point_fields().get("id").get(1), 42);
  // Only the small frame/section headers were copied into the queue;
  // the bulk payload crossed by reference.
  const DataPlaneCounters c = data_plane_counters();
  EXPECT_GT(c.bytes_borrowed, c.bytes_copied);
}

TEST(InProcChannel, BorrowedDatasetSurvivesSenderAndChannelDestruction) {
  auto ps = std::make_shared<PointSet>(2);
  ps->set_position(1, {4, 5, 6});
  std::unique_ptr<DataSet> restored;
  {
    auto [a, b] = make_inproc_channel();
    a->send_dataset(std::shared_ptr<const PointSet>(ps));
    restored = b->recv_dataset();
  } // channel destroyed
  ps.reset(); // sender's handle dropped; keepalives must pin the data
  const auto& r = static_cast<const PointSet&>(*restored);
  ASSERT_TRUE(r.positions_borrowed());
  EXPECT_EQ(r.position(1), (Vec3f{4, 5, 6})); // ASan guards this read
}

TEST(InProcChannel, MutatingABorrowedDatasetCopiesOnWriteOnly) {
  auto [a, b] = make_inproc_channel();
  auto ps = std::make_shared<PointSet>(2);
  ps->set_position(0, {1, 1, 1});
  a->send_dataset(std::shared_ptr<const PointSet>(ps));
  const auto restored = b->recv_dataset();
  auto& r = static_cast<PointSet&>(*restored);
  ASSERT_TRUE(r.positions_borrowed());

  r.set_position(0, {9, 9, 9}); // first write materializes a private copy
  EXPECT_FALSE(r.positions_borrowed());
  EXPECT_EQ(r.position(0), (Vec3f{9, 9, 9}));
  EXPECT_EQ(ps->position(0), (Vec3f{1, 1, 1})); // the source never moves
  EXPECT_NE(r.positions().data(), ps->positions().data());
}

} // namespace
} // namespace eth::insitu
