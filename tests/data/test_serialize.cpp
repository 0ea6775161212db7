#include "data/serialize.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "insitu/transport.hpp"

namespace eth {
namespace {

TEST(ByteWriterReader, PodRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f32(3.25f);
  w.put_f64(-1.5e300);
  w.put_string("hello");
  const auto buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f32(), 3.25f);
  EXPECT_EQ(r.get_f64(), -1.5e300);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteWriter w;
  w.put_u32(5);
  const auto buf = w.take();
  ByteReader r(buf);
  r.get_u32();
  EXPECT_THROW(r.get_u8(), Error);

  ByteReader r2(buf);
  EXPECT_THROW(r2.get_u64(), Error);

  // String header promising more bytes than remain.
  ByteWriter w3;
  w3.put_u32(1000);
  const auto buf3 = w3.take();
  ByteReader r3(buf3);
  EXPECT_THROW(r3.get_string(), Error);
}

TEST(SerializeField, RoundTrip) {
  Field f("velocity", 4, 3, FieldAssociation::kCell);
  Rng rng(3);
  for (Index t = 0; t < 4; ++t)
    for (int c = 0; c < 3; ++c) f.set(t, c, Real(rng.uniform(-10, 10)));
  ByteWriter w;
  serialize_field(w, f);
  const auto buf = w.take();
  ByteReader r(buf);
  const Field g = deserialize_field(r);
  EXPECT_EQ(g.name(), "velocity");
  EXPECT_EQ(g.components(), 3);
  EXPECT_EQ(g.tuples(), 4);
  EXPECT_EQ(g.association(), FieldAssociation::kCell);
  for (Index t = 0; t < 4; ++t)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(g.get(t, c), f.get(t, c));
}

PointSet make_point_set() {
  PointSet ps(10);
  Rng rng(5);
  for (Index i = 0; i < 10; ++i) ps.set_position(i, rng.point_in_box({0, 0, 0}, {1, 1, 1}));
  Field id("id", 10, 1);
  for (Index i = 0; i < 10; ++i) id.set(i, Real(i));
  ps.point_fields().add(std::move(id));
  return ps;
}

TEST(SerializeDataset, PointSetRoundTrip) {
  const PointSet ps = make_point_set();
  const auto bytes = wire_message_for_dataset(ps).flatten();
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  ASSERT_EQ(r.num_points(), 10);
  for (Index i = 0; i < 10; ++i) {
    EXPECT_EQ(r.position(i), ps.position(i));
    EXPECT_EQ(r.point_fields().get("id").get(i), Real(i));
  }
}

TEST(SerializeDataset, StructuredGridRoundTrip) {
  StructuredGrid g({4, 3, 2}, {1, 2, 3}, {0.5f, 0.5f, 0.5f});
  Field& f = g.add_scalar_field("t");
  for (Index i = 0; i < g.num_points(); ++i) f.set(i, Real(i) * 0.25f);
  const auto bytes = wire_message_for_dataset(g).flatten();
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kStructuredGrid);
  const auto& r = static_cast<const StructuredGrid&>(*restored);
  EXPECT_EQ(r.dims(), (Vec3i{4, 3, 2}));
  EXPECT_EQ(r.origin(), (Vec3f{1, 2, 3}));
  EXPECT_EQ(r.spacing(), (Vec3f{0.5f, 0.5f, 0.5f}));
  for (Index i = 0; i < r.num_points(); ++i)
    EXPECT_EQ(r.point_fields().get("t").get(i), Real(i) * 0.25f);
}

TEST(SerializeDataset, TriangleMeshRoundTripWithNormals) {
  TriangleMesh m;
  m.add_vertex({0, 0, 0}, {0, 0, 1});
  m.add_vertex({1, 0, 0}, {0, 1, 0});
  m.add_vertex({0, 1, 0}, {1, 0, 0});
  m.add_triangle(0, 1, 2);
  Field s("scalar", 3, 1);
  s.set(0, 5);
  m.point_fields().add(std::move(s));

  const auto bytes = wire_message_for_dataset(m).flatten();
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kTriangleMesh);
  const auto& r = static_cast<const TriangleMesh&>(*restored);
  EXPECT_EQ(r.num_points(), 3);
  EXPECT_EQ(r.num_triangles(), 1);
  ASSERT_TRUE(r.has_normals());
  EXPECT_EQ(r.normals()[1], (Vec3f{0, 1, 0}));
  EXPECT_EQ(r.point_fields().get("scalar").get(0), 5);
}

TEST(SerializeDataset, TriangleMeshWithoutNormals) {
  TriangleMesh m;
  m.add_vertex({0, 0, 0});
  m.add_vertex({1, 0, 0});
  m.add_vertex({0, 1, 0});
  m.add_triangle(0, 1, 2);
  const auto bytes = wire_message_for_dataset(m).flatten();
  const auto restored = deserialize_dataset(bytes);
  EXPECT_FALSE(static_cast<const TriangleMesh&>(*restored).has_normals());
}

// ---------------------------------------------------- property tests
// Randomized round trips: serialize(deserialize(bytes)) must reproduce
// `bytes` exactly for arbitrary datasets, and any single-byte damage to
// a framed message must be caught by the transport frame checksum.

Field random_field(Rng& rng, const std::string& name, Index tuples) {
  const int components = 1 + int(rng.uniform_index(3));
  Field f(name, tuples, components);
  for (Index t = 0; t < tuples; ++t)
    for (int c = 0; c < components; ++c) f.set(t, c, Real(rng.uniform(-1e6, 1e6)));
  return f;
}

TEST(SerializeProperty, RandomPointSetsRoundTripByteExact) {
  Rng rng(1001);
  for (int trial = 0; trial < 20; ++trial) {
    const Index n = 1 + Index(rng.uniform_index(64));
    PointSet ps(n);
    for (Index i = 0; i < n; ++i)
      ps.set_position(i, rng.point_in_box({-5, -5, -5}, {5, 5, 5}));
    const int num_fields = int(rng.uniform_index(3));
    for (int f = 0; f < num_fields; ++f)
      ps.point_fields().add(random_field(rng, "f" + std::to_string(f), n));

    const auto bytes = wire_message_for_dataset(ps).flatten();
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(wire_message_for_dataset(*restored).flatten(), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, RandomStructuredGridsRoundTripByteExact) {
  Rng rng(1002);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3i dims{Index(1 + rng.uniform_index(6)), Index(1 + rng.uniform_index(6)),
                     Index(1 + rng.uniform_index(6))};
    StructuredGrid g(dims, rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                     rng.point_in_box({0.1f, 0.1f, 0.1f}, {2, 2, 2}));
    const int num_fields = 1 + int(rng.uniform_index(2));
    for (int f = 0; f < num_fields; ++f)
      g.point_fields().add(random_field(rng, "f" + std::to_string(f), g.num_points()));

    const auto bytes = wire_message_for_dataset(g).flatten();
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(wire_message_for_dataset(*restored).flatten(), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, RandomTriangleMeshesRoundTripByteExact) {
  Rng rng(1003);
  for (int trial = 0; trial < 20; ++trial) {
    TriangleMesh m;
    const Index verts = 3 + Index(rng.uniform_index(40));
    const bool with_normals = rng.bernoulli(0.5);
    for (Index v = 0; v < verts; ++v) {
      const Vec3f p = rng.point_in_box({-1, -1, -1}, {1, 1, 1});
      if (with_normals)
        m.add_vertex(p, rng.unit_vector());
      else
        m.add_vertex(p);
    }
    const Index tris = 1 + Index(rng.uniform_index(60));
    for (Index t = 0; t < tris; ++t)
      m.add_triangle(Index(rng.uniform_index(std::uint64_t(verts))),
                     Index(rng.uniform_index(std::uint64_t(verts))),
                     Index(rng.uniform_index(std::uint64_t(verts))));
    if (rng.bernoulli(0.5))
      m.point_fields().add(random_field(rng, "scalar", verts));

    const auto bytes = wire_message_for_dataset(m).flatten();
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(wire_message_for_dataset(*restored).flatten(), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, AnySingleByteCorruptionIsCaughtByFrameChecksum) {
  // Frame a serialized dataset and damage one byte anywhere — header or
  // payload, any bit pattern. The framing layer must always classify
  // the damage as a TransportError; it never hands corrupt bytes to the
  // deserializer.
  const auto payload = wire_message_for_dataset(make_point_set()).flatten();
  WireMessage payload_msg;
  payload_msg.append_borrowed(payload);
  const auto frame = insitu::frame_encode_msg(payload_msg).flatten();
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    WireMessage msg;
    msg.append_borrowed(bytes);
    return insitu::frame_decode_msg(msg).flatten();
  };
  ASSERT_EQ(decode(frame), payload); // intact frame passes
  Rng rng(1004);
  for (int trial = 0; trial < 128; ++trial) {
    auto damaged = frame;
    const std::size_t pos = std::size_t(rng.uniform_index(damaged.size()));
    damaged[pos] ^= std::uint8_t(1 + rng.uniform_index(255));
    EXPECT_THROW(decode(damaged), TransportError)
        << "corruption at byte " << pos << " escaped the checksum";
  }
}

TEST(SerializeDataset, CorruptMagicThrows) {
  auto bytes = wire_message_for_dataset(make_point_set()).flatten();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(SerializeDataset, TrailingBytesThrow) {
  auto bytes = wire_message_for_dataset(make_point_set()).flatten();
  bytes.push_back(0);
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(SerializeDataset, TruncatedPayloadThrows) {
  auto bytes = wire_message_for_dataset(make_point_set()).flatten();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(DatasetFingerprint, NamesContentNotObject) {
  // Two independently built datasets with identical bytes share one
  // fingerprint; any content change breaks it.
  const PointSet a = make_point_set();
  const PointSet b = make_point_set();
  EXPECT_EQ(dataset_fingerprint(a), dataset_fingerprint(b));

  PointSet c = make_point_set();
  c.set_position(0, {9.0f, 9.0f, 9.0f});
  EXPECT_NE(dataset_fingerprint(c), dataset_fingerprint(a));
}

TEST(DatasetFingerprint, SurvivesSerializeRoundTrip) {
  const PointSet ps = make_point_set();
  const auto restored = deserialize_dataset(wire_message_for_dataset(ps).flatten());
  EXPECT_EQ(dataset_fingerprint(*restored), dataset_fingerprint(ps));
}

TEST(DatasetFingerprint, DoesNotPerturbDataPlaneCounters) {
  const PointSet ps = make_point_set();
  RunCounterSink sink;
  {
    const RunSinkScope scope(&sink);
    (void)dataset_fingerprint(ps);
    EXPECT_EQ(current_run_sink(), &sink); // the mute is scoped
  }
  EXPECT_EQ(sink.bytes_copied.load(), 0u);
  EXPECT_EQ(sink.bytes_borrowed.load(), 0u);
}

} // namespace
} // namespace eth
