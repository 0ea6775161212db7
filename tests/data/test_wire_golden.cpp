// Golden wire-format regression tests.
//
// The serialized byte stream is a WIRE CONTRACT: checked-in hex
// fixtures (generated from the original contiguous serializer) pin the
// exact bytes for every dataset kind. Both serialization paths — the
// contiguous serialize_dataset and the scatter-gather
// wire_message_for_dataset — must keep reproducing these fixtures
// bit-for-bit. The stored (ETHF) and compressed (ETHZ) frames around
// them are pinned the same way, so endpoints of any revision
// interoperate.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "data/serialize.hpp"
#include "data/tet_mesh.hpp"
#include "insitu/transport.hpp"

namespace eth {
namespace {

// Fixtures generated from the pre-refactor serializer (hex of
// serialize_dataset output). Regenerating these is only legitimate for
// an intentional, versioned wire-format change.
constexpr char kGoldenPointSet[] =  // 141 bytes
    "44485445010400000000000000000000000000803e000080bf0000c03f000000"
    "c000004040000000be000080400000003f000000400000004000000040010000"
    "00020000006964010000000004000000000000000000003f0000c03f00002040"
    "0000604001000000040000006d61737302000000010200000000000000000020"
    "410000a0410000f04100002042";

constexpr char kGoldenGrid[] =  // 127 bytes
    "4448544502030000000000000002000000000000000200000000000000000080"
    "3f00000040000040400000003f0000803e0000803f0100000001000000740100"
    "0000000c00000000000000000000000000803e0000003f0000403f0000803f00"
    "00a03f0000c03f0000e03f0000004000001040000020400000304000000000";

constexpr char kGoldenTriangleMesh[] =  // 213 bytes
    "4448544503040000000000000001020000000000000000000000000000000000"
    "00000000803f0000000000000000000000000000803f000000000000803f0000"
    "803f0000803f00000000000000000000803f000000000000803f000000000000"
    "803f00000000000000000000003f0000003f0000000000000000000000000100"
    "0000000000000200000000000000010000000000000003000000000000000200"
    "00000000000001000000060000007363616c6172010000000004000000000000"
    "000000e0400000c0400000a0400000804000000000";

constexpr char kGoldenTetMesh[] =  // 194 bytes
    "4448544504050000000000000002000000000000000000000000000000000000"
    "000000803f0000000000000000000000000000803f0000000000000000000000"
    "000000803f0000803f0000803f0000803f000000000000000001000000000000"
    "0002000000000000000300000000000000010000000000000002000000000000"
    "0003000000000000000400000000000000010000000400000074656d70010000"
    "00000500000000000000000000000000c03f00004040000090400000c0400000"
    "0000";

// The stored (codec-none) frame of each fixture: u32 magic "ETHF" |
// u32 crc32(payload) | u64 payload length | payload, all little-endian.
constexpr char kGoldenPointSetFrame[] =  // 157 bytes
    "455448464c11f2bd8d0000000000000044485445010400000000000000000000"
    "000000803e000080bf0000c03f000000c000004040000000be00008040000000"
    "3f00000040000000400000004001000000020000006964010000000004000000"
    "000000000000003f0000c03f000020400000604001000000040000006d617373"
    "02000000010200000000000000000020410000a0410000f04100002042";
constexpr char kGoldenGridFrame[] =  // 143 bytes
    "45544846d13aa1447f0000000000000044485445020300000000000000020000"
    "000000000002000000000000000000803f00000040000040400000003f000080"
    "3e0000803f01000000010000007401000000000c000000000000000000000000"
    "00803e0000003f0000403f0000803f0000a03f0000c03f0000e03f0000004000"
    "001040000020400000304000000000";
constexpr char kGoldenTriangleMeshFrame[] =  // 229 bytes
    "455448469d2e0b1fd50000000000000044485445030400000000000000010200"
    "0000000000000000000000000000000000000000803f00000000000000000000"
    "00000000803f000000000000803f0000803f0000803f00000000000000000000"
    "803f000000000000803f000000000000803f00000000000000000000003f0000"
    "003f000000000000000000000000010000000000000002000000000000000100"
    "0000000000000300000000000000020000000000000001000000060000007363"
    "616c6172010000000004000000000000000000e0400000c0400000a040000080"
    "4000000000";
constexpr char kGoldenTetMeshFrame[] =  // 210 bytes
    "455448463dc37d18c20000000000000044485445040500000000000000020000"
    "00000000000000000000000000000000000000803f0000000000000000000000"
    "000000803f0000000000000000000000000000803f0000803f0000803f000080"
    "3f00000000000000000100000000000000020000000000000003000000000000"
    "0001000000000000000200000000000000030000000000000004000000000000"
    "00010000000400000074656d7001000000000500000000000000000000000000"
    "c03f00004040000090400000c04000000000";

std::vector<std::uint8_t> from_hex(const char* hex) {
  const std::string s(hex);
  EXPECT_EQ(s.size() % 2, 0u);
  std::vector<std::uint8_t> bytes(s.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = std::uint8_t(std::stoi(s.substr(2 * i, 2), nullptr, 16));
  return bytes;
}

// Dataset builders — these must stay in lockstep with the fixtures
// (tools: see the generator reproduced in DESIGN.md's data-plane
// section; any edit here without regenerating the hex is a test bug,
// not a format change).

PointSet golden_point_set() {
  PointSet ps(4);
  ps.set_position(0, {0.0f, 0.25f, -1.0f});
  ps.set_position(1, {1.5f, -2.0f, 3.0f});
  ps.set_position(2, {-0.125f, 4.0f, 0.5f});
  ps.set_position(3, {2.0f, 2.0f, 2.0f});
  Field id("id", 4, 1, FieldAssociation::kPoint);
  for (Index i = 0; i < 4; ++i) id.set(i, Real(i) + Real(0.5));
  ps.point_fields().add(std::move(id));
  Field mass("mass", 2, 2, FieldAssociation::kCell);
  mass.set(0, 0, 10.0f);
  mass.set(0, 1, 20.0f);
  mass.set(1, 0, 30.0f);
  mass.set(1, 1, 40.0f);
  ps.cell_fields().add(std::move(mass));
  return ps;
}

StructuredGrid golden_grid() {
  StructuredGrid g({3, 2, 2}, {1.0f, 2.0f, 3.0f}, {0.5f, 0.25f, 1.0f});
  Field& f = g.add_scalar_field("t");
  for (Index i = 0; i < g.num_points(); ++i) f.set(i, Real(i) * 0.25f);
  return g;
}

TriangleMesh golden_mesh() {
  TriangleMesh m;
  m.add_vertex({0, 0, 0}, {0, 0, 1});
  m.add_vertex({1, 0, 0}, {0, 1, 0});
  m.add_vertex({0, 1, 0}, {1, 0, 0});
  m.add_vertex({1, 1, 1}, {0.5f, 0.5f, 0.0f});
  m.add_triangle(0, 1, 2);
  m.add_triangle(1, 3, 2);
  Field s("scalar", 4, 1, FieldAssociation::kPoint);
  for (Index i = 0; i < 4; ++i) s.set(i, Real(7 - i));
  m.point_fields().add(std::move(s));
  return m;
}

TetMesh golden_tets() {
  TetMesh m;
  m.add_vertex({0, 0, 0});
  m.add_vertex({1, 0, 0});
  m.add_vertex({0, 1, 0});
  m.add_vertex({0, 0, 1});
  m.add_vertex({1, 1, 1});
  m.add_tet(0, 1, 2, 3);
  m.add_tet(1, 2, 3, 4);
  Field temp("temp", 5, 1, FieldAssociation::kPoint);
  for (Index i = 0; i < 5; ++i) temp.set(i, Real(i) * Real(1.5));
  m.point_fields().add(std::move(temp));
  return m;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0x0F]);
  }
  return out;
}

/// `bytes` as a one-segment message borrowing caller-owned storage.
WireMessage borrowed_message(const std::vector<std::uint8_t>& bytes) {
  WireMessage msg;
  msg.append_borrowed(bytes);
  return msg;
}

/// The full contract for one dataset kind against its fixture.
void expect_golden(const DataSet& ds, const char* hex, const char* frame_hex) {
  const std::vector<std::uint8_t> fixture = from_hex(hex);

  // 1. The contiguous path reproduces the fixture bit-for-bit.
  EXPECT_EQ(serialize_dataset(ds), fixture);

  // 2. The scatter-gather path flattens to the same bytes.
  const WireMessage msg = wire_message_for_dataset(ds);
  EXPECT_EQ(msg.flatten(), fixture);

  // 3. The stored frame matches its pinned hex whether the payload is
  // one segment or many, and decodes back to the fixture.
  const std::vector<std::uint8_t> frame = insitu::frame_encode_msg(msg).flatten();
  EXPECT_EQ(to_hex(frame), frame_hex);
  EXPECT_EQ(insitu::frame_encode_msg(borrowed_message(fixture)).flatten(), frame);
  EXPECT_EQ(insitu::frame_decode_msg(borrowed_message(frame)).flatten(), fixture);

  // 4. Round trips through BOTH deserializers re-serialize to the
  // fixture exactly.
  EXPECT_EQ(serialize_dataset(*deserialize_dataset(fixture)), fixture);
  WireMessage fixture_msg;
  fixture_msg.append_owned(Buffer::copy_of(fixture));
  EXPECT_EQ(serialize_dataset(*deserialize_dataset(fixture_msg)), fixture);
}

// ---- codec-tagged frames (DESIGN.md §15). The compressed wire image
// is as much a contract as the stored one: these fixtures pin the full
// lz4-codec frame (ETHZ header + shuffled/LZ-coded payload) for every
// dataset kind.

constexpr char kGoldenPointSetLzFrame[] =   // 139 bytes
    "4554485a0db2c6c173000000000000008d00000000000000f00644010000003e"
    "bf3fc040be403f40404000000004000100b201046d0201000041414148110000"
    "15000004003001026907000104003161000208001154060007050010640c0060"
    "c020600000730a00e2000000450000008080c0004000801200007900203f3f72"
    "00907300000020a0f02042";
constexpr char kGoldenGridLzFrame[] =   // 119 bytes
    "4554485a16e096cd5f000000000000007f00000000000000314402000100613f"
    "40403f3e3f0b00080500534803000200230040000101741c00c080004080a0c0"
    "e00010203054100006040010010b00213e3f01005040404040451000c2000080"
    "00400080800000000c1000b00000000000000000000000";
constexpr char kGoldenTriangleMeshLzFrame[] =   // 145 bytes
    "4554485ac5b9d5b67900000000000000d5000000000000003244030001009180"
    "0000008000808080070010000f00021900060600c06101000000404040404804"
    "000b004000003f000400313f3f3f0700000f00000b00063200620000006c0004"
    "100042540000020a000f06000270010002000100030600340673612300144509"
    "000f08000fb06372000000e0c0a0800000";
constexpr char kGoldenTetMeshLzFrame[] =   // 137 bytes
    "4554485aa0f120b77100000000000000c200000000000000324404000100413f"
    "0000000400203f3f070002150005060010700a0080c04090c0480500020c000a"
    "0400620100020003000600600400010474012000503f4040405409000f04000e"
    "33650005240013450800418000000004002080800700031600040700c06d0000"
    "000000000000000000";

void expect_codec_golden(const DataSet& ds, const char* payload_hex,
                         const char* lz_frame_hex) {
  const std::vector<std::uint8_t> payload = from_hex(payload_hex);
  const WireMessage msg = wire_message_for_dataset(ds);

  // 1. The lz4 frame matches its pinned hex whether the payload is one
  // segment or many.
  const std::vector<std::uint8_t> lz_frame =
      insitu::frame_encode_msg(msg, insitu::WireCodec::kLz4).flatten();
  EXPECT_EQ(to_hex(lz_frame), lz_frame_hex);
  EXPECT_EQ(insitu::frame_encode_msg(borrowed_message(payload),
                                     insitu::WireCodec::kLz4)
                .flatten(),
            lz_frame);

  // 2. Adaptive fallback guarantee: codec on never costs wire bytes.
  EXPECT_LE(lz_frame.size(), insitu::frame_encode_msg(msg).total_bytes());

  // 3. The decoder recovers the payload bit-identically (it dispatches
  // on the frame magic, so endpoints need no codec config).
  WireMessage frame_msg;
  frame_msg.append_owned(Buffer::copy_of(lz_frame));
  EXPECT_EQ(insitu::frame_decode_msg(frame_msg).flatten(), payload);
}

TEST(GoldenWireFormat, PointSetLzCodec) {
  expect_codec_golden(golden_point_set(), kGoldenPointSet, kGoldenPointSetLzFrame);
}
TEST(GoldenWireFormat, StructuredGridLzCodec) {
  expect_codec_golden(golden_grid(), kGoldenGrid, kGoldenGridLzFrame);
}
TEST(GoldenWireFormat, TriangleMeshLzCodec) {
  expect_codec_golden(golden_mesh(), kGoldenTriangleMesh, kGoldenTriangleMeshLzFrame);
}
TEST(GoldenWireFormat, TetMeshLzCodec) {
  expect_codec_golden(golden_tets(), kGoldenTetMesh, kGoldenTetMeshLzFrame);
}

TEST(GoldenWireFormat, PointSet) {
  expect_golden(golden_point_set(), kGoldenPointSet, kGoldenPointSetFrame);
}
TEST(GoldenWireFormat, StructuredGrid) {
  expect_golden(golden_grid(), kGoldenGrid, kGoldenGridFrame);
}
TEST(GoldenWireFormat, TriangleMesh) {
  expect_golden(golden_mesh(), kGoldenTriangleMesh, kGoldenTriangleMeshFrame);
}
TEST(GoldenWireFormat, TetMesh) {
  expect_golden(golden_tets(), kGoldenTetMesh, kGoldenTetMeshFrame);
}

TEST(GoldenWireFormat, KeepaliveMessageMatchesFixtureWithoutFlattening) {
  // The zero-copy path (borrowed bulk segments pinned by a shared_ptr
  // keepalive) must describe the same logical byte stream segment by
  // segment, not only after flattening.
  const auto ds = std::make_shared<const PointSet>(golden_point_set());
  const WireMessage msg = wire_message_for_dataset(ds);
  const std::vector<std::uint8_t> fixture = from_hex(kGoldenPointSet);
  ASSERT_EQ(msg.total_bytes(), fixture.size());
  std::size_t off = 0;
  for (const WireMessage::Segment& seg : msg.segments()) {
    for (std::size_t i = 0; i < seg.bytes.size(); ++i)
      ASSERT_EQ(seg.bytes[i], fixture[off + i]) << "byte " << (off + i);
    off += seg.bytes.size();
  }
  // Bulk segments really alias the dataset (no staging copy).
  bool aliases_positions = false;
  const auto* pos = reinterpret_cast<const std::uint8_t*>(ds->positions().data());
  for (const WireMessage::Segment& seg : msg.segments())
    if (seg.bytes.data() == pos) aliases_positions = true;
  EXPECT_TRUE(aliases_positions);
}

TEST(GoldenWireFormat, DeserializedArraysBorrowTheReceiveBuffer) {
  // A contiguous receive buffer with a keepalive: arrays whose bytes
  // happen to be suitably aligned alias it outright; the rest are
  // copied. Either way the values must be exact — and nothing may dangle
  // once the Buffer handle is dropped (ASan guards the alias).
  const std::vector<std::uint8_t> fixture = from_hex(kGoldenGrid);
  Buffer buf = Buffer::copy_of(fixture);
  WireMessage msg;
  msg.append_owned(buf);
  buf = Buffer(); // the message keepalive is now the only owner
  const auto restored = deserialize_dataset(msg);
  const auto& grid = static_cast<const StructuredGrid&>(*restored);
  const Field& t = grid.point_fields().get("t");
  for (Index i = 0; i < grid.num_points(); ++i) EXPECT_EQ(t.get(i), Real(i) * 0.25f);
}

} // namespace
} // namespace eth
