// Tests for sinks/sources, the binary archive, and the BP4-lite format.
#include <pmemcpy/serial/binary.hpp>
#include <pmemcpy/serial/bp4.hpp>
#include <pmemcpy/serial/capnp.hpp>
#include <pmemcpy/serial/dtype.hpp>

#include <gtest/gtest.h>

#include <cstring>

namespace {

using namespace pmemcpy::serial;

TEST(SinkTest, BufferSinkAccumulates) {
  BufferSink s;
  const char a[] = "hello";
  s.write(a, 5);
  s.write(a, 2);
  EXPECT_EQ(s.tell(), 7u);
  EXPECT_EQ(s.bytes().size(), 7u);
}

TEST(SinkTest, BufferSinkChargesCpuCopy) {
  pmemcpy::sim::Context c;
  pmemcpy::sim::ScopedContext sc(c);
  BufferSink s;
  std::vector<std::byte> data(1 << 20);
  s.write(data.data(), data.size());
  EXPECT_GT(c.charged(pmemcpy::sim::Charge::kCpuCopy), 0.0);
}

TEST(SinkTest, SpanSinkBoundsChecked) {
  std::vector<std::byte> out(8);
  SpanSink s(out);
  const std::uint64_t v = 1;
  s.write(&v, 8);
  EXPECT_THROW(s.write(&v, 1), SerialError);
}

TEST(SinkTest, SpanSinkIsUncharged) {
  pmemcpy::sim::Context c;
  pmemcpy::sim::ScopedContext sc(c);
  std::vector<std::byte> out(1 << 20);
  SpanSink s(out);
  std::vector<std::byte> data(1 << 20);
  s.write(data.data(), data.size());
  EXPECT_DOUBLE_EQ(c.now(), 0.0);  // pre-charged at reservation time
}

TEST(SinkTest, SourceUnderrunThrows) {
  std::vector<std::byte> data(4);
  BufferSource src(data);
  std::uint64_t v;
  EXPECT_THROW(src.read(&v, 8), SerialError);
}

// An empty buffer's data() is null, and memcpy with a null pointer is
// undefined even at length 0: zero-length copies must skip it.
TEST(SinkTest, ZeroLengthCopiesOnEmptyBuffers) {
  BufferSink sink;
  sink.write(nullptr, 0);
  EXPECT_EQ(sink.tell(), 0u);
  BufferSource src(sink.bytes());
  src.read(nullptr, 0);
  EXPECT_EQ(src.tell(), 0u);
}

TEST(SinkTest, SizingSinkMeasures) {
  SizingSink s;
  s.write(nullptr, 100);
  s.write(nullptr, 28);
  EXPECT_EQ(s.tell(), 128u);
}

TEST(SinkTest, BinarySerializedSizeMatchesArchive) {
  const std::string tag = "zero-copy";
  const std::vector<std::uint32_t> v{1, 2, 3};
  BufferSink sink;
  BinaryWriter w(sink);
  w(tag, v, 3.5);
  EXPECT_EQ(binary_serialized_size(tag, v, 3.5), sink.tell());
}

TEST(SinkTest, CopyCountersChargeByDestination) {
  namespace trace = pmemcpy::trace;
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::reset();
  std::vector<std::byte> data(256);

  BufferSink staged;
  staged.write(data.data(), 100);
  staged.write(data.data(), 28);  // same staging pass: still one staged put
  EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedBytes), 128u);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedPuts), 1u);

  std::vector<std::byte> out(256);
  SpanSink direct(out);
  direct.write(data.data(), 200);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyDirectBytes), 200u);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedBytes), 128u);

  // Reads audit under their own direction (DESIGN.md §13): a BufferSource
  // decode is a DRAM bounce and does not bleed into the write-side
  // counters.
  std::byte sink_buf[64];
  BufferSource bsrc(data);
  bsrc.read(sink_buf, 32);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyReadStagedBytes), 32u);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedBytes), 128u);

  trace::reset();
  trace::set_enabled(was_enabled);
}

struct Inner {
  std::int32_t a = 0;
  std::string tag;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(a, tag);
  }
  friend bool operator==(const Inner&, const Inner&) = default;
};

struct Outer {
  double x = 0;
  std::vector<Inner> items;       // nested compound type...
  std::vector<double> samples;    // ...and a dynamic array: the two things
                                  // the paper notes HDF5 compounds can't do.
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x, items, samples);
  }
  friend bool operator==(const Outer&, const Outer&) = default;
};

TEST(BinaryArchive, PrimitivesRoundtrip) {
  BufferSink sink;
  BinaryWriter w(sink);
  w(std::uint8_t{7}, std::int64_t{-5}, 2.5f, 3.25, true);
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  std::uint8_t a;
  std::int64_t b;
  float f;
  double d;
  bool t;
  r(a, b, f, d, t);
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, -5);
  EXPECT_EQ(f, 2.5f);
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(t);
}

TEST(BinaryArchive, StringsAndVectors) {
  BufferSink sink;
  BinaryWriter w(sink);
  const std::string s = "persistent memory";
  const std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  w(s, v);
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  std::string s2;
  std::vector<std::uint32_t> v2;
  r(s2, v2);
  EXPECT_EQ(s2, s);
  EXPECT_EQ(v2, v);
}

TEST(BinaryArchive, NestedCompoundAndDynamicArrays) {
  Outer o;
  o.x = 9.75;
  o.items = {{1, "one"}, {2, "two"}};
  o.samples = {0.5, 1.5, 2.5};
  BufferSink sink;
  BinaryWriter w(sink);
  w(o);
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  Outer o2;
  r(o2);
  EXPECT_EQ(o2, o);
}

TEST(BinaryArchive, EmptyContainers) {
  BufferSink sink;
  BinaryWriter w(sink);
  w(std::string{}, std::vector<double>{});
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  std::string s;
  std::vector<double> v;
  r(s, v);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(v.empty());
}

TEST(BinaryArchive, VarintBoundaries) {
  BufferSink sink;
  BinaryWriter w(sink);
  for (std::uint64_t v : {0ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xFFFFFFFFFFFFFFFFull}) {
    w.write_varint(v);
  }
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  for (std::uint64_t v : {0ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xFFFFFFFFFFFFFFFFull}) {
    EXPECT_EQ(r.read_varint(), v);
  }
}

TEST(BinaryArchive, ArraysFixedSize) {
  BufferSink sink;
  BinaryWriter w(sink);
  std::array<std::uint16_t, 4> a{10, 20, 30, 40};
  w(a);
  BufferSource src(sink.bytes());
  BinaryReader r(src);
  std::array<std::uint16_t, 4> b{};
  r(b);
  EXPECT_EQ(a, b);
}

TEST(Bp4Format, HeaderRoundtrip) {
  VarMeta meta;
  meta.dtype = DType::kF64;
  meta.serializer = SerializerId::kBp4;
  meta.payload_bytes = 4096;
  meta.global = {100, 200, 300};
  meta.offset = {10, 20, 30};
  meta.count = {50, 60, 70};
  BufferSink sink;
  bp4_write_header(sink, meta);
  EXPECT_EQ(sink.tell(), bp4_header_size(3));
  BufferSource src(sink.bytes());
  const VarMeta out = bp4_read_header(src);
  EXPECT_EQ(out.dtype, DType::kF64);
  EXPECT_EQ(out.payload_bytes, 4096u);
  EXPECT_EQ(out.global, meta.global);
  EXPECT_EQ(out.offset, meta.offset);
  EXPECT_EQ(out.count, meta.count);
  EXPECT_EQ(out.elements(), 50u * 60 * 70);
}

TEST(Bp4Format, ScalarHeaderHasNoDims) {
  VarMeta meta;
  meta.dtype = DType::kI32;
  meta.payload_bytes = 4;
  BufferSink sink;
  bp4_write_header(sink, meta);
  EXPECT_EQ(sink.tell(), bp4_header_size(0));
  BufferSource src(sink.bytes());
  EXPECT_EQ(bp4_read_header(src).ndims(), 0u);
}

TEST(Bp4Format, BadMagicThrows) {
  std::vector<std::byte> junk(64, std::byte{0x42});
  BufferSource src(junk);
  EXPECT_THROW(bp4_read_header(src), SerialError);
}

TEST(Bp4Format, InconsistentDimsThrow) {
  VarMeta meta;
  meta.global = {1, 2};
  meta.offset = {0};
  meta.count = {1, 1};
  BufferSink sink;
  EXPECT_THROW(bp4_write_header(sink, meta), SerialError);
}

TEST(CapnpFormat, HeaderRoundtrip) {
  VarMeta meta;
  meta.dtype = DType::kF32;
  meta.payload_bytes = 1024;
  meta.global = {64, 64};
  meta.offset = {0, 32};
  meta.count = {64, 32};
  BufferSink sink;
  capnp_write_header(sink, meta);
  EXPECT_EQ(sink.tell(), capnp_header_size(2));
  EXPECT_EQ(sink.tell() % 8, 0u);  // whole words
  BufferSource src(sink.bytes());
  const VarMeta out = capnp_read_header(src);
  EXPECT_EQ(out.dtype, DType::kF32);
  EXPECT_EQ(out.payload_bytes, 1024u);
  EXPECT_EQ(out.global, meta.global);
  EXPECT_EQ(out.offset, meta.offset);
  EXPECT_EQ(out.count, meta.count);
}

TEST(CapnpFormat, ZeroCopyAccessors) {
  VarMeta meta;
  meta.dtype = DType::kF64;
  meta.payload_bytes = 16;
  meta.global = {4};
  meta.offset = {2};
  meta.count = {2};
  BufferSink sink;
  capnp_write_header(sink, meta);
  const double payload[2] = {1.5, 2.5};
  sink.write(payload, sizeof(payload));

  const std::byte* rec = sink.bytes().data();
  ASSERT_TRUE(capnp_valid(rec, sink.bytes().size()));
  EXPECT_EQ(capnp_dtype(rec), DType::kF64);
  EXPECT_EQ(capnp_ndims(rec), 1u);
  EXPECT_EQ(capnp_payload_bytes(rec), 16u);
  double out[2];
  std::memcpy(out, capnp_payload(rec), sizeof(out));
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_DOUBLE_EQ(out[1], 2.5);
}

TEST(CapnpFormat, InvalidRecordRejected) {
  std::vector<std::byte> junk(32, std::byte{0x11});
  EXPECT_FALSE(capnp_valid(junk.data(), junk.size()));
  EXPECT_FALSE(capnp_valid(junk.data(), 4));
  BufferSource src(junk);
  EXPECT_THROW((void)capnp_read_header(src), SerialError);
}

TEST(DTypeTest, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::kF64), 8u);
  EXPECT_EQ(dtype_size(DType::kU8), 1u);
  EXPECT_EQ(dtype_size(DType::kStruct), 0u);
  EXPECT_EQ(dtype_name(DType::kF32), "f32");
  EXPECT_EQ(dtype_of_v<double>, DType::kF64);
  EXPECT_EQ(dtype_of_v<std::uint32_t>, DType::kU32);
  EXPECT_EQ(dtype_of_v<Inner>, DType::kStruct);
}

}  // namespace
