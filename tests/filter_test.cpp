// Tests for the transparent filters: codec roundtrips, corruption handling,
// compression effectiveness, and end-to-end use through the pMEMCPY core.
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/serial/filter.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <random>

namespace {

using pmemcpy::serial::filter_decode;
using pmemcpy::serial::filter_encode;
using pmemcpy::serial::FilterId;
using pmemcpy::serial::SerialError;

std::vector<std::byte> as_bytes(const std::vector<double>& v) {
  std::vector<std::byte> out(v.size() * 8);
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

class FilterCodecTest : public ::testing::TestWithParam<FilterId> {};

TEST_P(FilterCodecTest, RoundtripPatterns) {
  const FilterId f = GetParam();
  std::mt19937 rng(7);
  const std::vector<std::vector<std::byte>> inputs = {
      {},                                       // empty
      std::vector<std::byte>(1, std::byte{9}),  // single byte
      std::vector<std::byte>(10000, std::byte{0}),  // constant
      [&] {                                         // random
        std::vector<std::byte> v(4097);
        for (auto& b : v) b = static_cast<std::byte>(rng());
        return v;
      }(),
      [&] {  // smooth doubles
        std::vector<double> v(513);
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = 1000.0 + static_cast<double>(i);
        }
        return as_bytes(v);
      }(),
  };
  for (const auto& in : inputs) {
    const auto enc = filter_encode(f, in);
    std::vector<std::byte> out(in.size());
    filter_decode(f, enc, out);
    ASSERT_EQ(out, in) << filter_name(f) << " size=" << in.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, FilterCodecTest,
                         ::testing::Values(FilterId::kNone, FilterId::kRle,
                                           FilterId::kDelta),
                         [](const auto& info) {
                           return std::string(
                               pmemcpy::serial::filter_name(info.param));
                         });

TEST(FilterCodec, RleCompressesConstantData) {
  std::vector<std::byte> in(100000, std::byte{0x55});
  const auto enc = filter_encode(FilterId::kRle, in);
  EXPECT_LT(enc.size(), in.size() / 50);
}

TEST(FilterCodec, DeltaCompressesMonotoneCounters) {
  std::vector<std::uint64_t> v(10000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1'000'000 + i * 3;
  std::vector<std::byte> in(v.size() * 8);
  std::memcpy(in.data(), v.data(), in.size());
  const auto enc = filter_encode(FilterId::kDelta, in);
  EXPECT_LT(enc.size(), in.size() / 4);
}

TEST(FilterCodec, IncompressibleDataStillRoundtrips) {
  std::mt19937_64 rng(99);
  std::vector<std::byte> in(8192);
  for (auto& b : in) b = static_cast<std::byte>(rng());
  for (const auto f : {FilterId::kRle, FilterId::kDelta}) {
    const auto enc = filter_encode(f, in);
    std::vector<std::byte> out(in.size());
    filter_decode(f, enc, out);
    EXPECT_EQ(out, in);
  }
}

// An empty payload's spans have a null data(), and memcpy with a null
// pointer is undefined even at length 0: every decoder must skip the copy.
TEST(FilterCodec, EmptyPayloadDecodesIntoEmptySpan) {
  for (const FilterId f : {FilterId::kNone, FilterId::kRle, FilterId::kDelta}) {
    SCOPED_TRACE(pmemcpy::serial::filter_name(f));
    const auto enc = filter_encode(f, std::span<const std::byte>{});
    EXPECT_TRUE(enc.empty());
    filter_decode(f, enc, std::span<std::byte>{});
  }
}

TEST(FilterCodec, CorruptStreamsThrow) {
  std::vector<std::byte> out(64);
  // RLE: zero-length run.
  std::vector<std::byte> bad_rle = {std::byte{0}, std::byte{1}};
  EXPECT_THROW(filter_decode(FilterId::kRle, bad_rle, out), SerialError);
  // RLE: odd length.
  std::vector<std::byte> odd = {std::byte{1}};
  EXPECT_THROW(filter_decode(FilterId::kRle, odd, out), SerialError);
  // Delta: truncated varint.
  std::vector<std::byte> bad_delta = {std::byte{0xFF}};
  EXPECT_THROW(filter_decode(FilterId::kDelta, bad_delta, out), SerialError);
}

TEST(FilterCodec, EncodeChargesCpuPass) {
  pmemcpy::sim::Context c;
  pmemcpy::sim::ScopedContext sc(c);
  std::vector<std::byte> in(1 << 20, std::byte{7});
  (void)filter_encode(FilterId::kRle, in);
  EXPECT_GT(c.charged(pmemcpy::sim::Charge::kCpuCopy), 0.0);
}

// --- end-to-end through pMEMCPY --------------------------------------------------

class FilterCoreTest : public ::testing::TestWithParam<FilterId> {};

TEST_P(FilterCoreTest, PieceRoundtripThroughCore) {
  pmemcpy::PmemNode::Options o;
  o.capacity = 64ull << 20;
  pmemcpy::PmemNode node(o);
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.filter = GetParam();
  pmemcpy::PMEM pmem{cfg};
  pmem.mmap("/filtered");

  pmemcpy::Dimensions global{16, 16, 16};
  pmem.alloc<double>("f", global);
  std::vector<double> half(8 * 16 * 16);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = 5.0;  // constant: very compressible
  }
  const std::size_t off_a[3] = {0, 0, 0};
  const std::size_t off_b[3] = {8, 0, 0};
  const std::size_t cnt[3] = {8, 16, 16};
  pmem.store("f", half.data(), 3, off_a, cnt);
  for (std::size_t i = 0; i < half.size(); ++i) half[i] = double(i);
  pmem.store("f", half.data(), 3, off_b, cnt);

  // Symmetric read.
  std::vector<double> out(half.size(), -1);
  pmem.load("f", out.data(), 3, off_b, cnt);
  EXPECT_EQ(out, half);
  // Cross-piece read (general path decodes whole pieces).
  const std::size_t roff[3] = {4, 0, 0};
  const std::size_t rcnt[3] = {8, 16, 16};
  std::vector<double> slab(8 * 16 * 16, -1);
  pmem.load("f", slab.data(), 3, roff, rcnt);
  EXPECT_DOUBLE_EQ(slab[0], 5.0);                      // from piece A
  EXPECT_DOUBLE_EQ(slab[slab.size() - 1], half[4 * 16 * 16 - 1]);  // piece B
  pmem.munmap();
}

INSTANTIATE_TEST_SUITE_P(Filters, FilterCoreTest,
                         ::testing::Values(FilterId::kNone, FilterId::kRle,
                                           FilterId::kDelta),
                         [](const auto& info) {
                           return std::string(
                               pmemcpy::serial::filter_name(info.param));
                         });

TEST(FilterCore, CompressionReducesDeviceBytes) {
  pmemcpy::PmemNode::Options o;
  o.capacity = 128ull << 20;
  std::uint64_t written_plain = 0, written_rle = 0;
  for (const auto f : {FilterId::kNone, FilterId::kRle}) {
    pmemcpy::PmemNode node(o);
    pmemcpy::Config cfg;
    cfg.node = &node;
    cfg.filter = f;
    pmemcpy::PMEM pmem{cfg};
    pmem.mmap("/cmp");
    std::vector<double> zeros(1 << 18, 0.0);  // 2 MiB of zeroes
    const std::size_t dims = zeros.size(), off = 0;
    pmem.alloc<double>("z", 1, &dims);
    const auto before = node.device().bytes_written();
    pmem.store("z", zeros.data(), 1, &off, &dims);
    const auto delta = node.device().bytes_written() - before;
    (f == FilterId::kNone ? written_plain : written_rle) = delta;
    pmem.munmap();
  }
  EXPECT_LT(written_rle, written_plain / 20);
}

TEST(FilterCore, MixedFilterReadersInterop) {
  // A reader with a different configured filter still decodes correctly:
  // the filter travels in the entry meta, not in the reader's config.
  pmemcpy::PmemNode::Options o;
  o.capacity = 64ull << 20;
  pmemcpy::PmemNode node(o);
  pmemcpy::Config w;
  w.node = &node;
  w.filter = FilterId::kDelta;
  pmemcpy::PMEM writer{w};
  writer.mmap("/mix");
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 2;
  const std::size_t dims = v.size(), off = 0;
  writer.alloc<double>("v", 1, &dims);
  writer.store("v", v.data(), 1, &off, &dims);

  pmemcpy::Config r;
  r.node = &node;  // filter defaults to kNone
  pmemcpy::PMEM reader{r};
  reader.mmap("/mix");
  std::vector<double> out(v.size());
  reader.load("v", out.data(), 1, &off, &dims);
  EXPECT_EQ(out, v);
  writer.munmap();
  reader.munmap();
}

}  // namespace
