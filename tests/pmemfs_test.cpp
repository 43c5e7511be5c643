// Tests for the EXT4-DAX-like filesystem: namespace, POSIX IO, DAX mappings.
#include <pmemcpy/fs/filesystem.hpp>

#include "deadline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

namespace {

using pmemcpy::fs::File;
using pmemcpy::fs::FileSystem;
using pmemcpy::fs::FsError;
using pmemcpy::fs::OpenMode;
using pmemcpy::pmem::Device;
using pmemcpy::sim::Charge;

constexpr std::size_t kFsSize = 64ull << 20;

struct FsTest : ::testing::Test {
  FsTest() : dev(kFsSize), fs(FileSystem::format(dev, 0, kFsSize)) {}
  Device dev;
  FileSystem fs;
};

TEST_F(FsTest, MkdirAndExists) {
  fs.mkdir("/a");
  EXPECT_TRUE(fs.exists("/a"));
  EXPECT_TRUE(fs.is_dir("/a"));
  EXPECT_FALSE(fs.exists("/b"));
}

TEST_F(FsTest, MkdirsCreatesChain) {
  fs.mkdirs("/x/y/z");
  EXPECT_TRUE(fs.is_dir("/x"));
  EXPECT_TRUE(fs.is_dir("/x/y"));
  EXPECT_TRUE(fs.is_dir("/x/y/z"));
  fs.mkdirs("/x/y/z");  // idempotent
}

TEST_F(FsTest, MkdirIntoMissingParentThrows) {
  EXPECT_THROW(fs.mkdir("/no/sub"), FsError);
}

TEST_F(FsTest, RelativePathThrows) {
  EXPECT_THROW(fs.mkdir("rel"), FsError);
}

TEST_F(FsTest, OpenCreateWriteRead) {
  File f = fs.open("/file.bin", OpenMode::kTruncate);
  std::vector<std::uint8_t> in(100000);
  std::iota(in.begin(), in.end(), 1);
  EXPECT_EQ(fs.pwrite(f, in.data(), in.size(), 0), in.size());
  EXPECT_EQ(fs.size(f), in.size());
  std::vector<std::uint8_t> out(in.size());
  EXPECT_EQ(fs.pread(f, out.data(), out.size(), 0), out.size());
  EXPECT_EQ(in, out);
}

TEST_F(FsTest, OpenMissingForReadThrows) {
  EXPECT_THROW((void)fs.open("/nope", OpenMode::kRead), FsError);
}

TEST_F(FsTest, TruncateDropsContents) {
  File f = fs.open("/t", OpenMode::kTruncate);
  const std::uint64_t v = 7;
  fs.pwrite(f, &v, 8, 0);
  File g = fs.open("/t", OpenMode::kTruncate);
  EXPECT_EQ(fs.size(g), 0u);
}

TEST_F(FsTest, WriteAtOffsetExtends) {
  File f = fs.open("/sparse", OpenMode::kTruncate);
  const std::uint64_t v = 0xAB;
  fs.pwrite(f, &v, 8, 1 << 20);
  EXPECT_EQ(fs.size(f), (1u << 20) + 8u);
  std::uint64_t out = 0;
  fs.pread(f, &out, 8, 1 << 20);
  EXPECT_EQ(out, 0xABu);
}

TEST_F(FsTest, PreadPastEofReturnsShort) {
  File f = fs.open("/short", OpenMode::kTruncate);
  std::vector<std::uint8_t> data(100, 1);
  fs.pwrite(f, data.data(), 100, 0);
  std::vector<std::uint8_t> out(200, 0);
  EXPECT_EQ(fs.pread(f, out.data(), 200, 50), 50u);
  EXPECT_EQ(fs.pread(f, out.data(), 10, 500), 0u);
}

TEST_F(FsTest, LargeFileSpansIndirectExtents) {
  // Force fragmentation so the file needs many extents: allocate small
  // files in between.
  for (int i = 0; i < 20; ++i) {
    File pad = fs.open("/pad" + std::to_string(i), OpenMode::kTruncate);
    fs.truncate(pad, 4096);
    File big = fs.open("/frag", OpenMode::kWrite);
    fs.truncate(big, fs.size(big) + (1 << 16));
  }
  File big = fs.open("/frag", OpenMode::kWrite);
  const std::uint64_t sz = fs.size(big);
  std::vector<std::uint8_t> in(sz);
  std::iota(in.begin(), in.end(), 3);
  fs.pwrite(big, in.data(), sz, 0);
  std::vector<std::uint8_t> out(sz);
  fs.pread(big, out.data(), sz, 0);
  EXPECT_EQ(in, out);
}

// A damaged next word must end an indirect-extent walk in a typed error,
// not a hang.  On-media format: the superblock's seventh word is the data
// area's offset, and an indirect block is {next, count, extents}, counted
// in blocks.
TEST_F(FsTest, IndirectChainCycleThrowsInsteadOfHanging) {
  // 20 fragmented 16-block extents: 12 inline, 8 in one indirect block.
  File big = fs.open("/frag", OpenMode::kTruncate);
  for (int i = 0; i < 20; ++i) {
    File pad = fs.open("/pad" + std::to_string(i), OpenMode::kTruncate);
    fs.truncate(pad, 4096);
    fs.truncate(big, fs.size(big) + (1 << 16));
  }
  std::uint64_t data_off = 0;
  std::memcpy(&data_off, dev.raw(48), sizeof(data_off));
  std::uint64_t self = 0;
  for (std::uint64_t off = data_off; off < kFsSize && self == 0;
       off += 4096) {
    std::uint64_t w[4];
    std::memcpy(w, dev.raw(off), sizeof(w));
    if (w[0] == 0 && w[1] == 8 && w[3] == 16) self = (off - data_off) / 4096;
  }
  ASSERT_NE(self, 0u) << "no indirect block found";
  std::memcpy(dev.raw(data_off + self * 4096), &self, sizeof(self));
  // Growing the file walks the chain to count the blocks it owns.
  EXPECT_TRUE(pmemcpy::testutil::throws_before_deadline<FsError>(
      [&] { fs.truncate(big, fs.size(big) + (1 << 16)); }));
}

TEST_F(FsTest, ListDirectory) {
  fs.mkdir("/d");
  (void)fs.open("/d/one", OpenMode::kTruncate);
  (void)fs.open("/d/two", OpenMode::kTruncate);
  auto names = fs.list("/d");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"one", "two"}));
}

TEST_F(FsTest, RemoveFileFreesBlocks) {
  File f = fs.open("/big", OpenMode::kTruncate);
  // Measure after creation: the directory entry itself costs a block that
  // outlives the file.
  const auto before = fs.free_blocks();
  fs.truncate(f, 1 << 20);
  EXPECT_LT(fs.free_blocks(), before);
  fs.remove("/big");
  EXPECT_EQ(fs.free_blocks(), before);
  EXPECT_FALSE(fs.exists("/big"));
}

TEST_F(FsTest, RemoveNonEmptyDirThrows) {
  fs.mkdir("/d");
  (void)fs.open("/d/f", OpenMode::kTruncate);
  EXPECT_THROW(fs.remove("/d"), FsError);
  fs.remove("/d/f");
  fs.remove("/d");
  EXPECT_FALSE(fs.exists("/d"));
}

TEST_F(FsTest, DuplicateNameThrows) {
  fs.mkdir("/dup");
  EXPECT_THROW(fs.mkdir("/dup"), FsError);
}

TEST_F(FsTest, MountSeesExistingData) {
  {
    File f = fs.open("/persist", OpenMode::kTruncate);
    const std::uint64_t v = 0x1234;
    fs.pwrite(f, &v, 8, 0);
  }
  FileSystem fs2 = FileSystem::mount(dev, 0);
  File f = fs2.open("/persist", OpenMode::kRead);
  std::uint64_t out = 0;
  fs2.pread(f, &out, 8, 0);
  EXPECT_EQ(out, 0x1234u);
  EXPECT_EQ(fs2.free_blocks(), fs.free_blocks());
}

TEST_F(FsTest, MountGarbageThrows) {
  Device other(1 << 20);
  EXPECT_THROW(FileSystem::mount(other, 0), FsError);
}

TEST_F(FsTest, PosixPathChargesSyscallAndCopy) {
  pmemcpy::sim::Context c;
  pmemcpy::sim::ScopedContext sc(c);
  File f = fs.open("/charged", OpenMode::kTruncate);
  std::vector<std::byte> buf(1 << 16);
  fs.pwrite(f, buf.data(), buf.size(), 0);
  EXPECT_GT(c.charged(Charge::kSyscall), 0.0);
  EXPECT_GT(c.charged(Charge::kCpuCopy), 0.0);
  EXPECT_GT(c.charged(Charge::kPmemWrite), 0.0);
}

TEST_F(FsTest, DaxPathAvoidsKernelCopies) {
  File f = fs.open("/dax", OpenMode::kTruncate);
  fs.truncate(f, 1 << 16);
  pmemcpy::sim::Context c;
  pmemcpy::sim::ScopedContext sc(c);
  auto m = fs.map(f);
  std::vector<std::byte> buf(1 << 16, std::byte{0x5A});
  m.store(0, buf.data(), buf.size());
  EXPECT_DOUBLE_EQ(c.charged(Charge::kCpuCopy), 0.0);  // zero copy
  EXPECT_GT(c.charged(Charge::kPmemWrite), 0.0);
  std::vector<std::byte> out(1 << 16);
  m.load(0, out.data(), out.size());
  EXPECT_EQ(out, buf);
}

TEST_F(FsTest, MappingRoundtripAndPersist) {
  auto m = fs.create_mapped("/mapped", 1 << 18);
  std::vector<std::uint32_t> in(1024);
  std::iota(in.begin(), in.end(), 9);
  m.store(4096, in.data(), in.size() * 4);
  m.persist(4096, in.size() * 4);
  std::vector<std::uint32_t> out(1024);
  m.load(4096, out.data(), out.size() * 4);
  EXPECT_EQ(in, out);
}

TEST_F(FsTest, MappingOutOfRangeThrows) {
  auto m = fs.create_mapped("/small", 4096);
  std::byte b{};
  EXPECT_THROW(m.store(4095, &b, 2), FsError);
  EXPECT_THROW(m.load(4096, &b, 1), FsError);
}

TEST_F(FsTest, MappingSpanContiguous) {
  auto m = fs.create_mapped("/span", 1 << 16);
  auto s = m.direct_write_span(0, 1 << 16);  // fresh file: one extent
  EXPECT_EQ(s.size(), 1u << 16);
  s[100] = std::byte{0x77};
  std::byte out{};
  m.load(100, &out, 1);
  EXPECT_EQ(out, std::byte{0x77});
}

TEST_F(FsTest, ConcurrentWritersToDifferentFiles) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string path = "/c" + std::to_string(t);
      File f = fs.open(path, OpenMode::kTruncate);
      std::vector<std::uint8_t> data(50000,
                                     static_cast<std::uint8_t>(t + 1));
      fs.pwrite(f, data.data(), data.size(), 0);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    File f = fs.open("/c" + std::to_string(t), OpenMode::kRead);
    std::vector<std::uint8_t> out(50000);
    fs.pread(f, out.data(), out.size(), 0);
    for (auto v : out) ASSERT_EQ(v, static_cast<std::uint8_t>(t + 1));
  }
}

TEST_F(FsTest, SharedFileDisjointRegions) {
  // The miniio write pattern: pre-sized file, ranks pwrite disjoint ranges.
  File f0 = fs.open("/shared", OpenMode::kTruncate);
  fs.truncate(f0, 8 * 100000);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      File f = fs.open("/shared", OpenMode::kWrite);
      std::vector<std::uint8_t> data(100000,
                                     static_cast<std::uint8_t>(t + 1));
      fs.pwrite(f, data.data(), data.size(),
                static_cast<std::uint64_t>(t) * 100000);
    });
  }
  for (auto& th : threads) th.join();
  File f = fs.open("/shared", OpenMode::kRead);
  for (int t = 0; t < kThreads; ++t) {
    std::uint8_t v = 0;
    fs.pread(f, &v, 1, static_cast<std::uint64_t>(t) * 100000 + 17);
    EXPECT_EQ(v, static_cast<std::uint8_t>(t + 1));
  }
}

TEST_F(FsTest, RenameMovesFile) {
  File f = fs.open("/a", OpenMode::kTruncate);
  const std::uint64_t v = 9;
  fs.pwrite(f, &v, 8, 0);
  EXPECT_TRUE(fs.rename("/a", "/b"));
  EXPECT_FALSE(fs.exists("/a"));
  File g = fs.open("/b", OpenMode::kRead);
  std::uint64_t out = 0;
  fs.pread(g, &out, 8, 0);
  EXPECT_EQ(out, 9u);
}

TEST_F(FsTest, RenameReplacesTargetAndFreesIt) {
  File a = fs.open("/a", OpenMode::kTruncate);
  fs.truncate(a, 1 << 16);
  File b = fs.open("/b", OpenMode::kTruncate);
  fs.truncate(b, 1 << 18);
  const auto free_before = fs.free_blocks();
  EXPECT_TRUE(fs.rename("/a", "/b"));
  // The old /b's blocks came back.
  EXPECT_EQ(fs.free_blocks(), free_before + (1 << 18) / 4096);
  EXPECT_EQ(fs.size("/b"), 1u << 16);
}

TEST_F(FsTest, RenameNoReplaceKeepsTarget) {
  File a = fs.open("/a", OpenMode::kTruncate);
  const std::uint64_t va = 1;
  fs.pwrite(a, &va, 8, 0);
  File b = fs.open("/b", OpenMode::kTruncate);
  const std::uint64_t vb = 2;
  fs.pwrite(b, &vb, 8, 0);
  EXPECT_FALSE(fs.rename("/a", "/b", /*replace=*/false));
  EXPECT_FALSE(fs.exists("/a"));  // source discarded
  std::uint64_t out = 0;
  File g = fs.open("/b", OpenMode::kRead);
  fs.pread(g, &out, 8, 0);
  EXPECT_EQ(out, 2u);  // target untouched
}

TEST_F(FsTest, RenameAcrossDirectories) {
  fs.mkdirs("/x/y");
  (void)fs.open("/x/f", OpenMode::kTruncate);
  EXPECT_TRUE(fs.rename("/x/f", "/x/y/g"));
  EXPECT_TRUE(fs.exists("/x/y/g"));
}

TEST_F(FsTest, RenameMissingSourceThrows) {
  EXPECT_THROW(fs.rename("/none", "/b"), FsError);
}

TEST(FsFormat, TooSmallThrows) {
  Device dev(1 << 20);
  EXPECT_THROW(FileSystem::format(dev, 0, 128 * 1024), FsError);
}

TEST(FsFormat, OutOfSpaceThrows) {
  Device dev(8ull << 20);
  FileSystem fs = FileSystem::format(dev, 0, 8ull << 20);
  File f = fs.open("/huge", OpenMode::kTruncate);
  EXPECT_THROW(fs.truncate(f, 64ull << 20), FsError);
}

}  // namespace
