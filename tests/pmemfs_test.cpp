// Tests for the EXT4-DAX-like filesystem: namespace, POSIX IO, DAX mappings.
#include <pmemcpy/fs/filesystem.hpp>

#include "deadline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

// On-media format the damage tests below write: superblock words 5 and 6
// (bytes 40 and 48) are the inode table's and the data area's offsets;
// inode i sits at itable + (i - 1) * 256 as {u32 type, u32 nextents,
// u64 size, {u64 start, u64 len} ext[12], u64 indirect}, extents counted in
// 4 KiB blocks; an indirect block is {u64 next, u64 count, extents}; a
// directory's first block starts with {seq, content_off, content_len, cap},
// and an entry is {u32 ino, u16 name_len, 2 pad bytes, name}.
std::uint64_t word_at(Device& dev, std::uint64_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, dev.raw(off), sizeof(v));
  return v;
}

std::uint64_t inode_at(Device& dev, pmemcpy::fs::Ino ino) {
  return word_at(dev, 40) + (ino - 1) * 256;
}

std::uint64_t block_at(Device& dev, std::uint64_t blk) {
  return word_at(dev, 48) + blk * 4096;
}

/// 20 fragmented 16-block extents: 12 inline, 8 in one indirect block.
File fragmented_file(FileSystem& fs) {
  File big = fs.open("/frag", OpenMode::kTruncate);
  for (int i = 0; i < 20; ++i) {
    File pad = fs.open("/pad" + std::to_string(i), OpenMode::kTruncate);
    fs.truncate(pad, 4096);
    fs.truncate(big, fs.size(big) + (1 << 16));
  }
  return big;
}

// A damaged next word must end an indirect-extent walk in a typed error,
// not a hang.
TEST_F(FsTest, IndirectChainCycleThrowsInsteadOfHanging) {
  File big = fragmented_file(fs);
  const std::uint64_t self = word_at(dev, inode_at(dev, big.ino()) + 208);
  ASSERT_NE(self, 0u) << "no indirect block";
  std::memcpy(dev.raw(block_at(dev, self)), &self, sizeof(self));
  // Growing the file walks the chain to count the blocks it owns.
  EXPECT_TRUE(pmemcpy::testutil::throws_before_deadline<FsError>(
      [&] { fs.truncate(big, fs.size(big) + (1 << 16)); }));
}

// An extent count past the 12 inline slots must not index beyond them.
TEST_F(FsTest, InlineExtentCountPastItsSlotsThrows) {
  File f = fs.open("/f", OpenMode::kTruncate);
  fs.truncate(f, 3 * 4096);
  const std::uint32_t n = 100000;
  std::memcpy(dev.raw(inode_at(dev, f.ino()) + 4), &n, sizeof(n));
  EXPECT_TRUE(pmemcpy::testutil::throws_before_deadline<FsError>(
      [&] { (void)fs.map(f); }));
}

// An indirect block's count past its 254 extents must not read beyond it.
TEST_F(FsTest, IndirectExtentCountPastItsBlockThrows) {
  File big = fragmented_file(fs);
  const std::uint64_t blk = word_at(dev, inode_at(dev, big.ino()) + 208);
  ASSERT_NE(blk, 0u) << "no indirect block";
  const std::uint64_t n = 100000;
  std::memcpy(dev.raw(block_at(dev, blk) + 8), &n, sizeof(n));
  EXPECT_TRUE(pmemcpy::testutil::throws_before_deadline<FsError>(
      [&] { (void)fs.map(big); }));
}

// A directory entry's name must end inside the live entry list.  A live
// mount serves its committed names from DRAM, so the damage shows at the
// next decode: a fresh mount.
TEST_F(FsTest, DirectoryNamePastItsSlotThrows) {
  (void)fs.open("/a", OpenMode::kTruncate);
  const std::uint64_t dir = block_at(dev, word_at(dev, inode_at(dev, 1) + 16));
  const std::uint16_t n = 60000;
  std::memcpy(dev.raw(dir + word_at(dev, dir + 8) + 4), &n, sizeof(n));
  EXPECT_EQ(fs.list("/"), std::vector<std::string>{"a"});
  EXPECT_TRUE(pmemcpy::testutil::throws_before_deadline<FsError>(
      [&] { (void)FileSystem::mount(dev, 0).list("/"); }));
}

// Mount frees only what a crash can strand.  A directory whose type word
// now says "file" hides a subtree of unnamed inodes that hold data and
// carry no orphan mark: every one of them, and every block, stays.
TEST_F(FsTest, MountKeepsASubtreeHiddenByADirectoryTypedAsAFile) {
  fs.mkdirs("/x/y");
  for (const char* path : {"/x/f", "/x/y/g"}) {
    fs.truncate(fs.open(path, OpenMode::kTruncate), 3 * 4096);
  }
  const pmemcpy::fs::Ino x = fs.open("/x", OpenMode::kRead).ino();
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  const std::uint32_t file = 1;
  std::memcpy(dev.raw(inode_at(dev, x)), &file, sizeof(file));
  FileSystem remounted = FileSystem::mount(dev, 0);
  EXPECT_FALSE(remounted.is_dir("/x"));
  EXPECT_EQ(remounted.free_inodes(), inodes);
  EXPECT_EQ(remounted.free_blocks(), blocks);
}

// A crash between remove()'s orphan mark (the type word's top bit) and its
// directory commit leaves a named inode marked.  Mount clears that mark, so
// damage that later hides the inode cannot make a mount free its data.
TEST_F(FsTest, MountClearsTheOrphanMarkOfANamedInode) {
  fs.mkdir("/x");
  const File f = fs.open("/x/f", OpenMode::kTruncate);
  fs.truncate(f, 4096);
  const pmemcpy::fs::Ino x = fs.open("/x", OpenMode::kRead).ino();
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  const std::uint32_t marked_file = 1 | (1u << 31);
  std::memcpy(dev.raw(inode_at(dev, f.ino())), &marked_file, 4);
  EXPECT_EQ(FileSystem::mount(dev, 0).size("/x/f"), 4096u);
  const std::uint32_t file = 1;
  std::memcpy(dev.raw(inode_at(dev, x)), &file, sizeof(file));
  FileSystem remounted = FileSystem::mount(dev, 0);
  EXPECT_EQ(remounted.free_inodes(), inodes);
  EXPECT_EQ(remounted.free_blocks(), blocks);
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

// The superblock's regions must lie inside the device before mount sizes
// anything from them: word 2 is the block count, word 6 the data offset.
TEST_F(FsTest, MountRejectsSuperblockRegionsOutsideTheDevice) {
  for (const auto& [word, value] :
       {std::pair<int, std::uint64_t>{2, ~std::uint64_t{0}}, {6, kFsSize}}) {
    SCOPED_TRACE("superblock word " + std::to_string(word));
    const std::uint64_t good = word_at(dev, word * 8);
    std::memcpy(dev.raw(word * 8), &value, sizeof(value));
    EXPECT_THROW(FileSystem::mount(dev, 0), FsError);
    std::memcpy(dev.raw(word * 8), &good, sizeof(good));
  }
  EXPECT_NO_THROW(FileSystem::mount(dev, 0));
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

TEST_F(FsTest, MappingLoadOverBadMediaThrows) {
  auto m = fs.create_mapped("/bad", 4096);
  const auto span = m.direct_read_span(0, 4096);
  const auto dev_off = static_cast<std::size_t>(span.data() - dev.raw());
  dev.inject_read_error(dev_off + 100, 8);
  std::array<std::byte, 16> out{};
  EXPECT_THROW(m.load(96, out.data(), out.size()), pmemcpy::pmem::DeviceError);
  EXPECT_THROW((void)m.direct_read_span(0, 4096), pmemcpy::pmem::DeviceError);
  m.load(0, out.data(), out.size());  // clear of the bad range
}

// A powered-off device drops mapping stores, as it drops Pool::write's.
TEST(FsCrash, MappingStoreAfterAScheduledCrashLeavesTheImage) {
  Device dev(kFsSize, /*crash_shadow=*/true);
  FileSystem fs = FileSystem::format(dev, 0, kFsSize);
  auto m = fs.create_mapped("/f", 4096);
  const std::uint64_t one = 1, two = 2;
  m.store(0, &one, sizeof(one));
  m.persist(0, sizeof(one));
  pmemcpy::pmem::FaultPlan plan;
  plan.crash_at_persist = dev.persist_ops() + 1;
  dev.set_fault_plan(plan);
  EXPECT_THROW(m.persist(0, sizeof(one)), pmemcpy::pmem::CrashError);
  ASSERT_TRUE(dev.frozen());
  m.store(0, &two, sizeof(two));
  std::uint64_t out = 0;
  m.load(0, &out, sizeof(out));
  EXPECT_EQ(out, one);
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
  fs.rename("/a", "/b");
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
  fs.rename("/a", "/b");
  // The old /b's blocks came back.
  EXPECT_EQ(fs.free_blocks(), free_before + (1 << 18) / 4096);
  EXPECT_EQ(fs.size("/b"), 1u << 16);
}

// Every inode has at most one name, and a rename moves it only within its
// directory.
TEST_F(FsTest, RenameAcrossDirectories) {
  fs.mkdirs("/x/y");
  (void)fs.open("/x/f", OpenMode::kTruncate);
  EXPECT_THROW(fs.rename("/x/f", "/x/y/g"), FsError);
  auto names = fs.list("/x");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"f", "y"}));
  EXPECT_TRUE(fs.list("/x/y").empty());
}

TEST_F(FsTest, LinkNamesAnUnnamedFileOverItsTarget) {
  fs.mkdir("/d");
  fs.truncate(fs.open("/d/t", OpenMode::kTruncate), 1 << 18);
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  const File f = fs.create_unnamed();
  fs.truncate(f, 4096);
  EXPECT_EQ(fs.list("/d"), (std::vector<std::string>{"t"}));
  EXPECT_TRUE(fs.link(f, "/d/t"));
  EXPECT_EQ(fs.open("/d/t", OpenMode::kRead).ino(), f.ino());
  EXPECT_EQ(fs.size("/d/t"), 4096u);
  // The old target is released, and the linked file lost its orphan mark.
  EXPECT_EQ(fs.free_inodes(), inodes);
  EXPECT_EQ(fs.free_blocks(), blocks + (1 << 18) / 4096 - 1);
  std::uint32_t type = 0;
  std::memcpy(&type, dev.raw(inode_at(dev, f.ino())), sizeof(type));
  EXPECT_EQ(type, 1u);
}

TEST_F(FsTest, LinkWithoutReplaceKeepsTheTargetAndReleasesTheFile) {
  const File t = fs.open("/t", OpenMode::kTruncate);
  const std::uint64_t vt = 2;
  fs.pwrite(t, &vt, 8, 0);
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  const File f = fs.create_unnamed();
  fs.truncate(f, 4096);
  EXPECT_FALSE(fs.link(f, "/t", /*replace=*/false));
  EXPECT_EQ(fs.open("/t", OpenMode::kRead).ino(), t.ino());
  std::uint64_t out = 0;
  fs.pread(fs.open("/t", OpenMode::kRead), &out, 8, 0);
  EXPECT_EQ(out, 2u);  // target untouched
  EXPECT_EQ(fs.free_inodes(), inodes);
  EXPECT_EQ(fs.free_blocks(), blocks);
}

TEST_F(FsTest, FailedLinkAndDiscardReleaseTheFile) {
  fs.mkdir("/d");
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  const auto unnamed = [&] {
    const File f = fs.create_unnamed();
    fs.truncate(f, 4096);
    return f;
  };
  EXPECT_THROW(fs.link(unnamed(), "/d"), FsError);       // over a directory
  EXPECT_THROW(fs.link(unnamed(), "/none/f"), FsError);  // no such directory
  EXPECT_THROW(fs.link(unnamed(), "/d/" + std::string(256, 'n')), FsError);
  fs.discard(unnamed());
  EXPECT_TRUE(fs.is_dir("/d"));
  EXPECT_EQ(fs.free_inodes(), inodes);
  EXPECT_EQ(fs.free_blocks(), blocks);
}

// link() and discard() take only an unnamed file, so no inode gets a second
// name and no named inode is freed.
TEST_F(FsTest, LinkAndDiscardRejectANamedFile) {
  const File a = fs.open("/a", OpenMode::kTruncate);
  fs.truncate(a, 4096);
  const File f = fs.create_unnamed();
  ASSERT_TRUE(fs.link(f, "/b"));
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  for (const File named : {a, f}) {
    EXPECT_THROW(fs.link(named, "/c"), FsError);
    EXPECT_THROW(fs.discard(named), FsError);
  }
  EXPECT_THROW(fs.link(File{}, "/c"), FsError);
  auto names = fs.list("/");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fs.open("/a", OpenMode::kRead).ino(), a.ino());
  EXPECT_EQ(fs.open("/b", OpenMode::kRead).ino(), f.ino());
  EXPECT_EQ(fs.free_inodes(), inodes);
  EXPECT_EQ(fs.free_blocks(), blocks);
}

// A name is 1 to 255 bytes wherever it enters a directory.
TEST_F(FsTest, NamePastItsLimitThrows) {
  const std::string ok(255, 'n');
  const std::string over(256, 'n');
  (void)fs.open("/" + ok, OpenMode::kTruncate);
  EXPECT_THROW((void)fs.open("/" + over, OpenMode::kTruncate), FsError);
  EXPECT_THROW(fs.rename("/" + ok, "/" + over), FsError);
  EXPECT_THROW(fs.rename("/" + ok, "/" + std::string(70000, 'n')), FsError);
  EXPECT_EQ(fs.list("/"), (std::vector<std::string>{ok}));
}

// An unnamed file carries the orphan mark from birth: a mount frees it
// unless link() named it.
TEST_F(FsTest, MountFreesAnUnnamedFile) {
  const std::uint64_t inodes = fs.free_inodes();
  const std::uint64_t blocks = fs.free_blocks();
  fs.truncate(fs.create_unnamed(), 3 * 4096);
  FileSystem remounted = FileSystem::mount(dev, 0);
  EXPECT_EQ(remounted.free_inodes(), inodes);
  EXPECT_EQ(remounted.free_blocks(), blocks);
}

TEST_F(FsTest, RenameMissingSourceThrows) {
  EXPECT_THROW(fs.rename("/none", "/b"), FsError);
}

/// /d holds @p names empty files; the device bytes read by one create plus
/// one rename-over in /d, and the inode the create after that takes.
struct NamespaceCost {
  std::uint64_t bytes_read;
  pmemcpy::fs::Ino next;
};

NamespaceCost create_and_rename_over(std::size_t names, bool remount) {
  Device dev(kFsSize);
  FileSystem fs = FileSystem::format(dev, 0, kFsSize);
  fs.mkdir("/d");
  for (std::size_t i = 0; i < names; ++i) {
    (void)fs.open("/d/f" + std::to_string(i), OpenMode::kTruncate);
  }
  for (std::size_t i = 1; i < names; i += 3) {
    fs.remove("/d/f" + std::to_string(i));  // holes for first fit to fill
  }
  const std::uint64_t before = dev.bytes_read();
  (void)fs.open("/d/new", OpenMode::kTruncate);
  fs.rename("/d/new", "/d/f0");
  const std::uint64_t bytes = dev.bytes_read() - before;
  if (!remount) return {bytes, fs.open("/d/next", OpenMode::kTruncate).ino()};
  FileSystem again = FileSystem::mount(dev, 0);
  return {bytes, again.open("/d/next", OpenMode::kTruncate).ino()};
}

// Inode allocation and name lookup run on DRAM, so a namespace op reads the
// same device bytes whatever the directory or inode table holds, and a
// remount rebuilds the same first-fit order.
TEST(FsScaling, NamespaceOpsReadTheSameBytesAt10And1000Names) {
  EXPECT_EQ(create_and_rename_over(1000, false).bytes_read,
            create_and_rename_over(10, false).bytes_read);
  for (const std::size_t names : {10, 1000}) {
    SCOPED_TRACE(std::to_string(names) + " names");
    EXPECT_EQ(create_and_rename_over(names, true).next,
              create_and_rename_over(names, false).next);
  }
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
