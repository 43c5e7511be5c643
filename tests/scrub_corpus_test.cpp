// Corruption corpus for PMEM::scrub() (DESIGN.md §10).
//
// scrub() promises: every stored key is examined exactly once, silent
// payload corruption — bit rot, torn lines — surfaces as a checksum
// mismatch, unreadable media surfaces as a typed media-error item, and every
// item carries its device-absolute blob offset so an operator can map damage
// to hardware.
//
// Corruption is planted by mutating device bytes through raw() — invisible
// to crash tracking and checksums alike, exactly like rot under a real DAX
// mapping — or by injecting media read errors.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/pmemcpy.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace {

constexpr std::size_t kNodeCapacity = 8ull << 20;

pmemcpy::PmemNode::Options node_opts() {
  pmemcpy::PmemNode::Options o;
  o.capacity = kNodeCapacity;
  o.pool_fraction = 0.5;
  return o;
}

pmemcpy::Config make_cfg(pmemcpy::PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.auto_grow_table = false;
  return cfg;
}

struct BlobLoc {
  std::uint64_t dev_off = 0;
  std::size_t size = 0;
};

BlobLoc locate_blob(pmemcpy::PMEM& p, pmemcpy::pmem::Device& dev,
                    const std::string& key) {
  BlobLoc loc;
  p.for_each_raw([&](const std::string& k, std::span<const std::byte> blob,
                     std::uint64_t) {
    if (k != key) return;
    loc.dev_off = static_cast<std::uint64_t>(blob.data() - dev.raw());
    loc.size = blob.size();
  });
  EXPECT_NE(loc.dev_off, 0u) << "no raw entry named " << key;
  return loc;
}

/// Flip one byte of device memory behind the library's back (rot: no
/// note_write, no checksum update).
void flip_byte(pmemcpy::pmem::Device& dev, std::uint64_t dev_off) {
  *dev.raw(dev_off) ^= std::byte{0x40};
}

TEST(ScrubCorpus, CleanPoolHasNoFalsePositives) {
  pmemcpy::PmemNode node(node_opts());
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("scrub.clean");
  p.store("int", 42);
  p.store("vec", std::vector<double>{1.0, 2.0, 3.0});
  p.store("str", std::string("persistent"));
  p.store("empty", std::string(""));

  auto rep = p.scrub();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.entries, 4u);

  // Still clean across an unmount/remount cycle.
  p.munmap();
  node.remount();
  pmemcpy::PMEM p2(make_cfg(node));
  p2.mmap("scrub.clean");
  rep = p2.scrub();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.entries, 4u);
  p2.munmap();
}

TEST(ScrubCorpus, BitFlipsAreCaughtAtEveryOffset) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("scrub.rot");

  const std::vector<int> payload(64, 7);
  for (int i = 0; i < 6; ++i) {
    p.store("r" + std::to_string(i), payload);
  }

  // Rot the first, a middle, and the last byte of three different blobs.
  const auto l0 = locate_blob(p, dev, "r0");
  const auto l2 = locate_blob(p, dev, "r2");
  const auto l4 = locate_blob(p, dev, "r4");
  flip_byte(dev, l0.dev_off);
  flip_byte(dev, l2.dev_off + l2.size / 2);
  flip_byte(dev, l4.dev_off + l4.size - 1);

  const auto rep = p.scrub();
  EXPECT_EQ(rep.entries, 6u);
  ASSERT_EQ(rep.corrupt.size(), 3u);
  std::vector<std::string> bad;
  for (const auto& item : rep.corrupt) {
    bad.push_back(item.key);
    EXPECT_EQ(item.issue, "checksum mismatch");
    EXPECT_NE(item.dev_off, 0u);
  }
  std::sort(bad.begin(), bad.end());
  EXPECT_EQ(bad, (std::vector<std::string>{"r0", "r2", "r4"}));

  // Checksummed loads refuse the rotted bytes; healthy keys still load.
  EXPECT_THROW((void)p.load<std::vector<int>>("r0"), pmemcpy::IntegrityError);
  EXPECT_EQ(p.load<std::vector<int>>("r1"), payload);
  p.munmap();
}

TEST(ScrubCorpus, TornCachelineIsCaught) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("scrub.torn");

  // Big enough to span several cachelines.
  p.store("torn", std::vector<std::uint64_t>(64, 0xABCDEFull));
  p.store("whole", 1);

  // A torn write: one interior cacheline silently reverts to stale bytes.
  const auto loc = locate_blob(p, dev, "torn");
  const std::uint64_t line =
      (loc.dev_off + 128) / pmemcpy::pmem::kCacheLine * pmemcpy::pmem::kCacheLine;
  std::memset(dev.raw(line), 0x5A, pmemcpy::pmem::kCacheLine);

  const auto rep = p.scrub();
  ASSERT_EQ(rep.corrupt.size(), 1u);
  EXPECT_EQ(rep.corrupt[0].key, "torn");
  EXPECT_EQ(rep.corrupt[0].issue, "checksum mismatch");
  EXPECT_EQ(rep.corrupt[0].dev_off, loc.dev_off);
  p.munmap();
}

TEST(ScrubCorpus, MediaErrorsAreTypedWithProvenance) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("scrub.media");
  p.store("dead", std::string("unreachable bytes"));
  p.store("alive", 5);

  const auto loc = locate_blob(p, dev, "dead");
  dev.inject_read_error(loc.dev_off + 4, 8);

  const auto rep = p.scrub();
  EXPECT_EQ(rep.entries, 2u);
  ASSERT_EQ(rep.corrupt.size(), 1u);
  EXPECT_EQ(rep.corrupt[0].key, "dead");
  EXPECT_EQ(rep.corrupt[0].issue.rfind("media error: ", 0), 0u)
      << rep.corrupt[0].issue;
  EXPECT_EQ(rep.corrupt[0].dev_off, loc.dev_off);
  EXPECT_EQ(p.load<int>("alive"), 5);

  // Clearing the injected error clears the report: the bytes were intact.
  dev.clear_read_errors();
  EXPECT_TRUE(p.scrub().ok());
  p.munmap();
}

}  // namespace
