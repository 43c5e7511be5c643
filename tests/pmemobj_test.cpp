// Tests for the libpmemobj-lite pool: allocator, recovery, integrity.
#include <pmemcpy/obj/pool.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <thread>

namespace {

using pmemcpy::obj::Pool;
using pmemcpy::obj::PoolError;
using pmemcpy::obj::PoolOptions;
using pmemcpy::pmem::Device;

constexpr std::size_t kPool = 32ull << 20;

TEST(PoolTest, CreateOpenRoundtrip) {
  Device dev(kPool);
  {
    Pool p = Pool::create(dev, 0, kPool);
    p.set_root(1234);
  }
  Pool p = Pool::open(dev, 0);
  EXPECT_EQ(p.root(), 1234u);
}

TEST(PoolTest, OpenUnformattedThrows) {
  Device dev(kPool);
  dev.fill(0, 4096, std::byte{0});
  EXPECT_THROW(Pool::open(dev, 0), PoolError);
}

TEST(PoolTest, CreateTooSmallThrows) {
  Device dev(kPool);
  EXPECT_THROW(Pool::create(dev, 0, 64 * 1024), PoolError);
}

TEST(PoolTest, AllocBasics) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(100);
  const auto b = p.alloc(100);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_GE(p.usable_size(a), 100u);
  // Payloads do not overlap.
  std::vector<std::byte> ones(100, std::byte{0xAA});
  std::vector<std::byte> twos(100, std::byte{0x55});
  p.write(a, ones.data(), 100);
  p.write(b, twos.data(), 100);
  std::vector<std::byte> out(100);
  p.read(a, out.data(), 100);
  EXPECT_EQ(out, ones);
}

TEST(PoolTest, AllocZeroBytesStillValid) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(0);
  EXPECT_NE(a, 0u);
  EXPECT_GE(p.usable_size(a), 1u);
}

TEST(PoolTest, FreeAndReuseSmall) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(100);
  p.free(a);
  const auto b = p.alloc(100);  // same size class -> reuses the chunk
  EXPECT_EQ(a, b);
}

TEST(PoolTest, FreeAndReuseLarge) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(1 << 20);
  p.free(a);
  const auto b = p.alloc(1 << 20);
  EXPECT_EQ(a, b);
}

TEST(PoolTest, LargeSplitLeavesUsableRemainder) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto big = p.alloc(4 << 20);
  p.free(big);
  const auto small = p.alloc(128 * 1024);  // first-fit splits the 4 MiB chunk
  const auto rest = p.alloc(2 << 20);      // remainder serves this
  EXPECT_NE(small, 0u);
  EXPECT_NE(rest, 0u);
}

TEST(PoolTest, BytesInUseTracksAllocFree) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto before = p.bytes_in_use();
  const auto a = p.alloc(1000);
  EXPECT_GT(p.bytes_in_use(), before);
  p.free(a);
  EXPECT_EQ(p.bytes_in_use(), before);
}

TEST(PoolTest, ExhaustionThrowsBadAlloc) {
  Device dev(8ull << 20);
  Pool p = Pool::create(dev, 0, 8ull << 20);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) p.alloc(1 << 20);
      },
      std::bad_alloc);
}

TEST(PoolTest, FreeGarbageOffsetThrows) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  EXPECT_THROW(p.free(12345678), PoolError);
}

TEST(PoolTest, OutOfRangeAccessThrows) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  std::byte b{};
  EXPECT_THROW(p.write(kPool + 10, &b, 1), std::out_of_range);
  EXPECT_THROW(p.read(kPool - 1, &b, 2), std::out_of_range);
}

TEST(PoolTest, AllocStressRandomSizesNoOverlap) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::size_t> size_d(1, 200000);
  std::map<std::uint64_t, std::size_t> live;  // off -> size
  for (int i = 0; i < 500; ++i) {
    if (live.size() > 50 && rng() % 2 == 0) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      p.free(it->first);
      live.erase(it);
    } else {
      const std::size_t sz = size_d(rng);
      const auto off = p.alloc(sz);
      // No overlap with any live allocation.
      for (const auto& [o, s] : live) {
        EXPECT_TRUE(off + sz <= o || o + s <= off)
            << "overlap: [" << off << "+" << sz << ") vs [" << o << "+" << s
            << ")";
      }
      live[off] = sz;
    }
  }
}

TEST(PoolTest, ConcurrentAllocNoOverlap) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::vector<std::uint64_t>> offs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        offs[static_cast<std::size_t>(t)].push_back(
            p.alloc(64 + static_cast<std::size_t>(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : offs) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

// ---------------------------------------------------------------------------
// Crash recovery (power failure with stores still in CPU caches)
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, UnpersistedWritesRevert) {
  Device dev(1 << 20, /*crash_shadow=*/true);
  const std::uint64_t v1 = 0x1111111111111111ull;
  const std::uint64_t v2 = 0x2222222222222222ull;
  dev.write(0, &v1, 8);
  dev.persist(0, 8);
  dev.write(0, &v2, 8);  // not persisted
  EXPECT_GT(dev.unpersisted_lines(), 0u);
  dev.simulate_crash();
  std::uint64_t out = 0;
  dev.read(0, &out, 8);
  EXPECT_EQ(out, v1);
}

TEST(PoolCheckTest, CleanPoolPasses) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(100);
  const auto b = p.alloc(5000);
  const auto c = p.alloc(200000);
  p.free(b);
  (void)a;
  (void)c;
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_GE(rep.chunks_walked, 3u);
  EXPECT_GE(rep.free_chunks, 1u);
  EXPECT_EQ(rep.bytes_in_use, p.bytes_in_use());
}

TEST(PoolCheckTest, DetectsPoolHeaderCorruption) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  // Scribble the header's size field without updating its CRC.
  const std::uint64_t bogus = kPool / 2;
  p.write(64 + 16, &bogus, sizeof(bogus));
  p.persist(64 + 16, sizeof(bogus));
  const auto rep = p.check();
  EXPECT_FALSE(rep.ok());
}

TEST(PoolCheckTest, DetectsCorruptChunkHeader) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(100);
  ASSERT_TRUE(p.check().ok());
  // Clobber the chunk-header check word (header sits 16 bytes before the
  // payload, check word in its last 4 bytes).
  const std::uint32_t junk = 0xDEADBEEFu;
  p.write(a - 4, &junk, sizeof(junk));
  p.persist(a - 4, sizeof(junk));
  const auto rep = p.check();
  EXPECT_FALSE(rep.ok());
}

TEST(PoolCheckTest, DetectsFreeListCorruption) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  const auto a = p.alloc(100);
  p.free(a);
  ASSERT_TRUE(p.check().ok());
  // Point the freed chunk's next pointer (first payload word) back at the
  // chunk itself: a one-node cycle on the size-class free list.
  p.set<std::uint64_t>(a, a - 16);
  const auto rep = p.check();
  EXPECT_FALSE(rep.ok());
}

// ---------------------------------------------------------------------------
// Per-rank magazines (DESIGN.md §14)
// ---------------------------------------------------------------------------

TEST(PoolMagazineTest, AllocFreeRoundtripStaysConsistent) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  p.set_magazine_size(8);
  p.set_alloc_stripes(8);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 16; ++i) {
    const auto off = p.alloc(64);
    p.set<std::uint64_t>(off, 0xAB00u + static_cast<std::uint64_t>(i));
    offs.push_back(off);
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(p.get<std::uint64_t>(offs[static_cast<std::size_t>(i)]),
              0xAB00u + static_cast<std::uint64_t>(i));
  }
  for (const auto off : offs) p.free(off);
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.bytes_in_use, p.bytes_in_use());
}

TEST(PoolMagazineTest, CheckCountsMagazineOwnedChunks) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  p.set_magazine_size(8);
  // One alloc triggers a refill batch of K: the K-1 unsold chunks sit in
  // the DRAM magazine with their headers durably flagged — check() must
  // see them as in-use-but-unpublished, not as a leak or free-list gap.
  const auto a = p.alloc(64);
  (void)a;
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_GE(rep.magazine_chunks, 7u);
  EXPECT_EQ(rep.bytes_in_use, p.bytes_in_use());
}

TEST(PoolMagazineTest, MagazineFreeIsDoubleFreeProof) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  p.set_magazine_size(8);
  const auto a = p.alloc(64);
  p.free(a);  // fast path: header flagged magazine-owned
  EXPECT_THROW(p.free(a), PoolError);
  EXPECT_TRUE(p.check().ok());
}

TEST(PoolMagazineTest, DrainReturnsEverythingToFreeLists) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  p.set_magazine_size(8);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 12; ++i) offs.push_back(p.alloc(64));
  for (const auto off : offs) p.free(off);
  ASSERT_GT(p.check().magazine_chunks, 0u);
  p.drain_magazines();
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.magazine_chunks, 0u);
  EXPECT_GE(rep.free_chunks, 12u);
  EXPECT_EQ(rep.bytes_in_use, p.bytes_in_use());
  // With magazines now disabled, a classic alloc must reuse the drained
  // space rather than growing the arena.
  p.set_magazine_size(0);
  const auto reuse = p.alloc(64);
  EXPECT_NE(std::find(offs.begin(), offs.end(), reuse), offs.end());
}

TEST(PoolMagazineTest, ReopenSweepsFlaggedChunksBack) {
  Device dev(kPool);
  std::uint64_t survivor = 0;
  std::size_t in_use_after_drain = 0;
  {
    Pool p = Pool::create(dev, 0, kPool);
    p.set_magazine_size(8);
    survivor = p.alloc(64);
    p.set<std::uint64_t>(survivor, 0xFEEDu);
    // Leave the magazine populated (refill remainder + one freed chunk)
    // and drop the Pool: the DRAM magazine dies with it, but every held
    // chunk's header carries the durable flag.
    p.free(p.alloc(64));
    in_use_after_drain = p.bytes_in_use();
    (void)in_use_after_drain;
  }
  Pool p = Pool::open(dev, 0);  // recovery sweeps flagged chunks
  EXPECT_EQ(p.get<std::uint64_t>(survivor), 0xFEEDu);
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.magazine_chunks, 0u);
  EXPECT_GT(rep.free_chunks, 0u);
  // The swept chunks came off the in-use counter.
  EXPECT_LT(p.bytes_in_use(), in_use_after_drain);
}

TEST(PoolMagazineTest, CrashWithArmedMagazinesRecovers) {
  Device dev(kPool, /*crash_shadow=*/true);
  std::uint64_t survivor = 0;
  {
    Pool p = Pool::create(dev, 0, kPool);
    p.set_magazine_size(8);
    survivor = p.alloc(64);
    p.set<std::uint64_t>(survivor, 0xC0DEu);
    p.free(p.alloc(64));  // flagged free sits in the magazine at the crash
    dev.simulate_crash();
  }
  Pool p = Pool::open(dev, 0);
  EXPECT_EQ(p.get<std::uint64_t>(survivor), 0xC0DEu);
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.magazine_chunks, 0u);
  // Swept space must be immediately allocatable.
  const auto off = p.alloc(64);
  p.set<std::uint64_t>(off, 7);
  EXPECT_EQ(p.get<std::uint64_t>(off), 7u);
}

TEST(PoolMagazineTest, StripeCountIsAReopenTimeChoice) {
  Device dev(kPool);
  std::vector<std::uint64_t> offs;
  {
    Pool p = Pool::create(dev, 0, kPool);
    p.set_magazine_size(8);
    p.set_alloc_stripes(8);
    for (int i = 0; i < 10; ++i) {
      const auto off = p.alloc(128);
      p.set<std::uint64_t>(off, 0x5100u + static_cast<std::uint64_t>(i));
      offs.push_back(off);
    }
    p.drain_magazines();
  }
  // The stripe count is a DRAM-side routing decision: the same media must
  // open cleanly under any other setting, with all data intact.
  Pool p = Pool::open(dev, 0);
  p.set_alloc_stripes(2);
  p.set_magazine_size(4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(p.get<std::uint64_t>(offs[static_cast<std::size_t>(i)]),
              0x5100u + static_cast<std::uint64_t>(i));
  }
  for (const auto off : offs) p.free(off);
  p.drain_magazines();
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.magazine_chunks, 0u);
}

TEST(PoolMagazineTest, LargeAllocationsBypassMagazines) {
  Device dev(kPool);
  Pool p = Pool::create(dev, 0, kPool);
  p.set_magazine_size(8);
  const auto before = p.check().magazine_chunks;
  const auto big = p.alloc(200000);
  p.free(big);  // classic path: large class never enters a magazine
  const auto rep = p.check();
  EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  EXPECT_EQ(rep.magazine_chunks, before);
  const auto again = p.alloc(200000);
  EXPECT_EQ(again, big);  // reused from the large free list
}

}  // namespace
