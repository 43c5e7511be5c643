// Tests for the persistent hashtable with chaining.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/trace/trace.hpp>

#include "deadline.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>

namespace {

using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::Device;
namespace trace = pmemcpy::trace;

constexpr std::size_t kPool = 32ull << 20;

struct HashTableTest : ::testing::Test {
  HashTableTest()
      : dev(kPool),
        pool(Pool::create(dev, 0, kPool)),
        table(HashTable::create(pool, 64)) {}

  void put_str(const std::string& key, const std::string& value,
               std::uint64_t meta = 0) {
    table.put(key, value.data(), value.size(), meta);
  }
  std::string get_str(const std::string& key) {
    auto ref = table.find(key);
    if (!ref) return "<missing>";
    std::string out(ref->val_size, '\0');
    pool.read(ref->val_off, out.data(), ref->val_size);
    return out;
  }

  Device dev;
  Pool pool;
  HashTable table;
};

TEST_F(HashTableTest, PutGet) {
  put_str("alpha", "one");
  put_str("beta", "two");
  EXPECT_EQ(get_str("alpha"), "one");
  EXPECT_EQ(get_str("beta"), "two");
  EXPECT_EQ(table.count(), 2u);
}

TEST_F(HashTableTest, MissingKey) {
  EXPECT_FALSE(table.find("nope").has_value());
}

TEST_F(HashTableTest, EmptyValue) {
  put_str("empty", "");
  auto ref = table.find("empty");
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->val_size, 0u);
}

TEST_F(HashTableTest, MetaWordRoundtrips) {
  put_str("k", "v", 0xDEADBEEF);
  EXPECT_EQ(table.find("k")->meta, 0xDEADBEEFu);
}

TEST_F(HashTableTest, ReplaceUpdatesValueAndKeepsCount) {
  put_str("k", "first");
  put_str("k", "second-longer-value");
  EXPECT_EQ(get_str("k"), "second-longer-value");
  EXPECT_EQ(table.count(), 1u);
}

TEST_F(HashTableTest, EraseRemovesAndFreesSpace) {
  const auto before = pool.bytes_in_use();
  put_str("k", std::string(10000, 'x'));
  EXPECT_GT(pool.bytes_in_use(), before);
  EXPECT_TRUE(table.erase("k"));
  EXPECT_FALSE(table.erase("k"));
  EXPECT_EQ(table.count(), 0u);
  EXPECT_EQ(pool.bytes_in_use(), before);
}

TEST_F(HashTableTest, ManyKeysWithCollisions) {
  // 64 buckets, 500 keys: heavy chaining.
  for (int i = 0; i < 500; ++i) {
    put_str("key" + std::to_string(i), "v" + std::to_string(i * 7));
  }
  EXPECT_EQ(table.count(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(get_str("key" + std::to_string(i)), "v" + std::to_string(i * 7));
  }
}

TEST_F(HashTableTest, EraseFromChainMiddle) {
  for (int i = 0; i < 100; ++i) put_str("key" + std::to_string(i), "v");
  EXPECT_TRUE(table.erase("key50"));
  EXPECT_FALSE(table.find("key50").has_value());
  for (int i = 0; i < 100; ++i) {
    if (i == 50) continue;
    EXPECT_TRUE(table.find("key" + std::to_string(i)).has_value()) << i;
  }
}

TEST_F(HashTableTest, ForEachVisitsAll) {
  std::set<std::string> expect;
  for (int i = 0; i < 50; ++i) {
    put_str("k" + std::to_string(i), "v");
    expect.insert("k" + std::to_string(i));
  }
  std::set<std::string> seen;
  table.for_each([&](std::string_view key, const pmemcpy::obj::ValueRef&) {
    seen.insert(std::string(key));
  });
  EXPECT_EQ(seen, expect);
}

TEST_F(HashTableTest, ForEachPrefix) {
  put_str("var#p:0", "a");
  put_str("var#p:1", "b");
  put_str("var#dims", "c");
  put_str("other#p:0", "d");
  std::set<std::string> seen;
  table.for_each_prefix(
      "var#p:", [&](std::string_view key, const pmemcpy::obj::ValueRef&) {
        seen.insert(std::string(key));
      });
  EXPECT_EQ(seen, (std::set<std::string>{"var#p:0", "var#p:1"}));
}

TEST_F(HashTableTest, AutoGrowRehashesUnderLoad) {
  table.set_auto_grow(true);
  const auto before = table.nbuckets();  // 64
  for (int i = 0; i < 600; ++i) {
    put_str("grow" + std::to_string(i), "v");
  }
  EXPECT_GT(table.nbuckets(), before);
  EXPECT_LE(table.count(), table.nbuckets() * 4);
  for (int i = 0; i < 600; ++i) {
    EXPECT_EQ(get_str("grow" + std::to_string(i)), "v") << i;
  }
}

TEST_F(HashTableTest, NoAutoGrowByDefault) {
  for (int i = 0; i < 600; ++i) put_str("g" + std::to_string(i), "v");
  EXPECT_EQ(table.nbuckets(), 64u);
}

TEST_F(HashTableTest, RehashPreservesEntries) {
  for (int i = 0; i < 200; ++i) {
    put_str("k" + std::to_string(i), "value" + std::to_string(i));
  }
  table.rehash(1024);
  EXPECT_EQ(table.nbuckets(), 1024u);
  EXPECT_EQ(table.count(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(get_str("k" + std::to_string(i)), "value" + std::to_string(i));
  }
}

TEST_F(HashTableTest, ReserveWithoutPublishLeaksNothing) {
  const auto before = pool.bytes_in_use();
  {
    auto ins = table.reserve("ghost", 4096);
    auto span = ins.value();
    std::memset(span.data(), 0xAB, span.size());
    // no publish
  }
  EXPECT_EQ(pool.bytes_in_use(), before);
  EXPECT_FALSE(table.find("ghost").has_value());
}

TEST_F(HashTableTest, ReservePublishDirectWrite) {
  auto ins = table.reserve("blob", 8, 5);
  auto span = ins.value();
  const std::uint64_t v = 0x1234567890ABCDEFull;
  std::memcpy(span.data(), &v, 8);
  EXPECT_TRUE(ins.publish());
  auto ref = table.find("blob");
  ASSERT_TRUE(ref.has_value());
  std::uint64_t out = 0;
  std::memcpy(&out, pool.direct(ref->val_off), 8);
  EXPECT_EQ(out, v);
  EXPECT_EQ(ref->meta, 5u);
}

TEST_F(HashTableTest, OpenExistingTableSeesData) {
  put_str("persisted", "yes");
  pool.set_root(table.header_off());
  HashTable reopened = HashTable::open(pool, pool.root());
  auto ref = reopened.find("persisted");
  ASSERT_TRUE(ref.has_value());
  std::string out(ref->val_size, '\0');
  pool.read(ref->val_off, out.data(), ref->val_size);
  EXPECT_EQ(out, "yes");
}

// A damaged header must end in a typed error, not reach the bucket-count-
// sized vectors of for_each() and rehash().  On-media format: the header's
// first word is the bucket array's offset, the array's first word its count.
TEST_F(HashTableTest, OpenRejectsDamagedHeader) {
  put_str("k", "v");
  const std::uint64_t hdr = table.header_off();
  const std::uint64_t array = pool.get<std::uint64_t>(hdr);
  ASSERT_EQ(pool.get<std::uint64_t>(array), 64u);
  {
    SCOPED_TRACE("bucket count 0");
    pool.set<std::uint64_t>(array, 0);
    EXPECT_THROW((void)HashTable::open(pool, hdr), pmemcpy::obj::PoolError);
  }
  {
    SCOPED_TRACE("bucket count 2^40");
    pool.set<std::uint64_t>(array, 1ull << 40);
    EXPECT_THROW((void)HashTable::open(pool, hdr), pmemcpy::obj::PoolError);
  }
  pool.set<std::uint64_t>(array, 64);
  {
    SCOPED_TRACE("bucket array past the pool");
    pool.set<std::uint64_t>(hdr, pool.size() + 4096);
    EXPECT_THROW((void)HashTable::open(pool, hdr), pmemcpy::obj::PoolError);
  }
  pool.set<std::uint64_t>(hdr, array);
  EXPECT_EQ(HashTable::open(pool, hdr).nbuckets(), 64u);
}

// A damaged next word must end a chain walk in a typed error, not a hang.
// On-media format: a node's first word is its next pointer.
TEST_F(HashTableTest, ChainCycleThrowsInsteadOfHanging) {
  HashTable one = HashTable::create(pool, 1);
  one.put("a", "1", 1);
  one.put("b", "2", 1);  // the chain is b -> a
  const std::uint64_t a = one.find("a")->node_off;
  pool.set<std::uint64_t>(a, a);
  using pmemcpy::obj::PoolError;
  using pmemcpy::testutil::throws_before_deadline;
  EXPECT_TRUE(throws_before_deadline<PoolError>([&] {
    (void)one.find("zzz");
  })) << "find";
  EXPECT_TRUE(throws_before_deadline<PoolError>([&] {
    (void)one.erase("zzz");
  })) << "erase";
  EXPECT_TRUE(throws_before_deadline<PoolError>([&] {
    one.for_each([](std::string_view, const pmemcpy::obj::ValueRef&) {});
  })) << "for_each";
}

TEST_F(HashTableTest, ConcurrentDistinctKeys) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        table.put(key, key.data(), key.size());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(i);
      EXPECT_EQ(get_str(key), key);
    }
  }
}

TEST_F(HashTableTest, ConcurrentSameKeyReplaceStaysConsistent) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const std::string v = "writer" + std::to_string(t);
        table.put("contended", v.data(), v.size());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), 1u);
  const std::string v = get_str("contended");
  EXPECT_EQ(v.substr(0, 6), "writer");
}

TEST(HashTableConcurrent, DistinctKeysWithBucketCountNotAMultipleOfStripes) {
  // 100 buckets over 64 stripes: bucket b and bucket b+64 would share a
  // stripe if it were chosen by key hash, while keys of one bucket could
  // hold different ones — and two racing inserts into that bucket then read
  // the same head and one of them is lost.
  Device dev(kPool);
  Pool pool = Pool::create(dev, 0, kPool);
  HashTable table = HashTable::create(pool, 100);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 125;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        table.put(key, key.data(), key.size());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), static_cast<std::size_t>(kThreads * kPerThread));
  std::size_t visited = 0;
  table.for_each(
      [&](std::string_view, const pmemcpy::obj::ValueRef&) { ++visited; });
  EXPECT_EQ(visited, static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(i);
      auto ref = table.find(key);
      ASSERT_TRUE(ref.has_value()) << key;
      std::string out(ref->val_size, '\0');
      pool.read(ref->val_off, out.data(), ref->val_size);
      EXPECT_EQ(out, key);
    }
  }
  if (dev.checker() != nullptr) {
    const auto rep = dev.checker()->take_report();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
}

TEST(HashTableConcurrent, AutoGrowRebuildsOncePerGrowth) {
  // 4 publishers push a 64-bucket table past both growth thresholds (256
  // and 1024 entries).  Each growth must rebuild the table exactly once: a
  // publisher that lost the race for the stripes finds the table already
  // grown instead of growing it again.  Whether publishers race at a
  // threshold depends on host scheduling, so the scenario repeats on fresh
  // tables.
  constexpr int kRounds = 5;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;  // 4000 entries: 4x256 < 4000 <= 4x1024
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  for (int round = 0; round < kRounds; ++round) {
    trace::reset();
    Device dev(kPool);
    Pool pool = Pool::create(dev, 0, kPool);
    HashTable table = HashTable::create(pool, 64);
    table.set_auto_grow(true);
    std::latch start(kThreads);  // publish concurrently across thresholds
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key =
              "g" + std::to_string(t) + "_" + std::to_string(i);
          table.put(key, key.data(), key.size());
        }
      });
    }
    for (auto& th : threads) th.join();
    std::size_t rebuilds = 0;
    for (const auto& s : trace::snapshot()) {
      if (std::strcmp(s.name, "ht.rehash") == 0) ++rebuilds;
    }
    EXPECT_EQ(trace::dropped_spans(), 0u);
    EXPECT_EQ(rebuilds, 2u) << "round " << round;
    EXPECT_EQ(table.nbuckets(), 1024u) << "round " << round;
    EXPECT_EQ(table.count(), static_cast<std::size_t>(kThreads * kPerThread));
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(
            table.find("g" + std::to_string(t) + "_" + std::to_string(i)))
            << t << "/" << i;
      }
    }
    if (dev.checker() != nullptr) {
      const auto rep = dev.checker()->take_report();
      EXPECT_TRUE(rep.ok()) << rep.to_string();
    }
  }
  trace::reset();
  trace::set_enabled(was_enabled);
}

TEST_F(HashTableTest, ThrowingForEachCallbackReleasesStripes) {
  put_str("a", "1");
  // The scenario runs in a child process: if the throw leaked the stripe
  // locks, the put would block forever, and the timeout below turns that
  // into a failure instead of a hung test.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      table.for_each([](std::string_view, const pmemcpy::obj::ValueRef&) {
        throw std::runtime_error("callback failed");
      });
    } catch (const std::runtime_error&) {
    }
    put_str("b", "2");
    std::_Exit(get_str("b") == "2" ? 0 : 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "put blocked after a for_each callback threw";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(HashTableCrash, UnpublishedInsertInvisibleAfterCrash) {
  Device dev(kPool, /*crash_shadow=*/true);
  Pool pool = Pool::create(dev, 0, kPool);
  {
    HashTable table = HashTable::create(pool, 64);
    pool.set_root(table.header_off());
    table.put("durable", "yes", 3);
    // Reserve + fill but crash before publish.
    auto ins = table.reserve("in-flight", 64);
    auto span = ins.value();
    std::memset(span.data(), 0xCD, span.size());
    dev.simulate_crash();
    // Process died: don't run the Inserter destructor's cleanup semantics —
    // but running it is harmless post-crash since we re-open below.
  }
  Pool reopened = Pool::open(dev, 0);
  HashTable table = HashTable::open(reopened, reopened.root());
  EXPECT_TRUE(table.find("durable").has_value());
  EXPECT_FALSE(table.find("in-flight").has_value());
}

}  // namespace
