// Tests for the persistent hashtable with chaining.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/sim/context.hpp>
#include <pmemcpy/trace/trace.hpp>

#include "deadline.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <map>
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
// first word is the bucket array's offset, the array's first word its count
// and its second the generation (0 or 1) whose next words its chains follow.
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
    SCOPED_TRACE("generation 2");
    pool.set<std::uint64_t>(array + 8, 2);
    EXPECT_THROW((void)HashTable::open(pool, hdr), pmemcpy::obj::PoolError);
  }
  pool.set<std::uint64_t>(array + 8, 0);
  {
    SCOPED_TRACE("bucket array past the pool");
    pool.set<std::uint64_t>(hdr, pool.size() + 4096);
    EXPECT_THROW((void)HashTable::open(pool, hdr), pmemcpy::obj::PoolError);
  }
  pool.set<std::uint64_t>(hdr, array);
  EXPECT_EQ(HashTable::open(pool, hdr).nbuckets(), 64u);
}

// A damaged next word must end a chain walk in a typed error, not a hang.
// On-media format: a node's first two words are its next pointers, one per
// bucket-array generation, and a fresh table's chains follow the first.
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

// A head or next word outside the pool, or a key running past its end, is
// damage the chain decoder names with a PoolError before reading it.
// On-media format: the heads start 64 bytes into the bucket array, and a
// node is {next[2], val_off, size word (key length in the high 16 bits),
// meta, key hash} followed by its key.  The live table serves its heads
// from DRAM, so each damaged image is seen through a fresh open.
TEST_F(HashTableTest, ChainWordsOutsideThePoolThrowPoolError) {
  using pmemcpy::obj::PoolError;
  std::uint64_t hdr = 0;
  std::uint64_t b = 0;
  {
    HashTable one = HashTable::create(pool, 1);
    one.put("a", "1", 1);
    one.put("b", "2", 1);  // the chain is b -> a
    hdr = one.header_off();
    b = one.find("b")->node_off;
  }
  const std::uint64_t head = pool.get<std::uint64_t>(hdr) + 64;
  const auto visit_all = [&] {
    HashTable::open(pool, hdr).for_each(
        [](std::string_view, const pmemcpy::obj::ValueRef&) {});
  };
  {
    SCOPED_TRACE("head whose header ends past the pool");
    pool.set<std::uint64_t>(head, pool.size() - 47);
    EXPECT_THROW((void)HashTable::open(pool, hdr).find("a"), PoolError);
    pool.set<std::uint64_t>(head, b);
  }
  {
    SCOPED_TRACE("next word of all ones");
    const std::uint64_t a = pool.get<std::uint64_t>(b);
    pool.set<std::uint64_t>(b, ~std::uint64_t{0});
    EXPECT_THROW((void)HashTable::open(pool, hdr).find("zzz"), PoolError);
    EXPECT_THROW(visit_all(), PoolError);
    pool.set<std::uint64_t>(b, a);
  }
  // A node in the pool's last 64 bytes: its 16-byte key ends at the pool's
  // end, a 17-byte one past it.
  const std::uint64_t last = pool.size() - 64;
  pool.set<std::uint64_t>(head, last);
  for (const std::uint64_t key_len : {16, 17}) {
    SCOPED_TRACE("key of " + std::to_string(key_len) + " bytes");
    const std::uint64_t node[6] = {0, 0, 0, key_len << 48, 0, 0};
    pool.write(last, node, sizeof(node));
    pool.persist(last, sizeof(node));
    if (key_len == 16) {
      EXPECT_NO_THROW(visit_all());
    } else {
      EXPECT_THROW(visit_all(), PoolError);
    }
  }
}

/// FNV-1a, the hash a table buckets keys by (part of the on-media format).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// A read error on the bucket array fails only the keys whose bucket head it
// covers, and only when they are used: open() reads the heads a line at a
// time when its bulk read fails, and a head on an unreadable line is read
// from media at first use, so the rest of the table stays open and the
// damage shows where a lookup, listing or growth reaches it.  On-media
// format: the header's first word is the bucket array's offset, the heads
// start 64 bytes into the array, and a key's bucket is its FNV-1a hash
// modulo the bucket count.
TEST_F(HashTableTest, AnUnreadableHeadFailsOnlyItsBucket) {
  using pmemcpy::pmem::DeviceError;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("k" + std::to_string(i));
    put_str(keys.back(), "v" + std::to_string(i));
  }
  const std::uint64_t hdr = table.header_off();
  const std::uint64_t bad = fnv1a(keys.front()) % 64;
  dev.inject_read_error(
      pool.base() + pool.get<std::uint64_t>(hdr) + 64 + 8 * bad, 8);
  HashTable t = HashTable::open(pool, hdr);
  const auto value = [&](const std::string& key) {
    const auto ref = t.find(key);
    if (!ref) return std::string("<missing>");
    std::string out(ref->val_size, '\0');
    pool.read(ref->val_off, out.data(), out.size());
    return out;
  };
  const auto listed = [&] {
    std::size_t n = 0;
    t.for_each([&](std::string_view, const pmemcpy::obj::ValueRef&) { ++n; });
    return n;
  };
  // Each key in the bad bucket fails typed, every other one reads back.
  const auto only_the_bad_bucket_fails = [&] {
    std::size_t failing = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE(keys[i]);
      if (fnv1a(keys[i]) % 64 == bad) {
        EXPECT_THROW((void)t.find(keys[i]), DeviceError);
        EXPECT_THROW((void)t.erase(keys[i]), DeviceError);
        ++failing;
      } else {
        EXPECT_EQ(value(keys[i]), "v" + std::to_string(i));
      }
    }
    return failing;
  };
  const std::size_t failing = only_the_bad_bucket_fails();
  EXPECT_GT(failing, 0u);
  EXPECT_LT(failing, keys.size() / 8);
  EXPECT_THROW(listed(), DeviceError);
  EXPECT_THROW(t.put(keys.front(), "x", 1), DeviceError);
  EXPECT_THROW(t.rehash(256), DeviceError);
  EXPECT_EQ(t.nbuckets(), 64u);
  EXPECT_EQ(only_the_bad_bucket_fails(), failing);  // still in force

  // Once the line reads again, so does every key.
  dev.clear_read_errors();
  EXPECT_EQ(listed(), keys.size());
  t.rehash(256);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(value(keys[i]), "v" + std::to_string(i)) << keys[i];
  }
  EXPECT_TRUE(pool.check().ok());
}

/// PMEM reads a call charges to the calling thread's simulated clock, and
/// the bytes they move: each read costs the read latency plus its bytes at
/// the single-rank read bandwidth.
struct ReadCost {
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
};

/// Simulated seconds of @p reads PMEM reads moving @p bytes in all.
double read_seconds(std::uint64_t reads, std::uint64_t bytes) {
  auto& c = pmemcpy::sim::ctx();
  const auto& pm = c.model().pmem;
  return static_cast<double>(reads) * pm.read_latency +
         static_cast<double>(bytes) /
             c.shared_bw(pm.read_stream_bw, pm.read_total_bw);
}

template <typename Fn>
ReadCost read_cost(const Device& dev, Fn&& fn) {
  using pmemcpy::sim::Charge;
  auto& c = pmemcpy::sim::ctx();
  const double sec = c.charged(Charge::kPmemRead);
  const std::uint64_t bytes = dev.bytes_read();
  fn();
  ReadCost cost;
  cost.bytes = dev.bytes_read() - bytes;
  const double charged = c.charged(Charge::kPmemRead) - sec;
  cost.reads = static_cast<std::uint64_t>(
      std::llround((charged - read_seconds(0, cost.bytes)) /
                   c.model().pmem.read_latency));
  return cost;
}

// A chain step reads one 48-byte node header, and the key bytes follow only
// when the stored hash and the key length both match.  One bucket chains N
// keys of one length, so every step compares lengths that match: a miss
// costs N reads, a hit at depth p costs p + 2 (p + 1 headers and the key),
// a prefix walk with a prefix longer than every key reads no key, and a
// rebuild buckets each node by its stored hash, reading no key and not the
// bucket array, whose heads the table mirrors in DRAM.
TEST_F(HashTableTest, AChainStepCostsOneRead) {
  constexpr std::uint64_t kN = 8;
  constexpr std::uint64_t kHeader = 48;
  HashTable one = HashTable::create(pool, 1);
  const auto key = [](std::uint64_t i) {
    return "key-" + std::to_string(10 + i);
  };
  for (std::uint64_t i = 0; i < kN; ++i) {
    one.put(key(i), "v", 1, i);  // chain: key(kN - 1) -> ... -> key(0)
  }
  {
    SCOPED_TRACE("miss");
    const auto cost = read_cost(dev, [&] { EXPECT_FALSE(one.find("key-99")); });
    EXPECT_EQ(cost.reads, kN);
    EXPECT_EQ(cost.bytes, kN * kHeader);
  }
  for (std::uint64_t p = 0; p < kN; ++p) {
    SCOPED_TRACE("hit at depth " + std::to_string(p));
    const std::string k = key(kN - 1 - p);
    const auto cost = read_cost(dev, [&] {
      const auto ref = one.find(k);
      ASSERT_TRUE(ref.has_value());
      EXPECT_EQ(ref->meta, kN - 1 - p);
    });
    EXPECT_EQ(cost.reads, p + 2);
    EXPECT_EQ(cost.bytes, (p + 1) * kHeader + k.size());
  }
  {
    SCOPED_TRACE("prefix longer than every key");
    std::size_t visited = 0;
    const auto cost = read_cost(dev, [&] {
      one.for_each_prefix(
          "key-1000",
          [&](std::string_view, const pmemcpy::obj::ValueRef&) { ++visited; });
    });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(cost.reads, kN);
    EXPECT_EQ(cost.bytes, kN * kHeader);
  }
  {
    SCOPED_TRACE("rebuild");
    // The rebuild's own reads: its span's minus its allocator calls'.
    const bool was_enabled = trace::enabled();
    trace::set_enabled(true);
    trace::reset();
    one.rehash(8);
    const auto spans = trace::snapshot();
    trace::reset();
    trace::set_enabled(was_enabled);
    using pmemcpy::sim::Charge;
    double self = -1;
    std::uint64_t id = 0;
    for (const auto& sp : spans) {
      if (std::strcmp(sp.name, "ht.rehash") == 0) {
        id = sp.id;
        self = sp.charge(Charge::kPmemRead);
      } else if (id != 0 && sp.parent == id) {
        self -= sp.charge(Charge::kPmemRead);
      }
    }
    ASSERT_NE(id, 0u);
    EXPECT_NEAR(self, read_seconds(kN, kN * kHeader), 1e-12);
    for (std::uint64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(one.find(key(i))->meta, i);
    }
  }
}

// Two distinct keys with one FNV-1a hash (0xa24ea1bdfda6af27): a stored
// hash that matches still needs the key compare, in a lookup, an overwrite,
// an erase and a rebuild, which keeps both.  On-media format: a node's key
// hash is the sixth word of its header.
TEST_F(HashTableTest, DistinctKeysWithEqualHashesStayDistinct) {
  const std::string a = "h2Pfp5h9dwBA";
  const std::string b = "hc2l4rUa.gA3";
  std::uint64_t hdr = 0;
  {
    HashTable t = HashTable::create(pool, 4);
    hdr = t.header_off();
    t.put(a, "A", 1);
    t.put(b, "B", 1);
    EXPECT_EQ(pool.get<std::uint64_t>(t.find(a)->node_off + 40),
              pool.get<std::uint64_t>(t.find(b)->node_off + 40));
  }
  HashTable t = HashTable::open(pool, hdr);
  const auto read_value = [&](const pmemcpy::obj::ValueRef& ref) {
    std::string out(ref.val_size, '\0');
    pool.read(ref.val_off, out.data(), out.size());
    return out;
  };
  const auto value = [&](const std::string& k) {
    const auto ref = t.find(k);
    return ref ? read_value(*ref) : std::string("<missing>");
  };
  const auto keys = [&] {
    std::map<std::string, std::string> seen;
    t.for_each([&](std::string_view k, const pmemcpy::obj::ValueRef& ref) {
      seen[std::string(k)] = read_value(ref);
    });
    return seen;
  };
  EXPECT_EQ(value(a), "A");
  EXPECT_EQ(value(b), "B");
  t.put(b, "B2", 2);  // b is the head: the overwrite passes a's node
  t.put(a, "A2", 2);
  EXPECT_EQ(t.count(), 2u);
  t.rehash(16);
  EXPECT_EQ(keys(), (std::map<std::string, std::string>{{a, "A2"}, {b, "B2"}}));
  EXPECT_TRUE(t.erase(a));
  EXPECT_EQ(value(a), "<missing>");
  EXPECT_EQ(value(b), "B2");
  EXPECT_EQ(t.count(), 1u);
  t.put(a, "A3", 2);
  t.rehash(4);
  EXPECT_EQ(keys(), (std::map<std::string, std::string>{{a, "A3"}, {b, "B2"}}));
  EXPECT_TRUE(t.erase(b));
  EXPECT_EQ(keys(), (std::map<std::string, std::string>{{a, "A3"}}));
}

// A key length is stored in 16 bits: a longer key is refused before
// anything is allocated.
TEST_F(HashTableTest, ReserveRejectsAKeyLongerThan65535Bytes) {
  const auto before = pool.bytes_in_use();
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  const auto allocs = trace::counter(trace::Counter::kAllocOps);
  EXPECT_THROW((void)table.reserve(std::string(65536, 'k'), 8),
               pmemcpy::obj::PoolError);
  EXPECT_EQ(trace::counter(trace::Counter::kAllocOps), allocs);
  trace::set_enabled(was_enabled);
  EXPECT_EQ(pool.bytes_in_use(), before);
  const std::string longest(65535, 'k');
  put_str(longest, "v");
  EXPECT_EQ(get_str(longest), "v");
  EXPECT_EQ(table.count(), 1u);
}

// A rehash links the existing nodes into the new array through their other
// next word: no node moves, and the only allocation and free are the new
// and the old bucket array.  Two rehashes use both generations.
TEST_F(HashTableTest, RehashRelinksNodesInPlace) {
  HashTable small = HashTable::create(pool, 4);
  const auto key = [](int i) { return "key" + std::to_string(i); };
  const auto value = [](int i) { return "value-" + std::to_string(i); };
  std::map<std::string, std::uint64_t> nodes;
  for (int i = 0; i < 24; ++i) {
    small.put(key(i), value(i).data(), value(i).size());
  }
  for (int i = 0; i < 24; ++i) nodes[key(i)] = small.find(key(i))->node_off;
  const auto expect_in_place = [&](const HashTable& t) {
    for (int i = 0; i < 24; ++i) {
      SCOPED_TRACE(key(i));
      const auto ref = t.find(key(i));
      ASSERT_TRUE(ref.has_value());
      EXPECT_EQ(ref->node_off, nodes[key(i)]);
      std::string got(ref->val_size, '\0');
      pool.read(ref->val_off, got.data(), got.size());
      EXPECT_EQ(got, value(i));
    }
  };
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  for (const std::size_t n : {64, 16}) {
    SCOPED_TRACE("rehash to " + std::to_string(n) + " buckets");
    const auto allocs = trace::counter(trace::Counter::kAllocOps);
    const auto frees = trace::counter(trace::Counter::kFreeOps);
    small.rehash(n);
    EXPECT_EQ(trace::counter(trace::Counter::kAllocOps) - allocs, 1u);
    EXPECT_EQ(trace::counter(trace::Counter::kFreeOps) - frees, 1u);
    EXPECT_EQ(small.nbuckets(), n);
    EXPECT_EQ(small.count(), 24u);
    expect_in_place(small);
  }
  trace::set_enabled(was_enabled);
  expect_in_place(HashTable::open(pool, small.header_off()));
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

TEST(HashTableConcurrent, FindsDuringGrowthSeeEveryKey) {
  // Readers find keys already published while a writer publishes a 64-
  // bucket table past both growth thresholds (256 and 1024 entries).  Each
  // growth swaps the DRAM head mirror under the readers, and every find of
  // a published key must hit, with its own value.
  constexpr int kReaders = 3;
  constexpr int kSeeded = 200;
  constexpr int kTotal = 2000;  // 4x256 < 2000 <= 4x1024
  Device dev(kPool);
  Pool pool = Pool::create(dev, 0, kPool);
  HashTable table = HashTable::create(pool, 64);
  table.set_auto_grow(true);
  const auto key = [](int i) { return "f" + std::to_string(i); };
  for (int i = 0; i < kSeeded; ++i) {
    table.put(key(i), key(i).data(), key(i).size());
  }
  std::atomic<int> published{kSeeded};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> finds{0};
  std::atomic<std::uint64_t> wrong{0};
  std::latch start(kReaders + 1);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull * (r + 1u);
      start.arrive_and_wait();
      while (!done.load(std::memory_order_acquire)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto n = static_cast<std::uint64_t>(
            published.load(std::memory_order_acquire));
        const std::string k = key(static_cast<int>(x % n));
        const auto ref = table.find(k);
        std::string got;
        if (ref) {
          got.resize(ref->val_size);
          pool.read(ref->val_off, got.data(), got.size());
        }
        if (got != k) wrong.fetch_add(1, std::memory_order_relaxed);
        finds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  start.arrive_and_wait();
  for (int i = kSeeded; i < kTotal; ++i) {
    table.put(key(i), key(i).data(), key(i).size());
    published.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0u) << "of " << finds.load() << " finds";
  EXPECT_GT(finds.load(), 0u);
  EXPECT_EQ(table.nbuckets(), 1024u);
  EXPECT_EQ(table.count(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_TRUE(table.find(key(i))) << key(i);
  if (dev.checker() != nullptr) {
    const auto rep = dev.checker()->take_report();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
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
