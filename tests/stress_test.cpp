// Reference-model stress tests: thousands of randomized operations against
// an in-DRAM oracle, for the hashtable, the allocator, and the filesystem.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/obj/hashtable.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <thread>

namespace {

using pmemcpy::fs::FileSystem;
using pmemcpy::fs::OpenMode;
using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::Device;

/// Runs every stress workload under the persistency-order checker and
/// asserts a violation-free report when the workload scope ends.
struct CheckerGuard {
  explicit CheckerGuard(Device& dev) : dev_(&dev) { dev.enable_checker(); }
  ~CheckerGuard() {
    const auto rep = dev_->checker()->take_report();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
  CheckerGuard(const CheckerGuard&) = delete;
  CheckerGuard& operator=(const CheckerGuard&) = delete;
  Device* dev_;
};

class StressSeed : public ::testing::TestWithParam<unsigned> {};

TEST_P(StressSeed, HashTableMatchesMapOracle) {
  Device dev(64ull << 20);
  CheckerGuard chk(dev);
  Pool pool = Pool::create(dev, 0, 64ull << 20);
  HashTable table = HashTable::create(pool, 128);  // force chaining
  std::map<std::string, std::string> oracle;
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> key_d(0, 199);
  std::uniform_int_distribution<int> op_d(0, 9);
  std::uniform_int_distribution<std::size_t> len_d(0, 300);

  for (int step = 0; step < 2000; ++step) {
    const std::string key = "k" + std::to_string(key_d(rng));
    const int op = op_d(rng);
    if (op < 5) {  // put / replace
      std::string value(len_d(rng), char('a' + step % 26));
      table.put(key, value.data(), value.size(),
                static_cast<std::uint64_t>(step));
      oracle[key] = std::move(value);
    } else if (op < 7) {  // erase
      EXPECT_EQ(table.erase(key), oracle.erase(key) > 0) << key;
    } else {  // find
      auto ref = table.find(key);
      auto it = oracle.find(key);
      ASSERT_EQ(ref.has_value(), it != oracle.end()) << key;
      if (ref) {
        std::string out(ref->val_size, '\0');
        pool.read(ref->val_off, out.data(), ref->val_size);
        EXPECT_EQ(out, it->second) << key;
      }
    }
    if (step % 500 == 499) {
      ASSERT_EQ(table.count(), oracle.size());
      if (step % 1000 == 999) table.rehash(table.nbuckets() * 2);
    }
  }
  // Final full sweep.
  std::size_t visited = 0;
  table.for_each([&](std::string_view key, const pmemcpy::obj::ValueRef& ref) {
    const auto it = oracle.find(std::string(key));
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(ref.val_size, it->second.size());
    ++visited;
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST_P(StressSeed, AllocatorContentsSurviveChurn) {
  Device dev(64ull << 20);
  CheckerGuard chk(dev);
  Pool pool = Pool::create(dev, 0, 64ull << 20);
  std::mt19937 rng(GetParam() + 77);
  std::uniform_int_distribution<std::size_t> size_d(1, 100000);
  struct Live {
    std::uint64_t off;
    std::uint32_t seed;
    std::size_t size;
  };
  std::vector<Live> live;

  auto fill = [&](const Live& a) {
    std::vector<std::byte> buf(a.size);
    std::mt19937 g(a.seed);
    for (auto& b : buf) b = static_cast<std::byte>(g());
    pool.write(a.off, buf.data(), a.size);
  };
  auto check = [&](const Live& a) {
    std::vector<std::byte> buf(a.size);
    pool.read(a.off, buf.data(), a.size);
    std::mt19937 g(a.seed);
    for (std::size_t i = 0; i < a.size; ++i) {
      ASSERT_EQ(buf[i], static_cast<std::byte>(g())) << "off=" << a.off;
    }
  };

  for (int step = 0; step < 600; ++step) {
    if (live.size() > 40 && rng() % 2 == 0) {
      const std::size_t idx = rng() % live.size();
      check(live[idx]);  // contents intact right up to free
      pool.free(live[idx].off);
      live[idx] = live.back();
      live.pop_back();
    } else {
      Live a;
      a.size = size_d(rng);
      a.off = pool.alloc(a.size);
      a.seed = static_cast<std::uint32_t>(rng());
      fill(a);
      live.push_back(a);
    }
  }
  for (const auto& a : live) check(a);
}

TEST_P(StressSeed, FileSystemMatchesOracle) {
  Device dev(64ull << 20);
  CheckerGuard chk(dev);
  FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
  std::map<std::string, std::string> oracle;  // path -> contents
  std::mt19937 rng(GetParam() + 555);
  std::uniform_int_distribution<int> name_d(0, 19);
  std::uniform_int_distribution<int> op_d(0, 9);
  std::uniform_int_distribution<std::size_t> len_d(0, 40000);

  for (int step = 0; step < 400; ++step) {
    const std::string path = "/f" + std::to_string(name_d(rng));
    const int op = op_d(rng);
    if (op < 4) {  // write fresh contents
      std::string data(len_d(rng), char('A' + step % 26));
      auto f = fs.open(path, OpenMode::kTruncate);
      if (!data.empty()) fs.pwrite(f, data.data(), data.size(), 0);
      oracle[path] = std::move(data);
    } else if (op < 6) {  // append
      auto it = oracle.find(path);
      if (it == oracle.end()) continue;
      std::string extra(len_d(rng) / 4, char('0' + step % 10));
      auto f = fs.open(path, OpenMode::kWrite);
      if (!extra.empty()) {
        fs.pwrite(f, extra.data(), extra.size(), it->second.size());
      }
      it->second += extra;
    } else if (op < 7) {  // remove
      if (oracle.erase(path) > 0) {
        fs.remove(path);
      } else {
        EXPECT_THROW(fs.remove(path), pmemcpy::fs::FsError);
      }
    } else if (op < 8) {  // rename onto another name
      const std::string to = "/f" + std::to_string(name_d(rng));
      if (!oracle.contains(path) || to == path) continue;
      fs.rename(path, to);
      oracle[to] = std::move(oracle[path]);
      oracle.erase(path);
    } else {  // verify
      auto it = oracle.find(path);
      EXPECT_EQ(fs.exists(path), it != oracle.end()) << path;
      if (it != oracle.end()) {
        auto f = fs.open(path, OpenMode::kRead);
        std::string out(it->second.size(), '\0');
        fs.pread(f, out.data(), out.size(), 0);
        ASSERT_EQ(out, it->second) << path;
      }
    }
  }
  // Final verification of every file.
  for (const auto& [path, contents] : oracle) {
    auto f = fs.open(path, OpenMode::kRead);
    ASSERT_EQ(fs.size(f), contents.size()) << path;
    std::string out(contents.size(), '\0');
    fs.pread(f, out.data(), out.size(), 0);
    ASSERT_EQ(out, contents) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeed, ::testing::Range(0u, 6u));

// Regression: fsync dirty-span bookkeeping is updated from data_write, which
// pwrite runs *outside* the fs lock so data copies can proceed in parallel.
// An unlocked dirty_ map update corrupted the heap under concurrent pwrite
// (first seen as a tcache abort in the multi-rank fig6 bench).
TEST(StressConcurrentFs, ParallelPwriteFsyncKeepsDirtyTrackingSane) {
  Device dev(64ull << 20);
  CheckerGuard chk(dev);
  FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
  constexpr int kThreads = 8;
  constexpr int kWrites = 200;
  constexpr std::size_t kChunk = 1024;
  std::vector<pmemcpy::fs::File> files;
  for (int t = 0; t < kThreads; ++t) {
    files.push_back(fs.open("/t" + std::to_string(t), OpenMode::kTruncate));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string chunk(kChunk, char('a' + t));
      for (int i = 0; i < kWrites; ++i) {
        fs.pwrite(files[static_cast<std::size_t>(t)], chunk.data(), kChunk,
                  static_cast<std::uint64_t>(i) * kChunk);
        if (i % 8 == 7) fs.fsync(files[static_cast<std::size_t>(t)]);
      }
      fs.fsync(files[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& th : threads) th.join();
  std::string out(kChunk, '\0');
  for (int t = 0; t < kThreads; ++t) {
    const std::string want(kChunk, char('a' + t));
    for (int i = 0; i < kWrites; ++i) {
      fs.pread(files[static_cast<std::size_t>(t)], out.data(), kChunk,
               static_cast<std::uint64_t>(i) * kChunk);
      ASSERT_EQ(out, want) << "file " << t << " chunk " << i;
    }
  }
}

}  // namespace
