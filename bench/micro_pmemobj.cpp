// Microbenchmarks for the object store: allocation and the persistent
// hashtable (the metadata path of every pMEMCPY store()).
#include <pmemcpy/obj/hashtable.hpp>

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

namespace {

using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::Device;

void BM_PoolAllocFree(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Device dev(256ull << 20);
  Pool pool = Pool::create(dev, 0, 256ull << 20);
  for (auto _ : state) {
    const auto off = pool.alloc(bytes);
    benchmark::DoNotOptimize(off);
    pool.free(off);
  }
}
BENCHMARK(BM_PoolAllocFree)->Range(64, 1 << 20);

/// Rank-scaling sweep over the allocator hot path (DESIGN.md §14): N
/// concurrent ranks churn mixed size classes through alloc/free.  Arg 0 is
/// the rank count, arg 1 selects the allocator configuration — 0 = classic
/// (every op under the pool lock), 1 = magazines of 8.  The wall-clock gap
/// between the two rows at a given rank count is the lock-convoy cost the
/// magazines remove.
void BM_PoolAllocFreeRanks(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const bool magazines = state.range(1) != 0;
  constexpr int kOpsPerRank = 256;
  // Mixed size classes: a node-scale record, a small blob, a KiB blob.
  static constexpr std::size_t kSizes[] = {64, 480, 4000};
  Device dev(512ull << 20);
  Pool pool = Pool::create(dev, 0, 512ull << 20);
  pool.set_magazine_size(magazines ? 8 : 0);
  pool.set_expected_contenders(ranks);
  for (auto _ : state) {
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      ts.emplace_back([&pool, r] {
        std::vector<std::uint64_t> held;
        held.reserve(kOpsPerRank);
        for (int i = 0; i < kOpsPerRank; ++i) {
          held.push_back(pool.alloc(kSizes[(r + i) % 3]));
          if (i % 4 == 3) {  // interleave frees with allocs
            pool.free(held[static_cast<std::size_t>(i - 2)]);
            held[static_cast<std::size_t>(i - 2)] = 0;
          }
        }
        for (const auto off : held) {
          if (off != 0) pool.free(off);
        }
      });
    }
    for (auto& t : ts) t.join();
    // Dead threads must not strand magazine-held chunks across iterations.
    pool.drain_magazines();
  }
  state.SetItemsProcessed(state.iterations() * ranks * kOpsPerRank * 2);
}
BENCHMARK(BM_PoolAllocFreeRanks)
    ->ArgsProduct({{1, 4, 12, 24, 48}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HashTablePut(benchmark::State& state) {
  Device dev(512ull << 20);
  Pool pool = Pool::create(dev, 0, 512ull << 20);
  HashTable table = HashTable::create(pool, 8192);
  const std::string value(256, 'v');
  std::uint64_t i = 0;
  for (auto _ : state) {
    table.put("key" + std::to_string(i++), value.data(), value.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTablePut);

void BM_HashTableFind(benchmark::State& state) {
  Device dev(256ull << 20);
  Pool pool = Pool::create(dev, 0, 256ull << 20);
  HashTable table = HashTable::create(pool, 8192);
  const std::string value(256, 'v');
  const auto nkeys = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    table.put("key" + std::to_string(i), value.data(), value.size());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto ref = table.find("key" + std::to_string(i++ % nkeys));
    benchmark::DoNotOptimize(ref);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableFind)->Arg(100)->Arg(10000);

void BM_HashTableReplace(benchmark::State& state) {
  Device dev(256ull << 20);
  Pool pool = Pool::create(dev, 0, 256ull << 20);
  HashTable table = HashTable::create(pool, 1024);
  const std::string value(256, 'v');
  for (auto _ : state) {
    table.put("hot-key", value.data(), value.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableReplace);

void BM_HashTableReservePublish(benchmark::State& state) {
  // The direct-serialization write path used by pMEMCPY store().
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Device dev(512ull << 20);
  Pool pool = Pool::create(dev, 0, 512ull << 20);
  HashTable table = HashTable::create(pool, 8192);
  for (auto _ : state) {
    auto ins = table.reserve("blob", bytes);
    auto span = ins.value();
    benchmark::DoNotOptimize(span.data());
    if (!ins.publish()) {
      state.SkipWithError("publish lost the race for 'blob'");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_HashTableReservePublish)->Range(4 << 10, 4 << 20);

}  // namespace

BENCHMARK_MAIN();
