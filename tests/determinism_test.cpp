// Determinism regression: the whole stack — engines, serializers, the
// simulated clock, the DRAM read cache, the counters bench/audit records —
// is supposed to be a pure function of the workload.  Two runs of the same
// seeded workload on fresh nodes must therefore produce byte-identical
// counter snapshots (every counter, serialised through the trace schema the
// stats exporter emits) and the same simulated clock reading.  Any nondeterminism here — an iteration order
// leak, a real-time dependency, an address-dependent hash — breaks the
// reproducibility claims EXPERIMENTS.md is built on, so it fails tier-1.
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/sim/context.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

namespace trace = pmemcpy::trace;
using pmemcpy::Config;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;

/// Every counter, serialised through the stats exporter's schema.
std::string counter_snapshot() {
  std::uint64_t row[static_cast<int>(trace::Counter::kNumCounters)] = {};
  for (int c = 0; c < static_cast<int>(trace::Counter::kNumCounters); ++c) {
    row[c] = trace::counter(static_cast<trace::Counter>(c));
  }
  return trace::schema_fields(row);
}

/// A seeded workload touching every audited path: scalar and array puts, a
/// group commit, cached and uncached reads (two passes so the second hits
/// the DRAM cache), an overwrite (cache invalidation), scrub, and removal.
void run_workload(pmemcpy::Layout layout, std::uint64_t seed) {
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  PmemNode node(o);
  Config cfg;
  cfg.node = &node;
  cfg.layout = layout;
  cfg.read_cache_bytes = 1u << 20;
  PMEM pmem{cfg};
  pmem.mmap("/det");

  std::uint64_t s = seed;
  const auto next = [&s] {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  for (int i = 0; i < 12; ++i) {
    pmem.store("s" + std::to_string(i),
               static_cast<std::int64_t>(next() % 100000));
  }
  {
    auto b = pmem.batch();
    for (int i = 0; i < 6; ++i) {
      pmem.store("g" + std::to_string(i), std::string("batched-") +
                                              std::to_string(next() % 997));
    }
    b.commit();
  }
  std::vector<double> v(1024);
  for (auto& x : v) x = static_cast<double>(next() % 4096) * 0.5;
  const std::size_t dims = v.size(), off = 0;
  pmem.alloc<double>("arr", 1, &dims);
  pmem.store("arr", v.data(), 1, &off, &dims);

  // Two read passes: the first fills the cache, the second hits it.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 12; ++i) {
      (void)pmem.load<std::int64_t>("s" + std::to_string(i));
    }
    std::vector<double> out(1024);
    pmem.load("arr", out.data(), 1, &off, &dims);
  }
  // Overwrite invalidates, the re-read refills.
  pmem.store("s0", std::int64_t{-1});
  (void)pmem.load<std::int64_t>("s0");

  (void)pmem.scrub();
  pmem.remove("s11");
  pmem.munmap();
}

TEST(Determinism, SeededWorkloadCountersAreByteIdentical) {
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  for (const auto layout :
       {pmemcpy::Layout::kHashTable, pmemcpy::Layout::kHierarchical}) {
    SCOPED_TRACE(layout == pmemcpy::Layout::kHashTable ? "table" : "tree");
    std::string snaps[2];
    double clocks[2] = {};
    for (int run = 0; run < 2; ++run) {
      trace::reset();
      pmemcpy::sim::ctx().reset_clock();
      run_workload(layout, 0xdecaf0001ull);
      snaps[run] = counter_snapshot();
      clocks[run] = pmemcpy::sim::ctx().now();
    }
    EXPECT_EQ(snaps[0], snaps[1]);
    EXPECT_EQ(clocks[0], clocks[1]);
    // Both runs actually exercised the cached read path.
    EXPECT_NE(snaps[0].find("read_cache_hits"), std::string::npos);
  }
  trace::set_enabled(was_enabled);
}

}  // namespace
