// crash_recovery — demonstrates the consistency guarantees pMEMCPY inherits
// from its PMDK-style object store: a power failure mid-store leaves the
// previously-published value intact, because entries are fully persisted
// before the single atomic link-in, and an interrupted allocation rolls back
// on recovery.
#include <pmemcpy/pmemcpy.hpp>

#include <cstdio>
#include <cstring>
#include <vector>

int main() {
  pmemcpy::PmemNode::Options o;
  o.capacity = 128ull << 20;
  o.crash_shadow = true;  // track unpersisted cachelines
  pmemcpy::PmemNode node(o);

  pmemcpy::Config cfg;
  cfg.node = &node;

  // Publish a durable checkpoint value.
  {
    pmemcpy::PMEM pmem{cfg};
    pmem.mmap("/ckpt.pmem");
    std::vector<double> state(1000, 1.0);
    pmem.store("state", state);
    pmem.store("epoch", std::int64_t{41});
    pmem.munmap();
  }

  // Begin overwriting it, but "lose power" while the new value is still
  // being written (reserved and filled, never published).
  {
    auto pool = node.open_pool("_ckpt.pmem");
    auto table = node.table_for(pool, pool->root());
    auto ins = table->reserve("epoch", sizeof(std::int64_t));
    auto span = ins.value();
    const std::int64_t half_done = 42;
    std::memcpy(span.data(), &half_done, sizeof(half_done));
    std::printf("unpersisted cachelines in flight: %zu\n",
                node.device().unpersisted_lines());
    node.device().simulate_crash();  // power failure: publish never happens
    // (the Inserter destructor models the allocator's post-crash garbage
    // collection of unreachable reservations)
  }

  // "Reboot": re-mount the device image and recover.
  node.remount();
  {
    pmemcpy::PMEM pmem{cfg};
    pmem.mmap("/ckpt.pmem");
    const auto epoch = pmem.load<std::int64_t>("epoch");
    const auto state = pmem.load<std::vector<double>>("state");
    std::printf("after crash: epoch=%lld (expected 41), state[0]=%.1f, "
                "%zu elems intact\n",
                static_cast<long long>(epoch), state[0], state.size());
    if (epoch != 41 || state.size() != 1000) {
      std::printf("crash_recovery: FAILED\n");
      return 1;
    }
    pmem.munmap();
  }

  std::printf("crash_recovery: OK\n");
  return 0;
}
