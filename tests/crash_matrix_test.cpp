// Systematic crash-point exploration (Jaaru-style "exhaustive persist-point"
// testing, cf. PAPERS.md): run a deterministic multi-dataset workload once to
// learn its total persist-op count P, then re-run it once per crash point
// k ∈ (setup, P], with the device scheduled to lose power *before* the k-th
// persist completes.  After every crash the harness re-mounts the node, runs
// recovery, and asserts
//   * Pool::check() finds a structurally sound pool,
//   * PMEM::scrub() finds no checksum-corrupt entries, and
//   * atomic visibility: every dataset is either fully readable with the
//     exact committed contents or cleanly absent — never torn.
// The whole matrix runs twice: once with full cacheline loss and once in
// torn-write mode, where a deterministic pseudo-random subset of the
// unpersisted lines happens to have reached media before the power failed.
//
// A second, pool-level matrix sweeps every persist point of an alloc/free
// workload, and a mutation test re-introduces a known durability bug (the
// unpersisted retire zero of an allocator undo lane) to prove the harness
// actually catches committed-data loss.  Targeted sweeps crash a hashtable
// rehash at each persist point; crash a hashtable replace until it leaves a
// shadowed duplicate, which the key's next put (single or batched) must
// sweep; and crash a tree put at each persist point, whose temp file remount
// must reclaim.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/pmemcpy.hpp>

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::FaultPlan;

constexpr std::size_t kNodeCapacity = 4ull << 20;
constexpr const char* kPoolFile = "crash.pool";

const std::array<double, 8> kGridData = {0.5, 1.5, 2.5, 3.5,
                                         4.5, 5.5, 6.5, 7.5};
const std::vector<int> kDeltaData = {1, 2, 3, 4, 5};

/// Persist-op window of one workload step, recorded on the crash-free
/// counting run.  With a crash scheduled at op k (ops 1..k-1 complete):
///   done       — end < k           (every op of the step completed)
///   untouched  — start >= k        (the step never issued an op)
///   in-flight  — start < k <= end  (the crash landed inside the step)
struct StepMark {
  const char* name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

struct Marks {
  std::vector<StepMark> steps;

  const StepMark& at(const char* name) const {
    for (const auto& s : steps) {
      if (std::string_view(s.name) == name) return s;
    }
    ADD_FAILURE() << "no step named " << name;
    static StepMark dummy{"?", 0, 0};
    return dummy;
  }
  bool done(const char* name, std::uint64_t k) const {
    return at(name).end < k;
  }
  bool started(const char* name, std::uint64_t k) const {
    return at(name).start < k;
  }
};

std::string join_issues(const std::vector<std::string>& issues) {
  std::ostringstream os;
  for (const auto& s : issues) os << "\n  - " << s;
  return os.str();
}

pmemcpy::Config make_cfg(pmemcpy::PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.nbuckets = 4;            // force chained buckets (exercises link paths)
  cfg.auto_grow_table = false; // keep the op sequence flat and deterministic
  return cfg;
}

pmemcpy::PmemNode::Options node_opts() {
  pmemcpy::PmemNode::Options o;
  o.capacity = kNodeCapacity;
  o.pool_fraction = 0.5;
  o.crash_shadow = true;
  return o;
}

// ---------------------------------------------------------------------------
// PMEM-level matrix: multi-dataset put workload through the public API
// ---------------------------------------------------------------------------

Marks run_workload(pmemcpy::PMEM& p, pmemcpy::pmem::Device& dev) {
  Marks marks;
  auto step = [&](const char* name, auto&& fn) {
    StepMark m{name, dev.persist_ops(), 0};
    fn();
    m.end = dev.persist_ops();
    marks.steps.push_back(m);
  };
  step("alpha1", [&] { p.store("alpha", 42); });
  step("grid_alloc", [&] {
    const std::size_t d = kGridData.size();
    p.alloc<double>("grid", 1, &d);
  });
  step("grid_piece", [&] {
    const std::size_t off = 0, cnt = kGridData.size();
    p.store("grid", kGridData.data(), 1, &off, &cnt);
  });
  step("gamma", [&] { p.store("gamma", std::string("hello-crash")); });
  step("units", [&] {
    p.store_attribute("grid", "units", std::string("m/s"));
  });
  step("alpha2", [&] { p.store("alpha", 43); });
  step("delta", [&] { p.store("delta", kDeltaData); });
  return marks;
}

struct MatrixPlan {
  std::uint64_t setup_ops = 0;  ///< persist ops consumed before step 1
  std::uint64_t total_ops = 0;  ///< persist ops after the last step
  Marks marks;
};

MatrixPlan counting_run() {
  MatrixPlan plan;
  pmemcpy::PmemNode node(node_opts());
  node.device().enable_checker();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap(kPoolFile);
  plan.setup_ops = node.device().persist_ops();
  {
    // The engine must build the table it was asked for: at 64 buckets none
    // of the workload's keys would share a chain.
    const auto pool = node.open_pool(kPoolFile);
    EXPECT_EQ(node.table_for(pool, pool->root())->nbuckets(), 4u);
  }
  plan.marks = run_workload(p, node.device());
  plan.total_ops = node.device().persist_ops();

  // Sanity: the crash-free run must read everything back.
  EXPECT_EQ(p.load<int>("alpha"), 43);
  EXPECT_EQ(p.load<std::string>("gamma"), "hello-crash");
  EXPECT_EQ(p.load_attribute<std::string>("grid", "units"), "m/s");
  EXPECT_EQ(p.load<std::vector<int>>("delta"), kDeltaData);
  p.munmap();
  // The crash-free workload must be persistency-clean end to end.
  const auto chk = node.device().checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
  return plan;
}

/// Atomic-visibility assertions for one recovered image.  Every dataset must
/// be fully readable with committed contents or cleanly absent; a torn value
/// surfaces as IntegrityError, which no handler here catches, failing the
/// test with the original message.
void check_visibility(pmemcpy::PMEM& p, const Marks& m, std::uint64_t k) {
  try {
    const int v = p.load<int>("alpha");
    if (m.done("alpha2", k)) {
      EXPECT_EQ(v, 43);
    } else if (m.started("alpha2", k)) {
      EXPECT_TRUE(v == 42 || v == 43) << "alpha = " << v;
    } else {
      // alpha1 done or in-flight-but-readable: only 42 was ever written.
      EXPECT_EQ(v, 42);
    }
  } catch (const pmemcpy::KeyError&) {
    EXPECT_FALSE(m.done("alpha1", k)) << "completed store lost";
    EXPECT_FALSE(m.done("alpha2", k)) << "completed store lost";
  }

  try {
    int nd = 0;
    std::size_t dims[4] = {};
    p.load_dims("grid", &nd, dims);
    ASSERT_EQ(nd, 1);
    EXPECT_EQ(dims[0], kGridData.size());
    EXPECT_TRUE(m.started("grid_alloc", k));
  } catch (const pmemcpy::KeyError&) {
    EXPECT_FALSE(m.done("grid_alloc", k)) << "completed alloc lost";
  }

  {
    std::array<double, 8> out{};
    const std::size_t off = 0, cnt = out.size();
    try {
      p.load("grid", out.data(), 1, &off, &cnt);
      EXPECT_EQ(out, kGridData);
      EXPECT_TRUE(m.started("grid_piece", k));
    } catch (const pmemcpy::KeyError&) {
      EXPECT_FALSE(m.done("grid_piece", k)) << "completed piece lost";
    }
  }

  try {
    EXPECT_EQ(p.load<std::string>("gamma"), "hello-crash");
    EXPECT_TRUE(m.started("gamma", k));
  } catch (const pmemcpy::KeyError&) {
    EXPECT_FALSE(m.done("gamma", k)) << "completed store lost";
  }

  try {
    EXPECT_EQ(p.load_attribute<std::string>("grid", "units"), "m/s");
    EXPECT_TRUE(m.started("units", k));
  } catch (const pmemcpy::KeyError&) {
    EXPECT_FALSE(m.done("units", k)) << "completed attribute lost";
  }

  try {
    EXPECT_EQ(p.load<std::vector<int>>("delta"), kDeltaData);
    EXPECT_TRUE(m.started("delta", k));
  } catch (const pmemcpy::KeyError&) {
    EXPECT_FALSE(m.done("delta", k)) << "completed store lost";
  }
}

void run_crash_point(std::uint64_t k, const MatrixPlan& plan, bool torn) {
  SCOPED_TRACE("crash at persist op " + std::to_string(k) +
               (torn ? " (torn writes)" : ""));
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  dev.enable_checker();
  {
    pmemcpy::PMEM p(make_cfg(node));
    p.mmap(kPoolFile);
    // Determinism guard: the replay must line up op-for-op with the
    // counting run or the recorded step windows are meaningless.
    ASSERT_EQ(dev.persist_ops(), plan.setup_ops);

    FaultPlan fp;
    fp.crash_at_persist = k;
    fp.torn_writes = torn;
    dev.set_fault_plan(fp);
    try {
      (void)run_workload(p, dev);
      ADD_FAILURE() << "workload completed despite scheduled crash";
    } catch (const CrashError& e) {
      EXPECT_EQ(e.persist_op, k);
    }
    ASSERT_TRUE(dev.frozen());
    // The crashed handle is simply dropped, like a process that died.
  }

  dev.revive();
  node.remount();

  pmemcpy::PMEM p2(make_cfg(node));
  p2.mmap(kPoolFile);  // re-open runs undo-log recovery

  const auto pool = node.open_pool(kPoolFile);
  const auto report = pool->check();
  EXPECT_TRUE(report.ok()) << "pool corrupt after recovery:"
                           << join_issues(report.issues);

  const auto scrubbed = p2.scrub();
  std::ostringstream bad;
  for (const auto& it : scrubbed.corrupt) {
    bad << "\n  - " << it.key << ": " << it.issue;
  }
  EXPECT_TRUE(scrubbed.ok()) << "scrub found torn entries:" << bad.str();

  check_visibility(p2, plan.marks, k);
  p2.munmap();
  // Recovery + re-read must not introduce violations (the crash itself
  // wiped the pre-crash tracking state, so this covers the post-revive ops).
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
}

void sweep_all_crash_points(bool torn) {
  const MatrixPlan plan = counting_run();
  ASSERT_GT(plan.total_ops, plan.setup_ops);
  std::cout << "[ crash matrix ] sweeping " << plan.total_ops - plan.setup_ops
            << " persist points (ops " << plan.setup_ops + 1 << ".."
            << plan.total_ops << ")\n";
  // Full sweep, no sampling: every persist op the workload issues.
  for (std::uint64_t k = plan.setup_ops + 1; k <= plan.total_ops; ++k) {
    run_crash_point(k, plan, torn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, EveryPersistPointRecoversAtomically) {
  sweep_all_crash_points(/*torn=*/false);
}

TEST(CrashMatrixTest, EveryPersistPointRecoversWithTornWrites) {
  sweep_all_crash_points(/*torn=*/true);
}

// ---------------------------------------------------------------------------
// Pool-level matrix: allocator persist points
// ---------------------------------------------------------------------------

constexpr std::size_t kPoolBytes = 4ull << 20;
constexpr std::uint64_t kValInit = 0xA1A1A1A1A1A1A1A1ull;

/// One allocation of the pool workload: the step that makes it, the step
/// that frees it again (nullptr: kept), its size and its offset.
struct PoolAlloc {
  const char* alloc_step;
  const char* free_step;
  std::size_t size;
  std::uint64_t off = 0;
};

struct PoolPlan {
  std::uint64_t setup_ops = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t a_off = 0;  ///< offset of the probed allocation
  std::vector<PoolAlloc> allocs;
  Marks marks;
};

Marks run_pool_workload(pmemcpy::obj::Pool& pool, pmemcpy::pmem::Device& dev,
                        std::vector<PoolAlloc>* allocs_out) {
  Marks marks;
  auto step = [&](const char* name, auto&& fn) {
    StepMark m{name, dev.persist_ops(), 0};
    fn();
    m.end = dev.persist_ops();
    marks.steps.push_back(m);
  };
  // Covers every allocator path: class-list pop/push, arena bump, large-list
  // first-fit with a split.
  std::vector<PoolAlloc> allocs = {{"alloc_a", nullptr, 100},
                                   {"alloc_b", "free_b", 5000},
                                   {"alloc_c", nullptr, 5000},  // list reuse
                                   {"alloc_big", "free_big", 200000},
                                   {"alloc_big2", nullptr, 100000}};  // split
  auto allocate = [&](std::size_t i) {
    step(allocs[i].alloc_step,
         [&] { allocs[i].off = pool.alloc(allocs[i].size); });
  };
  auto release = [&](std::size_t i) {
    step(allocs[i].free_step, [&] { pool.free(allocs[i].off); });
  };
  allocate(0);
  step("set_a", [&] { pool.set<std::uint64_t>(allocs[0].off, kValInit); });
  allocate(1);
  release(1);
  allocate(2);
  allocate(3);
  release(3);
  allocate(4);
  if (allocs_out != nullptr) *allocs_out = allocs;
  return marks;
}

PoolPlan pool_counting_run() {
  PoolPlan plan;
  pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
  dev.enable_checker();
  auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
  plan.setup_ops = dev.persist_ops();
  plan.marks = run_pool_workload(pool, dev, &plan.allocs);
  plan.total_ops = dev.persist_ops();
  plan.a_off = plan.allocs[0].off;
  EXPECT_EQ(pool.get<std::uint64_t>(plan.a_off), kValInit);
  EXPECT_TRUE(pool.check().ok());
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
  return plan;
}

void run_pool_crash_point(std::uint64_t k, const PoolPlan& plan, bool torn) {
  SCOPED_TRACE("pool crash at persist op " + std::to_string(k) +
               (torn ? " (torn writes)" : ""));
  pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
  dev.enable_checker();
  {
    auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
    ASSERT_EQ(dev.persist_ops(), plan.setup_ops);
    FaultPlan fp;
    fp.crash_at_persist = k;
    fp.torn_writes = torn;
    dev.set_fault_plan(fp);
    try {
      (void)run_pool_workload(pool, dev, nullptr);
    } catch (const CrashError& e) {
      EXPECT_EQ(e.persist_op, k);
    }
    ASSERT_TRUE(dev.frozen());
  }

  dev.revive();
  auto pool = pmemcpy::obj::Pool::open(dev, 0);
  const auto report = pool.check();
  EXPECT_TRUE(report.ok()) << "pool corrupt after recovery:"
                           << join_issues(report.issues);

  const auto& m = plan.marks;
  const std::uint64_t v = pool.get<std::uint64_t>(plan.a_off);
  if (m.done("set_a", k)) {
    EXPECT_EQ(v, kValInit);
  } else if (m.started("set_a", k)) {
    EXPECT_TRUE(v == 0 || v == kValInit) << "a = " << std::hex << v;
  }

  // Every allocation a completed step made, and no step has begun to free,
  // is still allocated: the next allocation of its size hands out another
  // chunk.  (A rolled-back allocation goes back to the list or arena spot
  // it came from, so the allocator would return it first.)
  for (const auto& pa : plan.allocs) {
    if (!m.done(pa.alloc_step, k)) continue;
    if (pa.free_step != nullptr && m.started(pa.free_step, k)) continue;
    EXPECT_NE(pool.alloc(pa.size), pa.off)
        << pa.alloc_step << " was rolled back after it completed";
  }

  // The recovered allocator must still function.
  const auto probe = pool.alloc(64);
  pool.set<std::uint64_t>(probe, 0xD00DULL);
  EXPECT_EQ(pool.get<std::uint64_t>(probe), 0xD00DULL);
  pool.free(probe);
  EXPECT_TRUE(pool.check().ok());
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
}

void sweep_pool_crash_points(bool torn) {
  const PoolPlan plan = pool_counting_run();
  ASSERT_GT(plan.total_ops, plan.setup_ops);
  std::cout << "[ crash matrix ] sweeping " << plan.total_ops - plan.setup_ops
            << " allocator persist points\n";
  for (std::uint64_t k = plan.setup_ops + 1; k <= plan.total_ops; ++k) {
    run_pool_crash_point(k, plan, torn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, AllocatorMatrixRecovers) {
  sweep_pool_crash_points(/*torn=*/false);
}

TEST(CrashMatrixTest, AllocatorMatrixRecoversWithTornWrites) {
  sweep_pool_crash_points(/*torn=*/true);
}

// ---------------------------------------------------------------------------
// Pool-level matrix with magazines armed (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// Same shape as run_pool_workload, but with per-rank magazines on: the
/// churn covers a refill batch (one undo tx carving K chunks), magazine
/// pops (plain-store pop-seal, persisted by the adjacent payload set),
/// flagged fast-path frees, and an overflow flush_back — so the crash sweep
/// lands inside every magazine persist point at least once.
Marks run_mag_workload(pmemcpy::obj::Pool& pool, pmemcpy::pmem::Device& dev,
                       std::uint64_t* s_out) {
  Marks marks;
  auto step = [&](const char* name, auto&& fn) {
    StepMark m{name, dev.persist_ops(), 0};
    fn();
    m.end = dev.persist_ops();
    marks.steps.push_back(m);
  };
  std::uint64_t s = 0;
  std::uint64_t o[8] = {};
  step("refill_alloc_s", [&] { s = pool.alloc(300); });  // refill batch
  step("set_s", [&] { pool.set<std::uint64_t>(s, kValInit); });
  step("churn_alloc", [&] {
    // Two refills of the 100-byte class plus pops in between.  Each pop's
    // seal is a plain store; the set() right after persists the same line
    // (the publisher's flush in the engine protocol).
    for (std::uint64_t i = 0; i < 8; ++i) {
      o[i] = pool.alloc(100);
      pool.set<std::uint64_t>(o[i], i);
    }
  });
  step("churn_free", [&] {
    // Eight flagged fast-path frees; the last overflows the 2K cap and
    // triggers a flush_back batch of K back to the persistent lists.
    for (std::uint64_t i = 0; i < 8; ++i) pool.free(o[i]);
  });
  if (s_out != nullptr) *s_out = s;
  return marks;
}

void arm_magazines(pmemcpy::obj::Pool& pool) {
  pool.set_magazine_size(4);
  pool.set_alloc_stripes(8);
}

PoolPlan mag_counting_run() {
  PoolPlan plan;
  pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
  dev.enable_checker();
  auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
  arm_magazines(pool);
  plan.setup_ops = dev.persist_ops();
  plan.marks = run_mag_workload(pool, dev, &plan.a_off);
  plan.total_ops = dev.persist_ops();
  EXPECT_EQ(pool.get<std::uint64_t>(plan.a_off), kValInit);
  EXPECT_TRUE(pool.check().ok());
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
  return plan;
}

void run_mag_crash_point(std::uint64_t k, const PoolPlan& plan, bool torn) {
  SCOPED_TRACE("magazine crash at persist op " + std::to_string(k) +
               (torn ? " (torn writes)" : ""));
  pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
  dev.enable_checker();
  {
    auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
    arm_magazines(pool);
    ASSERT_EQ(dev.persist_ops(), plan.setup_ops);
    FaultPlan fp;
    fp.crash_at_persist = k;
    fp.torn_writes = torn;
    dev.set_fault_plan(fp);
    try {
      (void)run_mag_workload(pool, dev, nullptr);
    } catch (const CrashError& e) {
      EXPECT_EQ(e.persist_op, k);
    }
    ASSERT_TRUE(dev.frozen());
  }

  dev.revive();
  auto pool = pmemcpy::obj::Pool::open(dev, 0);
  const auto report = pool.check();
  EXPECT_TRUE(report.ok()) << "pool corrupt after recovery:"
                           << join_issues(report.issues);
  // The open-time sweep reclaims every chunk the crash left flagged: a
  // magazine never survives its owner.
  EXPECT_EQ(report.magazine_chunks, 0u)
      << report.magazine_chunks << " chunks still magazine-flagged";

  const auto& m = plan.marks;
  const std::uint64_t v = pool.get<std::uint64_t>(plan.a_off);
  if (m.done("set_s", k)) {
    EXPECT_EQ(v, kValInit);
  } else if (m.started("set_s", k)) {
    if (v != 0 && v != kValInit) {
      // A crash that pre-empts the publishing flush reverts the plain-store
      // pop-seal along with the value: the chunk reverts to magazine-
      // flagged and the open-time sweep reclaims it, so the allocation
      // itself unwound and the payload word now holds a free-list link.
      // Prove that is what happened: the class list must hand s back.
      bool reclaimed = false;
      std::vector<std::uint64_t> tmp;
      for (int i = 0; i < 8 && !reclaimed; ++i) {
        const auto got = pool.alloc(300);
        if (got == plan.a_off) {
          reclaimed = true;
        } else {
          tmp.push_back(got);
        }
      }
      EXPECT_TRUE(reclaimed) << "s = " << std::hex << v;
      if (reclaimed) pool.free(plan.a_off);
      for (const auto t : tmp) pool.free(t);
    }
  }

  // The recovered allocator must function both classically and with
  // magazines re-armed.
  const auto probe = pool.alloc(64);
  pool.set<std::uint64_t>(probe, 0xD00DULL);
  EXPECT_EQ(pool.get<std::uint64_t>(probe), 0xD00DULL);
  pool.free(probe);
  arm_magazines(pool);
  const auto probe2 = pool.alloc(100);
  pool.set<std::uint64_t>(probe2, 0xD11DULL);
  EXPECT_EQ(pool.get<std::uint64_t>(probe2), 0xD11DULL);
  pool.free(probe2);
  pool.drain_magazines();
  EXPECT_TRUE(pool.check().ok());
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
}

void sweep_mag_crash_points(bool torn) {
  const PoolPlan plan = mag_counting_run();
  ASSERT_GT(plan.total_ops, plan.setup_ops);
  std::cout << "[ crash matrix ] sweeping " << plan.total_ops - plan.setup_ops
            << " magazine-armed persist points\n";
  for (std::uint64_t k = plan.setup_ops + 1; k <= plan.total_ops; ++k) {
    run_mag_crash_point(k, plan, torn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, MagazineMatrixRecovers) {
  sweep_mag_crash_points(/*torn=*/false);
}

TEST(CrashMatrixTest, MagazineMatrixRecoversWithTornWrites) {
  sweep_mag_crash_points(/*torn=*/true);
}

// ---------------------------------------------------------------------------
// Hashtable: a crash-leftover duplicate is swept by the key's next put
// ---------------------------------------------------------------------------

using pmemcpy::obj::HashTable;

std::string table_value(const HashTable& table, std::string_view key) {
  const auto ref = table.find(key);
  if (!ref) return "<missing>";
  std::string out(ref->val_size, '\0');
  table.read_value(*ref, out.data());
  return out;
}

std::size_t table_visits(const HashTable& table, std::string_view key) {
  std::size_t n = 0;
  table.for_each([&](std::string_view k, const pmemcpy::obj::ValueRef&) {
    n += k == key ? 1 : 0;
  });
  return n;
}

/// Builds a 1-bucket table holding `a` and `b` (chain b -> a), then replaces
/// `a` with a crash scheduled at the replace's @p k-th persist op.  Returns
/// false when the replace completed first (k is past its last persist).
bool crash_replace_of_a(pmemcpy::pmem::Device& dev, std::uint64_t k) {
  auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
  auto table = HashTable::create(pool, 1);
  pool.set_root(table.header_off());
  table.put("a", "a0", 2);
  table.put("b", "b0", 2);
  FaultPlan fp;
  fp.crash_at_persist = dev.persist_ops() + k;
  dev.set_fault_plan(fp);
  try {
    table.put("a", "a1", 2);
  } catch (const CrashError&) {
  }
  return dev.frozen();
}

/// Crashes the replace of `a` at each persist point until recovery shows
/// `a` twice — the new head plus the old node it shadows — then replaces
/// `a` again, alone or as a batch.  Every later visitor must see `a` once.
void replace_over_leftover_duplicate(bool batch) {
  SCOPED_TRACE(batch ? "batched replace" : "single replace");
  bool found = false;
  for (std::uint64_t k = 1; !found; ++k) {
    SCOPED_TRACE("crash at the replace's persist op " + std::to_string(k));
    pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
    if (!crash_replace_of_a(dev, k)) break;
    dev.revive();
    auto pool = pmemcpy::obj::Pool::open(dev, 0);
    auto table = HashTable::open(pool, pool.root());
    if (table_visits(table, "a") != 2) continue;
    found = true;
    EXPECT_EQ(table_value(table, "a"), "a1");

    if (batch) {
      auto ins = table.reserve("a", 2);
      std::memcpy(ins.value().data(), "a2", 2);
      std::vector<HashTable::GroupPut> group{{&ins, false, false}};
      table.publish_group(group);
    } else {
      table.put("a", "a2", 2);
    }
    EXPECT_EQ(table_visits(table, "a"), 1u);
    EXPECT_EQ(table_value(table, "a"), "a2");
    EXPECT_EQ(table_value(table, "b"), "b0");
    const auto report = pool.check();
    EXPECT_TRUE(report.ok()) << join_issues(report.issues);
  }
  EXPECT_TRUE(found) << "no persist point of the replace left a duplicate";
}

TEST(CrashMatrixTest, ReplaceSweepsLeftoverDuplicate) {
  replace_over_leftover_duplicate(/*batch=*/false);
  replace_over_leftover_duplicate(/*batch=*/true);
}

// ---------------------------------------------------------------------------
// Hashtable: a rehash is atomic at every persist point
// ---------------------------------------------------------------------------

constexpr int kRehashKeys = 24;

std::string rehash_value(int i) { return "value-" + std::to_string(i); }

/// Builds a 4-bucket table holding kRehashKeys keys, then rehashes it to 64
/// buckets with a crash scheduled at the rehash's @p k-th persist op
/// (k = 0: no crash).  Returns the rehash's persist-op count.
std::uint64_t rehash_with_crash(pmemcpy::pmem::Device& dev, std::uint64_t k,
                                bool torn) {
  auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);
  auto table = HashTable::create(pool, 4);
  pool.set_root(table.header_off());
  for (int i = 0; i < kRehashKeys; ++i) {
    const std::string v = rehash_value(i);
    table.put("key" + std::to_string(i), v.data(), v.size());
  }
  const std::uint64_t start = dev.persist_ops();
  if (k != 0) {
    FaultPlan fp;
    fp.crash_at_persist = start + k;
    fp.torn_writes = torn;
    dev.set_fault_plan(fp);
  }
  try {
    table.rehash(64);
  } catch (const CrashError& e) {
    EXPECT_EQ(e.persist_op, start + k);
  }
  return dev.persist_ops() - start;
}

void sweep_rehash_crash_points(bool torn) {
  std::uint64_t points = 0;
  {
    pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
    points = rehash_with_crash(dev, 0, torn);
  }
  ASSERT_GT(points, 0u);
  std::cout << "[ crash matrix ] sweeping " << points
            << " rehash persist points\n";
  for (std::uint64_t k = 1; k <= points; ++k) {
    SCOPED_TRACE("crash at the rehash's persist op " + std::to_string(k) +
                 (torn ? " (torn writes)" : ""));
    pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
    dev.enable_checker();
    (void)rehash_with_crash(dev, k, torn);
    ASSERT_TRUE(dev.frozen());
    dev.revive();

    auto pool = pmemcpy::obj::Pool::open(dev, 0);
    auto table = HashTable::open(pool, pool.root());
    EXPECT_TRUE(table.nbuckets() == 4 || table.nbuckets() == 64)
        << table.nbuckets() << " buckets";
    for (int i = 0; i < kRehashKeys; ++i) {
      EXPECT_EQ(table_value(table, "key" + std::to_string(i)),
                rehash_value(i));
    }
    std::size_t visited = 0;
    table.for_each([&](std::string_view, const pmemcpy::obj::ValueRef&) {
      ++visited;
    });
    EXPECT_EQ(visited, static_cast<std::size_t>(kRehashKeys));
    const auto report = pool.check();
    EXPECT_TRUE(report.ok()) << join_issues(report.issues);
    const auto chk = dev.checker()->take_report();
    EXPECT_TRUE(chk.ok()) << chk.to_string();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, RehashIsAtomicAtEveryPersistPoint) {
  sweep_rehash_crash_points(/*torn=*/false);
}

TEST(CrashMatrixTest, RehashIsAtomicAtEveryPersistPointWithTornWrites) {
  sweep_rehash_crash_points(/*torn=*/true);
}

// ---------------------------------------------------------------------------
// Tree layout: remount reclaims the temp file of a crashed put
// ---------------------------------------------------------------------------

/// Every name under @p dir, recursively.
void collect_names(pmemcpy::fs::FileSystem& fs, const std::string& dir,
                   std::vector<std::string>& out) {
  for (const auto& name : fs.list(dir)) {
    const std::string path = (dir == "/" ? "" : dir) + "/" + name;
    out.push_back(path);
    if (fs.is_dir(path)) collect_names(fs, path, out);
  }
}

/// Overwrites tree entry `dir/k` ("old" -> "new"); returns whether the put
/// completed (false: the device crashed inside it).
bool overwrite_tree_entry(pmemcpy::engine::Engine& eng) {
  try {
    auto put = eng.put("dir/k", 3, 0, false);
    put->sink().write("new", 3);
    put->commit(pmemcpy::crc32c("new", 3));
    return true;
  } catch (const CrashError&) {
    return false;
  }
}

TEST(CrashMatrixTest, RemountReclaimsTreePutTempFiles) {
  const auto open = [](pmemcpy::PmemNode& node) {
    return pmemcpy::engine::open_tree_engine(node, "/tree", false, nullptr);
  };
  const auto seed = [&](pmemcpy::PmemNode& node) {
    auto eng = open(node);
    auto put = eng->put("dir/k", 3, 0, false);
    put->sink().write("old", 3);
    put->commit(pmemcpy::crc32c("old", 3));
    return eng;
  };

  // Counting run: the persist-op window of the overwrite.
  std::uint64_t first = 0, last = 0;
  {
    pmemcpy::PmemNode node(node_opts());
    auto eng = seed(node);
    first = node.device().persist_ops() + 1;
    ASSERT_TRUE(overwrite_tree_entry(*eng));
    last = node.device().persist_ops();
  }
  ASSERT_LE(first, last);

  for (std::uint64_t k = first; k <= last; ++k) {
    SCOPED_TRACE("crash at persist op " + std::to_string(k));
    pmemcpy::PmemNode node(node_opts());
    auto& dev = node.device();
    {
      auto eng = seed(node);
      ASSERT_EQ(dev.persist_ops() + 1, first);  // replay determinism
      FaultPlan fp;
      fp.crash_at_persist = k;
      dev.set_fault_plan(fp);
      EXPECT_FALSE(overwrite_tree_entry(*eng));
      ASSERT_TRUE(dev.frozen());
    }
    dev.revive();
    node.remount();

    std::vector<std::string> names;
    collect_names(node.fs(), "/", names);
    for (const auto& name : names) {
      EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    }
    auto entry = open(node)->find("dir/k");
    ASSERT_NE(entry, nullptr);
    const auto blob = entry->stored_span();
    const std::string got(reinterpret_cast<const char*>(blob.data()),
                          blob.size());
    EXPECT_TRUE(got == "old" || got == "new") << got;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Mutation test: the harness must catch a re-introduced durability bug
// ---------------------------------------------------------------------------

TEST(CrashMatrixValidation, CatchesUnpersistedLaneHeaderCommitBug) {
  pmemcpy::pmem::Device dev(kPoolBytes, /*crash_shadow=*/true);
  dev.enable_checker();
  // A raw pool: magazines off, so every alloc() is one undo transaction on
  // an allocator lane.
  auto pool = pmemcpy::obj::Pool::create(dev, 0, kPoolBytes);

  // Control: with the correct commit sequence a committed allocation
  // survives power loss, so the next allocation is another chunk.
  const auto kept = pool.alloc(64);
  ASSERT_TRUE(dev.checker()->take_report().ok())
      << "correct commit sequence must be checker-clean";
  dev.simulate_crash();
  auto good = pmemcpy::obj::Pool::open(dev, 0);
  ASSERT_NE(good.alloc(64), kept);

  // Re-introduce the bug: aundo_commit() skips persisting the lane's retire
  // zero.  The crash reverts the unpersisted zero, re-exposing the stale
  // pre-images, and recovery rolls the *committed* allocation back.  The
  // crash comes right after the buggy commit: the next allocator operation
  // on the lane would rewrite its first line and hide the bug.
  good.test_faults().skip_undo_retire_persist = true;
  const auto lost = good.alloc(64);
  // The persistency checker flags the same bug statically, without needing
  // a crash: the lane's header line is still dirty when the scope commits.
  {
    const auto rep = dev.checker()->take_report();
    EXPECT_GE(rep.count(pmemcpy::check::Violation::kDirtyAtCommit), 1u)
        << rep.to_string();
  }
  dev.simulate_crash();
  auto bad = pmemcpy::obj::Pool::open(dev, 0);
  EXPECT_EQ(bad.alloc(64), lost)
      << "bug knob had no effect: the committed allocation survived, so the "
         "harness would miss the bug";
}

// ---------------------------------------------------------------------------
// Scrub: bitrot and failing media on stored entries
// ---------------------------------------------------------------------------

TEST(ScrubTest, DetectsBitrotAndMediaErrors) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("scrub.pool");
  p.store("alpha", 42);
  p.store("gamma", std::string("the quick brown fox"));

  auto rep = p.scrub();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.entries, 2u);

  // Locate both blobs on the device.
  std::size_t alpha_off = 0, alpha_len = 0, gamma_off = 0;
  p.for_each_raw([&](const std::string& key, std::span<const std::byte> blob,
                     std::uint64_t) {
    const auto off = static_cast<std::size_t>(blob.data() - dev.raw(0));
    if (key == "alpha") {
      alpha_off = off;
      alpha_len = blob.size();
    } else if (key == "gamma") {
      gamma_off = off;
    }
  });
  ASSERT_GT(alpha_len, 0u);
  ASSERT_GT(gamma_off, 0u);

  // Bitrot: flip one byte of alpha's blob behind the library's back.
  std::byte orig{};
  dev.read(alpha_off, &orig, 1);
  const std::byte flipped = orig ^ std::byte{0x01};
  dev.write(alpha_off, &flipped, 1);

  EXPECT_THROW((void)p.load<int>("alpha"), pmemcpy::IntegrityError);
  rep = p.scrub();
  ASSERT_EQ(rep.corrupt.size(), 1u);
  EXPECT_EQ(rep.corrupt[0].key, "alpha");
  EXPECT_NE(rep.corrupt[0].issue.find("checksum"), std::string::npos);

  // Failing media: reads of gamma's blob now throw a typed DeviceError.
  dev.inject_read_error(gamma_off, 1);
  EXPECT_THROW((void)p.load<std::string>("gamma"), pmemcpy::pmem::DeviceError);
  rep = p.scrub();
  EXPECT_EQ(rep.corrupt.size(), 2u);

  // Repair both: the store scrubs clean again.
  dev.clear_read_errors();
  dev.write(alpha_off, &orig, 1);
  EXPECT_TRUE(p.scrub().ok());
  EXPECT_EQ(p.load<int>("alpha"), 42);
  EXPECT_EQ(p.load<std::string>("gamma"), "the quick brown fox");
}

// ---------------------------------------------------------------------------
// Read cache across power loss: sweep every persist point of a repair
// relocation while the victim is warm in the DRAM read cache.  The cache is
// volatile state layered over persistent truth — no crash point may leave a
// recovered store whose reads disagree with what was acknowledged.
// ---------------------------------------------------------------------------

TEST(CrashMatrixTest, RepairCrashSweepWithWarmReadCache) {
  namespace trace = pmemcpy::trace;
  const bool trace_was = trace::enabled();
  trace::set_enabled(true);

  auto cached_cfg = [](pmemcpy::PmemNode& node) {
    auto cfg = make_cfg(node);
    cfg.read_cache_bytes = 1u << 20;
    return cfg;
  };
  // Deterministic scene: six entries, every one loaded twice so the whole
  // working set is cache-resident, then the victim's media goes sticky.
  auto build_scene = [&](pmemcpy::PmemNode& node, pmemcpy::PMEM& p) {
    p.mmap("crash.warmcache");
    for (int i = 0; i < 6; ++i) {
      p.store("w" + std::to_string(i), std::vector<int>(16, i + 1));
    }
    const std::uint64_t hits0 = trace::counter(trace::Counter::kReadCacheHits);
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(p.load<std::vector<int>>("w" + std::to_string(i)),
                  std::vector<int>(16, i + 1));
      }
    }
    // The repeats really were DRAM hits: the cache is warm at crash time.
    EXPECT_GT(trace::counter(trace::Counter::kReadCacheHits), hits0);
    std::uint64_t voff = 0;
    p.for_each_raw([&](const std::string& k, std::span<const std::byte> blob,
                       std::uint64_t) {
      if (k == "w2") voff = static_cast<std::uint64_t>(
          blob.data() - node.device().raw());
    });
    ASSERT_NE(voff, 0u);
    node.device().inject_sticky_range(voff, 64);
  };
  auto check_scene = [](pmemcpy::PMEM& p) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(p.load<std::vector<int>>("w" + std::to_string(i)),
                std::vector<int>(16, i + 1))
          << "w" << i;
    }
  };

  // Counting run: learn the persist-op window the relocation spans.
  std::uint64_t ops_before = 0, ops_after = 0;
  {
    pmemcpy::PmemNode node(node_opts());
    pmemcpy::PMEM p(cached_cfg(node));
    build_scene(node, p);
    ops_before = node.device().persist_ops();
    const auto rep = p.repair();
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.relocated, 1u);
    ops_after = node.device().persist_ops();
    check_scene(p);
    p.munmap();
  }
  ASSERT_GT(ops_after, ops_before);

  for (std::uint64_t k = ops_before + 1; k <= ops_after; ++k) {
    SCOPED_TRACE("crash at persist op " + std::to_string(k));
    pmemcpy::PmemNode node(node_opts());
    auto& dev = node.device();
    {
      pmemcpy::PMEM p(cached_cfg(node));
      build_scene(node, p);
      ASSERT_EQ(dev.persist_ops(), ops_before);  // replay determinism
      FaultPlan fp;
      fp.crash_at_persist = k;
      fp.torn_writes = true;
      fp.fault_seed = k;
      dev.set_fault_plan(fp);
      try {
        (void)p.repair();
        ADD_FAILURE() << "repair completed despite scheduled crash";
      } catch (const CrashError& e) {
        EXPECT_EQ(e.persist_op, k);
      }
      ASSERT_TRUE(dev.frozen());
    }
    dev.revive();
    node.remount();

    const auto pool = node.open_pool("crash.warmcache");
    const auto report = pool->check();
    EXPECT_TRUE(report.ok()) << join_issues(report.issues);
    pmemcpy::PMEM p2(cached_cfg(node));
    p2.mmap("crash.warmcache");
    check_scene(p2);
    const auto rep2 = p2.repair();
    EXPECT_TRUE(rep2.ok());
    check_scene(p2);
    p2.munmap();
    if (::testing::Test::HasFatalFailure()) break;
  }
  trace::set_enabled(trace_was);
}

// ---------------------------------------------------------------------------
// Trace layer across power loss: spans open at the crash close carrying the
// crashed flag, the registry resets to a clean epoch, and the recovery sweep
// after revive/remount is itself traced.
// ---------------------------------------------------------------------------

TEST(CrashMatrixTrace, OpenSpansCrashMarkedAndRecoveryTraced) {
  namespace trace = pmemcpy::trace;
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::reset();

  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  {
    pmemcpy::PMEM p(make_cfg(node));
    p.mmap(kPoolFile);
    FaultPlan fp;
    fp.crash_at_persist = dev.persist_ops() + 1;  // first persist of the put
    dev.set_fault_plan(fp);
    try {
      p.store("alpha", 42);
      ADD_FAILURE() << "store completed despite scheduled crash";
    } catch (const CrashError&) {
    }
    ASSERT_TRUE(dev.frozen());
  }

  EXPECT_EQ(trace::counter(pmemcpy::trace::Counter::kCrashes), 1u);
  bool put_crashed = false;
  for (const auto& s : trace::snapshot()) {
    // Spans that closed before the power loss keep crashed=false; the
    // put that the crash cut through is flagged (and still closed
    // normally as the CrashError unwound the stack).
    if (std::string_view(s.name) == "core.put") {
      EXPECT_TRUE(s.crashed);
      EXPECT_GE(s.end_ns, s.start_ns);
      put_crashed = true;
    }
    if (std::string_view(s.name) == "core.mmap") EXPECT_FALSE(s.crashed);
  }
  EXPECT_TRUE(put_crashed) << "no core.put span recorded at the crash";

  // The registry survives the crash and resets to a clean epoch.
  trace::reset();
  EXPECT_TRUE(trace::snapshot().empty());
  EXPECT_EQ(trace::counter(pmemcpy::trace::Counter::kCrashes), 0u);

  // Recovery after revive/remount is traced like any other work.
  dev.revive();
  node.remount();
  pmemcpy::PMEM p2(make_cfg(node));
  p2.mmap(kPoolFile);
  EXPECT_GE(trace::counter(pmemcpy::trace::Counter::kRecoveries), 1u);
  bool recover_span = false;
  for (const auto& s : trace::snapshot()) {
    if (std::string_view(s.name) == "pool.recover") {
      recover_span = true;
      EXPECT_FALSE(s.crashed);
      EXPECT_GE(s.end_ns, s.start_ns);
    }
  }
  EXPECT_TRUE(recover_span) << "recovery sweep left no pool.recover span";
  // The un-crashed put never published: the key must be absent, cleanly.
  EXPECT_FALSE(p2.exists("alpha"));
  p2.munmap();

  trace::reset();
  trace::set_enabled(was_enabled);
}

}  // namespace
