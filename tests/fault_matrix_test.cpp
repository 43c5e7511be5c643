// Fault-matrix sweep for the self-healing data path (DESIGN.md §10).
//
// The matrix drives the public PMEM API under seed-deterministic injected
// faults — transient read/write/persist faults that succeed on retry, and
// sticky escalations that turn a cacheline range into permanently failing
// media — and asserts the two invariants the tentpole promises:
//
//   * zero acknowledged-put loss: every store() that returned reads back
//     byte-exact, under every seeded fault plan, including across a crash
//     scheduled in the middle of repair();
//   * zero persistency violations: the attached order checker stays clean
//     while healing retries, quarantines and relocations run.
//
// Alongside the sweep, targeted tests pin down each layer's contract:
// device retry/backoff accounting, quarantine-table capacity + persistence
// across remount, allocator avoidance of quarantined space, repair()
// relocation + idempotence, typed damaged-key errors, degraded read-only
// mode, collective health agreement, and a hashtable publish that faults
// after a bucket-head store keeping the now reachable entry allocated.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/par/comm.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace {

using pmemcpy::ft::DegradedError;
using pmemcpy::ft::ErrorCode;
using pmemcpy::ft::Health;
using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::DeviceError;
using pmemcpy::pmem::FaultPlan;
using pmemcpy::trace::Counter;

constexpr std::size_t kNodeCapacity = 8ull << 20;

/// The ft.* counters the matrix asserts on only tally while tracing is
/// enabled; arm it for the whole binary (counters are read as deltas).
class TraceOnEnv : public ::testing::Environment {
  void SetUp() override { pmemcpy::trace::set_enabled(true); }
  void TearDown() override { pmemcpy::trace::set_enabled(false); }
};
const auto* const kTraceOn =
    ::testing::AddGlobalTestEnvironment(new TraceOnEnv);

pmemcpy::PmemNode::Options node_opts() {
  pmemcpy::PmemNode::Options o;
  o.capacity = kNodeCapacity;
  o.pool_fraction = 0.5;
  o.crash_shadow = true;  // the crash-in-repair sweep needs line shadows
  return o;
}

pmemcpy::Config make_cfg(pmemcpy::PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.auto_grow_table = false;  // deterministic op sequences
  return cfg;
}

std::uint64_t ctr(Counter c) { return pmemcpy::trace::counter(c); }

/// Device-absolute offset (and size) of @p key's blob, via the raw-entry
/// walk: the zero-copy span points straight into device memory.
std::uint64_t blob_dev_off(pmemcpy::PMEM& p, pmemcpy::pmem::Device& dev,
                           const std::string& key,
                           std::size_t* size_out = nullptr) {
  std::uint64_t off = 0;
  p.for_each_raw([&](const std::string& k, std::span<const std::byte> blob,
                     std::uint64_t) {
    if (k != key) return;
    off = static_cast<std::uint64_t>(blob.data() - dev.raw());
    if (size_out != nullptr) *size_out = blob.size();
  });
  EXPECT_NE(off, 0u) << "no raw entry named " << key;
  return off;
}

// ---------------------------------------------------------------------------
// Transient faults: retried to success, charged, deterministic
// ---------------------------------------------------------------------------

struct TransientTallies {
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
};

TransientTallies run_transient_workload(std::uint64_t seed) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  dev.enable_checker();
  const std::uint64_t faults0 = ctr(Counter::kFtTransientFaults);
  const std::uint64_t retries0 = ctr(Counter::kFtRetries);
  const double backoff0 = pmemcpy::sim::ctx().charged(
      pmemcpy::sim::Charge::kRetryBackoff);

  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("ft.transient");
  FaultPlan plan;
  plan.transient_read_rate = 0.02;
  plan.transient_write_rate = 0.02;
  plan.transient_persist_rate = 0.02;
  plan.fault_seed = seed;
  dev.set_fault_plan(plan);

  for (int i = 0; i < 50; ++i) {
    p.store("k" + std::to_string(i), i * 7);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.load<int>("k" + std::to_string(i)), i * 7);
  }
  EXPECT_EQ(p.health(), Health::kHealthy);
  const auto scrubbed = p.scrub();
  EXPECT_TRUE(scrubbed.ok());

  TransientTallies t;
  t.faults = ctr(Counter::kFtTransientFaults) - faults0;
  t.retries = ctr(Counter::kFtRetries) - retries0;
  // Faults really fired, every one was retried to success, and the backoff
  // was charged to the simulated clock like any other cost.
  EXPECT_GT(t.faults, 0u);
  EXPECT_GT(t.retries, 0u);
  EXPECT_GT(pmemcpy::sim::ctx().charged(pmemcpy::sim::Charge::kRetryBackoff),
            backoff0);

  p.munmap();
  const auto chk = dev.checker()->take_report();
  EXPECT_TRUE(chk.ok()) << chk.to_string();
  return t;
}

TEST(FaultMatrix, TransientFaultsRetryToSuccess) {
  (void)run_transient_workload(0xAB5EEDull);
}

TEST(FaultMatrix, FaultScheduleIsSeedDeterministic) {
  const TransientTallies a = run_transient_workload(0xAB5EEDull);
  const TransientTallies b = run_transient_workload(0xAB5EEDull);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.retries, b.retries);
  // A different seed draws a different (deterministic) schedule.
  const TransientTallies c = run_transient_workload(0xC0FFEEull);
  EXPECT_NE(a.faults, c.faults);
}

TEST(FaultMatrix, DeviceRetryPolicyBoundsAttempts) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::ft::RetryPolicy pol;
  pol.max_attempts = 1;  // no second chances
  dev.set_retry_policy(pol);
  FaultPlan plan;
  plan.transient_write_rate = 1.0;  // every store attempt faults
  plan.fault_seed = 7;
  dev.set_fault_plan(plan);
  std::uint32_t v = 42;
  try {
    dev.write(0, &v, sizeof(v));
    FAIL() << "write succeeded despite rate-1.0 faults and no retries";
  } catch (const DeviceError& e) {
    EXPECT_EQ(e.kind, DeviceError::Kind::kTransient);
  }
}

// ---------------------------------------------------------------------------
// Sticky-fault sweep: quarantine + heal, zero acknowledged loss per seed
// ---------------------------------------------------------------------------

void run_sticky_plan(std::uint64_t seed) {
  SCOPED_TRACE("sticky plan seed " + std::to_string(seed));
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  dev.enable_checker();

  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("ft.sticky");
  FaultPlan plan;
  plan.transient_write_rate = 0.01;
  plan.transient_persist_rate = 0.01;
  plan.sticky_rate = 0.5;  // half the faults escalate to dead media
  plan.fault_seed = seed;
  dev.set_fault_plan(plan);

  // Acknowledged = store() returned.  Healing may degrade the handle when a
  // plan is vicious enough; from then on writes must refuse up front.
  std::map<std::string, std::vector<int>> acked;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "s" + std::to_string(i);
    std::vector<int> val(24, i * 3 + 1);
    try {
      p.store(key, val);
      acked[key] = std::move(val);
    } catch (const DegradedError&) {
      EXPECT_EQ(p.health(), Health::kDegraded);
      break;
    }
  }

  // Zero acknowledged-put loss: every acknowledged key reads back exact,
  // even with its bytes sitting on (readable) sticky-bad media.
  for (const auto& [key, val] : acked) {
    EXPECT_EQ(p.load<std::vector<int>>(key), val) << key;
  }
  const auto scrubbed = p.scrub();
  EXPECT_TRUE(scrubbed.ok());

  if (p.health() == Health::kDegraded) {
    EXPECT_FALSE(p.health_status().is_ok());
    EXPECT_THROW(p.store("post-degrade", 1), DegradedError);
  }

  p.munmap();
  // Healing must not bend persistency ordering: unwound attempts, the
  // quarantine appends and relocated publishes all stay violation-free.
  const auto chk = dev.checker()->take_report();
  EXPECT_EQ(chk.correctness_violations, 0u) << chk.to_string();

  // The quarantine table the run built is structurally sound.
  const auto pool = node.open_pool("ft.sticky");
  const auto report = pool->check();
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? std::string()
                                   : report.issues.front());
}

TEST(FaultMatrix, StickySweepHealsEverySeededPlan) {
  const std::uint64_t quar0 = ctr(Counter::kFtQuarantines);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_sticky_plan(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Across the sweep at least one plan escalated and was quarantined (each
  // individual seed draws its own deterministic schedule).
  EXPECT_GT(ctr(Counter::kFtQuarantines), quar0);
}

// ---------------------------------------------------------------------------
// Quarantine table: capacity, dedupe, persistence, allocator avoidance
// ---------------------------------------------------------------------------

TEST(FaultMatrix, QuarantineTableCapacityAndPersistence) {
  pmemcpy::PmemNode node(node_opts());
  auto pool = node.create_pool("quar.pool", 2ull << 20);
  const std::uint64_t base_off = 1ull << 20;  // inside the (empty) heap

  for (std::size_t i = 0; i < pmemcpy::obj::Pool::kQuarantineCapacity; ++i) {
    const auto st = pool->quarantine(base_off + i * 128, 64);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  }
  // Full: a new range is refused with the typed code...
  const auto full = pool->quarantine(base_off / 2, 64);
  EXPECT_EQ(full.code(), ErrorCode::kQuarantineFull);
  // ...but re-quarantining a covered range stays idempotent-ok.
  EXPECT_TRUE(pool->quarantine(base_off, 64).is_ok());
  EXPECT_TRUE(pool->is_quarantined(base_off, 1));
  EXPECT_FALSE(pool->is_quarantined(base_off + 64, 1));

  // The table is persistent state: it survives a remount + reopen intact.
  pool.reset();
  node.remount();
  pool = node.open_pool("quar.pool");
  EXPECT_EQ(pool->quarantined().size(),
            pmemcpy::obj::Pool::kQuarantineCapacity);
  EXPECT_TRUE(pool->is_quarantined(base_off, 1));
  const auto report = pool->check();
  EXPECT_TRUE(report.ok());
}

TEST(FaultMatrix, AllocatorNeverHandsOutQuarantinedSpace) {
  pmemcpy::PmemNode node(node_opts());
  auto pool = node.create_pool("avoid.pool", 2ull << 20);

  // Free-list path: a quarantined free chunk is skipped, not reused.
  const auto a = pool->alloc(64);
  const auto b = pool->alloc(64);
  pool->free(b);
  ASSERT_TRUE(pool->quarantine(b - 16, 64 + 16).is_ok());
  const auto c = pool->alloc(64);
  EXPECT_NE(c, b);
  EXPECT_FALSE(pool->is_quarantined(c - 16, 64 + 16));

  // Arena path: quarantine a stretch just past the bump pointer and verify
  // fresh allocations hop it (leaving checksummed filler the verifier
  // accepts) instead of landing on it.
  const auto probe = pool->alloc(64);
  ASSERT_TRUE(pool->quarantine(probe + 64, 640).is_ok());
  for (int i = 0; i < 20; ++i) {
    const auto off = pool->alloc(64);
    EXPECT_FALSE(pool->is_quarantined(off - 16, 64 + 16)) << off;
    pool->set<std::uint64_t>(off, 0xD00Dull + static_cast<std::uint64_t>(i));
  }
  (void)a;
  const auto report = pool->check();
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? std::string()
                                   : report.issues.front());
}

// ---------------------------------------------------------------------------
// repair(): relocation off failing media, idempotence, crash safety
// ---------------------------------------------------------------------------

TEST(FaultMatrix, RepairRelocatesIntactEntriesOffFailingMedia) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("ft.repair");

  const std::vector<double> vals{1.5, 2.5, 3.5, 4.5, 5.5, 6.5};
  p.store("victim", vals);
  p.store("bystander", 99);

  std::size_t vsize = 0;
  const std::uint64_t voff = blob_dev_off(p, dev, "victim", &vsize);
  dev.inject_sticky_range(voff, 64);

  const std::uint64_t reloc0 = ctr(Counter::kFtRelocations);
  const auto rep = p.repair();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.relocated, 1u);
  EXPECT_EQ(ctr(Counter::kFtRelocations) - reloc0, 1u);

  // The entry moved off the bad range and still reads back exact.
  const std::uint64_t voff2 = blob_dev_off(p, dev, "victim");
  EXPECT_NE(voff2, voff);
  EXPECT_FALSE(dev.media_failing(voff2, vsize));
  EXPECT_EQ(p.load<std::vector<double>>("victim"), vals);
  EXPECT_EQ(p.load<int>("bystander"), 99);

  // Idempotent: a second pass finds nothing left to move.
  const auto rep2 = p.repair();
  EXPECT_TRUE(rep2.ok());
  EXPECT_EQ(rep2.relocated, 0u);

  // The quarantine fencing the old location is persistent.
  p.munmap();
  node.remount();
  const auto pool = node.open_pool("ft.repair");
  EXPECT_TRUE(pool->is_quarantined(voff - pool->base(), 1));
  EXPECT_TRUE(pool->check().ok());

  pmemcpy::PMEM p2(make_cfg(node));
  p2.mmap("ft.repair");
  EXPECT_EQ(p2.load<std::vector<double>>("victim"), vals);
  p2.munmap();
}

/// Read path under failing media with the DRAM read cache armed: cached
/// reads must fall back to PMEM + quarantine without ever serving bytes
/// that no longer match the published entry (DESIGN.md §13).
TEST(FaultMatrix, StickyMediaUnderCachedReadsServesNoStaleBytes) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  auto cfg = make_cfg(node);
  cfg.read_cache_bytes = 1u << 20;
  pmemcpy::PMEM p(cfg);
  p.mmap("ft.cachedread");

  const std::vector<double> v1{1.25, 2.25, 3.25, 4.25};
  p.store("victim", v1);
  p.store("bystander", 7);

  // Warm the cache: first load fills, the repeat is a DRAM hit.
  EXPECT_EQ(p.load<std::vector<double>>("victim"), v1);
  const std::uint64_t hits0 = ctr(Counter::kReadCacheHits);
  EXPECT_EQ(p.load<std::vector<double>>("victim"), v1);
  EXPECT_GT(ctr(Counter::kReadCacheHits), hits0);

  // The victim's media goes sticky-bad; repair() relocates it and — the
  // ordering §13 pins down — drops every cached blob before the new
  // location is the published one.
  std::size_t vsize = 0;
  const std::uint64_t voff = blob_dev_off(p, dev, "victim", &vsize);
  dev.inject_sticky_range(voff, 64);
  const std::uint64_t inval0 = ctr(Counter::kReadCacheInvalidations);
  const auto rep = p.repair();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.relocated, 1u);
  EXPECT_GT(ctr(Counter::kReadCacheInvalidations), inval0);

  // Kill the old location outright: if any layer still held the stale
  // address (or the cache survived the repair), the next load would fault
  // or serve bytes the quarantine already fenced off.
  dev.inject_read_error(voff, vsize);
  const std::uint64_t miss0 = ctr(Counter::kReadCacheMisses);
  EXPECT_EQ(p.load<std::vector<double>>("victim"), v1);
  EXPECT_GT(ctr(Counter::kReadCacheMisses), miss0);  // refilled, not stale-hit

  // Overwrite invalidation under the same armed cache: the put drops the
  // freshly refilled v1 blob, so the next load sees v2, never cached v1.
  const std::vector<double> v2{9.5, 8.5};
  p.store("victim", v2);
  EXPECT_EQ(p.load<std::vector<double>>("victim"), v2);
  EXPECT_EQ(p.load<int>("bystander"), 7);
  p.munmap();
}

TEST(FaultMatrix, UnreadableEntriesBecomeTypedDamage) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("ft.damaged");
  p.store("good", 1);
  p.store("lost", std::string("irreplaceable"));

  const std::uint64_t voff = blob_dev_off(p, dev, "lost");
  dev.inject_read_error(voff, 16);

  // scrub() reports the media error with its device offset...
  const auto scrubbed = p.scrub();
  ASSERT_EQ(scrubbed.corrupt.size(), 1u);
  EXPECT_EQ(scrubbed.corrupt[0].key, "lost");
  EXPECT_EQ(scrubbed.corrupt[0].dev_off, voff);

  // ...and repair() declares it damaged: uncorrectable reads cannot heal.
  const std::uint64_t dmg0 = ctr(Counter::kFtDamagedKeys);
  const auto rep = p.repair();
  ASSERT_EQ(rep.damaged.size(), 1u);
  EXPECT_EQ(rep.damaged[0].key, "lost");
  EXPECT_GT(ctr(Counter::kFtDamagedKeys), dmg0);
  EXPECT_EQ(p.damaged_keys(), std::vector<std::string>{"lost"});

  // Damaged keys surface as typed errors, never as garbage bytes; healthy
  // keys and writes are untouched (damage alone does not degrade).
  try {
    (void)p.load<std::string>("lost");
    FAIL() << "damaged key loaded";
  } catch (const DegradedError& e) {
    EXPECT_EQ(e.status.code(), ErrorCode::kDamagedKey);
  }
  EXPECT_EQ(p.load<int>("good"), 1);
  EXPECT_EQ(p.health(), Health::kHealthy);
  p.store("still-writable", 2);
  EXPECT_EQ(p.load<int>("still-writable"), 2);
  p.munmap();
}

TEST(FaultMatrix, ExhaustedHealingDegradesToReadOnly) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::PMEM p(make_cfg(node));
  p.mmap("ft.degraded");
  p.store("safe", 11);

  const std::uint64_t trans0 = ctr(Counter::kFtDegradedTransitions);
  // Every byte of the device goes bad: healing cannot find good space.
  dev.inject_sticky_range(0, dev.capacity());
  EXPECT_THROW(p.store("doomed", 1), DegradedError);
  EXPECT_EQ(p.health(), Health::kDegraded);
  EXPECT_FALSE(p.health_status().is_ok());
  EXPECT_EQ(ctr(Counter::kFtDegradedTransitions) - trans0, 1u);

  // Degraded mode is read-only: healthy entries still load, every mutation
  // is refused up front with the typed status.
  EXPECT_EQ(p.load<int>("safe"), 11);
  try {
    p.store("again", 2);
    FAIL() << "degraded handle accepted a write";
  } catch (const DegradedError& e) {
    EXPECT_EQ(e.status.code(), ErrorCode::kDegraded);
  }
  EXPECT_THROW(p.remove("safe"), DegradedError);
  // The transition is recorded once, not per refused write.
  EXPECT_EQ(ctr(Counter::kFtDegradedTransitions) - trans0, 1u);
  p.munmap();
}

// ---------------------------------------------------------------------------
// Crash in the middle of repair(): sweep every persist point
// ---------------------------------------------------------------------------

/// Deterministic setup shared by the counting run and every crash replay:
/// ten vector entries, then the victim's blob goes sticky.
std::uint64_t build_repair_scene(pmemcpy::PmemNode& node, pmemcpy::PMEM& p) {
  p.mmap("ft.crashrepair");
  for (int i = 0; i < 10; ++i) {
    p.store("c" + std::to_string(i), std::vector<int>(32, i + 1));
  }
  const std::uint64_t voff = blob_dev_off(p, node.device(), "c3");
  node.device().inject_sticky_range(voff, 64);
  return voff;
}

void check_repair_scene(pmemcpy::PMEM& p) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.load<std::vector<int>>("c" + std::to_string(i)),
              std::vector<int>(32, i + 1))
        << "c" << i;
  }
}

TEST(FaultMatrix, CrashDuringRepairLosesNothing) {
  // Counting run: learn the persist-op window repair() spans.
  std::uint64_t ops_before = 0, ops_after = 0;
  {
    pmemcpy::PmemNode node(node_opts());
    pmemcpy::PMEM p(make_cfg(node));
    (void)build_repair_scene(node, p);
    ops_before = node.device().persist_ops();
    const auto rep = p.repair();
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.relocated, 1u);
    ops_after = node.device().persist_ops();
    check_repair_scene(p);
    p.munmap();
  }
  ASSERT_GT(ops_after, ops_before);

  for (std::uint64_t k = ops_before + 1; k <= ops_after; ++k) {
    SCOPED_TRACE("crash at persist op " + std::to_string(k));
    pmemcpy::PmemNode node(node_opts());
    auto& dev = node.device();
    {
      pmemcpy::PMEM p(make_cfg(node));
      (void)build_repair_scene(node, p);
      ASSERT_EQ(dev.persist_ops(), ops_before);  // replay determinism
      FaultPlan fp;
      fp.crash_at_persist = k;
      dev.set_fault_plan(fp);  // sticky ranges survive a plan change
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

    // Recovery: the pool (including the mid-append quarantine table) is
    // structurally sound and no acknowledged entry was lost — the victim is
    // served from either its old (still readable) or relocated location.
    const auto pool = node.open_pool("ft.crashrepair");
    const auto report = pool->check();
    EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                     ? std::string()
                                     : report.issues.front());
    pmemcpy::PMEM p2(make_cfg(node));
    p2.mmap("ft.crashrepair");
    check_repair_scene(p2);

    // Re-running repair after the crash converges: everything intact after.
    const auto rep2 = p2.repair();
    EXPECT_TRUE(rep2.ok());
    check_repair_scene(p2);
    p2.munmap();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Publish unwinding: a fault after a head store never frees live storage
// ---------------------------------------------------------------------------

/// A 64-bucket table on a 32 MiB pool, for publishes whose second
/// visibility store hits sticky-bad media after a bucket-head store landed.
struct HeadFaultScene {
  static constexpr std::size_t kBytes = 32ull << 20;
  static constexpr std::size_t kValue = 100;

  pmemcpy::pmem::Device dev{kBytes};
  Pool pool = Pool::create(dev, 0, kBytes);
  HashTable table = HashTable::create(pool, 64);

  /// Device offset of the table header (its count word is the last field).
  std::uint64_t header() const { return pool.base() + table.header_off(); }

  /// Device offset of @p key's bucket-head slot.  Buckets are FNV-1a of the
  /// key modulo the bucket count, the header's first word is the bucket
  /// array's offset, and the heads start 64 bytes into the array (all part
  /// of the on-media format).
  std::uint64_t head_slot(std::string_view key) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    const auto buckets = pool.get<std::uint64_t>(table.header_off());
    return pool.base() + buckets + 64 + h % 64 * 8;
  }

  HashTable::Inserter reserve(const std::string& key) {
    auto ins = table.reserve(key, kValue);
    auto span = ins.value();
    std::memset(span.data(), key.back(), span.size());
    return ins;
  }

  /// Every key find() returns reads back intact, and the next allocations
  /// of its value and node sizes (a node is a 40-byte header plus the key)
  /// hand out neither: reachable storage was not freed.
  void expect_live_entries_kept(const std::vector<std::string>& keys) {
    for (const auto& key : keys) {
      SCOPED_TRACE(key);
      const auto ref = table.find(key);
      if (!ref) continue;
      std::string got(ref->val_size, '\0');
      table.read_value(*ref, got.data());
      EXPECT_EQ(got, std::string(kValue, key.back()));
      EXPECT_NE(pool.alloc(kValue), ref->val_off);
      EXPECT_NE(pool.alloc(40 + key.size()), ref->node_off);
    }
    const auto report = pool.check();
    EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                     ? std::string()
                                     : report.issues.front());
  }
};

TEST(FaultMatrix, FaultAfterHeadStoreKeepsReachableEntries) {
  // k1's head store lands, then its count store hits the sticky line.
  {
    SCOPED_TRACE("solo put");
    HeadFaultScene s;
    ASSERT_NE(s.head_slot("k1") / 64, (s.header() + 8) / 64);
    s.dev.inject_sticky_range(s.header(), 16);
    {
      auto ins = s.reserve("k1");
      EXPECT_THROW((void)ins.publish(), DeviceError);
    }
    EXPECT_TRUE(s.table.find("k1").has_value());
    s.expect_live_entries_kept({"k1"});
  }
  {
    SCOPED_TRACE("group of one");
    HeadFaultScene s;
    s.dev.inject_sticky_range(s.header(), 16);
    {
      auto ins = s.reserve("k1");
      std::vector<HashTable::GroupPut> group{{&ins, false, false}};
      EXPECT_THROW(s.table.publish_group(group), DeviceError);
    }
    EXPECT_TRUE(s.table.find("k1").has_value());
    s.expect_live_entries_kept({"k1"});
  }
  // The head stores go in slot order: the first bucket's head lands, and
  // the second bucket's head line is the sticky one.
  {
    SCOPED_TRACE("batch of two");
    HeadFaultScene s;
    std::string lands = "b0", faults;
    for (int i = 1; faults.empty(); ++i) {
      ASSERT_LT(i, 1000) << "no key with a head on another line";
      const std::string key = "b" + std::to_string(i);
      if (s.head_slot(key) / 64 != s.head_slot(lands) / 64) faults = key;
    }
    if (s.head_slot(faults) < s.head_slot(lands)) std::swap(lands, faults);
    s.dev.inject_sticky_range(s.head_slot(faults), 8);
    {
      auto first = s.reserve(lands);
      auto second = s.reserve(faults);
      std::vector<HashTable::GroupPut> group{{&first, false, false},
                                             {&second, false, false}};
      EXPECT_THROW(s.table.publish_group(group), DeviceError);
    }
    EXPECT_TRUE(s.table.find(lands).has_value());
    EXPECT_FALSE(s.table.find(faults).has_value());
    s.expect_live_entries_kept({lands, faults});
  }
}

// ---------------------------------------------------------------------------
// Collective health agreement
// ---------------------------------------------------------------------------

TEST(FaultMatrix, CollectiveHealthAgreement) {
  pmemcpy::PmemNode node(node_opts());
  auto& dev = node.device();
  pmemcpy::par::Runtime::run(2, [&](pmemcpy::par::Comm& comm) {
    pmemcpy::PMEM p(make_cfg(node));
    p.mmap("ft.health", comm);
    if (comm.rank() == 0) p.store("r0", 1);
    comm.barrier();
    if (comm.rank() == 1) {
      // Rank 1's media dies wholesale; its next put exhausts healing.
      dev.inject_sticky_range(0, dev.capacity());
      EXPECT_THROW(p.store("r1", 2), DegradedError);
      EXPECT_EQ(p.health(), Health::kDegraded);
    }
    comm.barrier();
    // The collective agreement degrades every rank's view coherently...
    EXPECT_EQ(p.check_health(comm), Health::kDegraded);
    EXPECT_EQ(p.health(), Health::kDegraded);
    // ...so writes are refused everywhere, not just where the media died.
    EXPECT_THROW(p.store("post", 3), DegradedError);
    p.munmap();
  });
}

TEST(FaultMatrix, AgreeHealthIsMaxAcrossRanks) {
  pmemcpy::par::Runtime::run(4, [](pmemcpy::par::Comm& comm) {
    const Health local =
        comm.rank() == 2 ? Health::kDegraded : Health::kHealthy;
    EXPECT_EQ(pmemcpy::par::agree_health(comm, local), Health::kDegraded);
    EXPECT_EQ(pmemcpy::par::agree_health(comm, Health::kHealthy),
              Health::kHealthy);
  });
}

}  // namespace
