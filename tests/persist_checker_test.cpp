// Mutation tests for the persistency-order checker: plant one instance of
// every violation class and assert the checker reports exactly that class
// (and nothing else).  Complements the crash-matrix/stress integration,
// which asserts the *absence* of violations on the real I/O paths.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <latch>
#include <thread>

namespace {

using pmemcpy::check::Violation;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::Device;
using pmemcpy::pmem::FaultPlan;
namespace trace = pmemcpy::trace;

constexpr std::size_t kDev = 1 << 20;

struct PersistCheckerTest : ::testing::Test {
  Device dev{kDev, /*crash_shadow=*/true};
  void SetUp() override { dev.enable_checker(); }
};

// --- clean sequences must stay clean ---------------------------------------

TEST_F(PersistCheckerTest, CorrectSequenceIsClean) {
  const std::uint64_t v = 7;
  dev.check_tx_begin("test.clean");
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  dev.check_publish(0, sizeof(v));
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.scopes_committed, 1u);
  EXPECT_EQ(rep.publishes, 1u);
}

TEST_F(PersistCheckerTest, FlushBatchUnderOneFenceIsClean) {
  const bool was_tracing = trace::enabled();
  trace::set_enabled(true);
  const std::uint64_t fences = trace::counter(trace::Counter::kFenceOps);
  const std::uint64_t v = 7;
  for (std::size_t i = 0; i < 4; ++i) dev.write(i * 64, &v, sizeof(v));
  for (std::size_t i = 0; i < 4; ++i) dev.flush(i * 64, sizeof(v));
  dev.drain();
  EXPECT_EQ(trace::counter(trace::Counter::kFenceOps) - fences, 1u);
  trace::set_enabled(was_tracing);
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// A line that is re-stored legitimately needs another flush: never flagged.
TEST_F(PersistCheckerTest, RedirtiedReflushIsClean) {
  const std::uint64_t v = 7;
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  dev.write(8, &v, sizeof(v));  // same cacheline, new store
  dev.persist(8, sizeof(v));
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- correctness violations -------------------------------------------------

TEST_F(PersistCheckerTest, FlagsDirtyAtCommit) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.leaky");
  dev.write(0, &v, sizeof(v));  // never persisted
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kDirtyAtCommit), 1u) << rep.to_string();
  EXPECT_EQ(rep.correctness_violations, 1u);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].scope, "test.leaky");
}

// Flushed but not yet fenced still counts as not-durable at commit.
TEST_F(PersistCheckerTest, FlagsFlushPendingAtCommit) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.unfenced");
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));  // CLWB without SFENCE
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kDirtyAtCommit), 1u) << rep.to_string();
}

TEST_F(PersistCheckerTest, FlagsUnpersistedPublish) {
  const std::uint64_t v = 1;
  dev.write(0, &v, sizeof(v));
  dev.check_publish(0, sizeof(v));  // visible before flush+fence
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kUnpersistedPublish), 1u) << rep.to_string();
  EXPECT_EQ(rep.correctness_violations, 1u);
}

TEST_F(PersistCheckerTest, FlagsStoreAfterFlushBeforeFence) {
  const std::uint64_t v = 1;
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));
  dev.write(8, &v, sizeof(v));  // races the in-flight writeback
  dev.drain();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kStoreAfterFlush), 1u) << rep.to_string();
}

// --- efficiency lints --------------------------------------------------------

TEST_F(PersistCheckerTest, FlagsCleanLineFlush) {
  dev.persist(0, 64);  // nothing was ever stored there
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kCleanFlush), 1u) << rep.to_string();
  EXPECT_EQ(rep.correctness_violations, 0u);
}

TEST_F(PersistCheckerTest, FlagsDuplicateFlushInScope) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.dup");
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  dev.persist(0, sizeof(v));  // same scope, no store in between
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kDuplicateFlush), 1u) << rep.to_string();
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].scope, "test.dup");
}

TEST_F(PersistCheckerTest, FlagsDuplicateFlushBetweenFences) {
  const std::uint64_t v = 1;
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));
  dev.flush(0, sizeof(v));  // second CLWB before the fence buys nothing
  dev.drain();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kDuplicateFlush), 1u) << rep.to_string();
}

TEST_F(PersistCheckerTest, FlagsEmptyFence) {
  dev.drain();  // nothing flushed since the last fence
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kEmptyFence), 1u) << rep.to_string();
}

// --- threads: a fence covers only its own thread's flushes ------------------
// Thread A is the test thread; B runs on a second thread, ordered by join or
// latch, so every interleaving below is deterministic.

// A's own stores were fenced long ago; B's later store and unfenced flush of
// the same line are B's to answer for.
TEST_F(PersistCheckerTest, OtherThreadsUnfencedFlushDoesNotFailACommit) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.a");
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  std::thread([&] {
    dev.write(8, &v, sizeof(v));
    dev.flush(8, sizeof(v));
  }).join();
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// B's fence orders only B's flushes: A's flushed line is still not durable
// when A commits, and a crash reverts it.
TEST_F(PersistCheckerTest, OtherThreadsFenceDoesNotCoverOwnFlush) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.b");
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));
  std::thread([&] {
    dev.write(128, &v, sizeof(v));
    dev.persist(128, sizeof(v));
  }).join();
  dev.check_tx_commit();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kDirtyAtCommit), 1u) << rep.to_string();
  EXPECT_EQ(rep.correctness_violations, 1u);

  dev.simulate_crash();
  std::uint64_t out = 0;
  dev.read(0, &out, sizeof(out));
  EXPECT_EQ(out, 0u);  // A's line reverted
  dev.read(128, &out, sizeof(out));
  EXPECT_EQ(out, v);  // B's line was fenced by B
}

// B did not flush the line, so its store does not race a writeback of its
// own.
TEST_F(PersistCheckerTest, StoreAfterAnotherThreadsFlushIsNotFlagged) {
  const std::uint64_t v = 1;
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));
  std::thread([&] { dev.write(8, &v, sizeof(v)); }).join();
  dev.drain();
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// A's persist covered B's store too.  B's own persist of it is not flagged
// once; B persisting again with nothing new is.
TEST_F(PersistCheckerTest, FlushCoveredByAnotherThreadLintsOnlyOnRepeat) {
  const std::uint64_t v = 1;
  std::latch b_stored(1);
  std::latch a_persisted(1);
  pmemcpy::check::Report b_first;
  pmemcpy::check::Report b_second;
  std::thread b([&] {
    dev.write(8, &v, sizeof(v));
    b_stored.count_down();
    a_persisted.wait();
    dev.persist(8, sizeof(v));
    b_first = dev.checker()->take_report();
    dev.persist(8, sizeof(v));
    b_second = dev.checker()->take_report();
  });
  b_stored.wait();
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  const auto a_rep = dev.checker()->take_report();
  a_persisted.count_down();
  b.join();
  EXPECT_TRUE(a_rep.ok()) << a_rep.to_string();
  EXPECT_TRUE(b_first.ok()) << b_first.to_string();
  EXPECT_EQ(b_second.count(Violation::kCleanFlush), 1u) << b_second.to_string();
  EXPECT_EQ(b_second.efficiency_violations, 1u);
}

// Only A's flush is pending, so B's fence orders nothing; A's own fence
// orders A's flush.
TEST_F(PersistCheckerTest, FenceWithOnlyAnotherThreadsFlushPendingIsEmpty) {
  const std::uint64_t v = 1;
  dev.write(0, &v, sizeof(v));
  dev.flush(0, sizeof(v));
  std::thread([&] { dev.drain(); }).join();
  const auto rep = dev.checker()->take_report();
  EXPECT_EQ(rep.count(Violation::kEmptyFence), 1u) << rep.to_string();
  EXPECT_EQ(rep.findings.size(), 1u);
  dev.drain();
  const auto own = dev.checker()->take_report();
  EXPECT_TRUE(own.ok()) << own.to_string();
}

// --- report mechanics --------------------------------------------------------

TEST_F(PersistCheckerTest, TakeReportResetsFindingsButKeepsTraffic) {
  dev.check_tx_begin("test.take");
  dev.check_tx_commit();
  dev.drain();  // plant one empty fence
  const auto first = dev.checker()->take_report();
  EXPECT_EQ(first.count(Violation::kEmptyFence), 1u);
  const auto second = dev.checker()->take_report();
  EXPECT_TRUE(second.ok()) << second.to_string();
  EXPECT_TRUE(second.findings.empty());
  // Annotation traffic accumulates.
  EXPECT_EQ(second.scopes_committed, first.scopes_committed);
}

TEST_F(PersistCheckerTest, ReportJsonMentionsViolation) {
  dev.drain();
  const auto rep = dev.checker()->take_report();
  const auto json = rep.to_json();
  EXPECT_NE(json.find("empty-fence"), std::string::npos) << json;
  EXPECT_NE(json.find("\"efficiency_violations\":1"), std::string::npos)
      << json;
}

// --- crash interaction (bugfix: tracking suspends while frozen) -------------

TEST_F(PersistCheckerTest, FrozenDeviceSuspendsTracking) {
  const std::uint64_t v = 1;
  dev.check_tx_begin("test.crash");
  dev.write(0, &v, sizeof(v));

  FaultPlan plan;
  plan.crash_at_persist = dev.persist_ops() + 1;
  dev.set_fault_plan(plan);
  EXPECT_THROW(dev.persist(0, sizeof(v)), CrashError);
  ASSERT_TRUE(dev.frozen());

  // Post-crash unwind: these must all be silently ignored, not tracked as
  // stores/commits against wiped state.
  dev.check_tx_commit();
  dev.check_publish(0, sizeof(v));
  dev.note_write(0, 64);

  dev.revive();
  // Recovery-style rewrite of the line must be clean: the crash reset every
  // line, and nothing from the frozen window may have leaked in.
  dev.write(0, &v, sizeof(v));
  dev.persist(0, sizeof(v));
  const auto rep = dev.checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- end-to-end: the checker catches the historical commit bug --------------

TEST(PersistCheckerPoolTest, CatchesSkippedLaneZeroPersistAtCommit) {
  constexpr std::size_t kPoolDev = 4ull << 20;
  Device dev(kPoolDev, /*crash_shadow=*/true);
  dev.enable_checker();
  // A raw pool: magazines off, so every alloc() is one undo transaction on
  // an allocator lane.
  auto pool = Pool::create(dev, 0, kPoolDev);
  (void)pool.alloc(64);
  ASSERT_TRUE(dev.checker()->take_report().ok());

  // The lane's retire zero is stored but never persisted: the line is still
  // dirty when the allocation's scope commits.
  pool.test_faults().skip_undo_retire_persist = true;
  (void)pool.alloc(64);
  const auto rep = dev.checker()->take_report();
  EXPECT_GE(rep.count(Violation::kDirtyAtCommit), 1u) << rep.to_string();
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].scope, "pool.alloc");
}

// --- enablement --------------------------------------------------------------

TEST(PersistCheckerEnableTest, CheckerOffByDefaultWithoutEnv) {
  // The build default is baked in at compile time; when the env var is
  // absent and the default is off, no checker is attached and the hooks are
  // no-ops.  (CI's checker configuration flips the default to on.)
#ifdef PMEMCPY_PERSIST_CHECK_DEFAULT
  GTEST_SKIP() << "checker default-on build";
#else
  if (std::getenv("PMEMCPY_PERSIST_CHECK") != nullptr) {
    GTEST_SKIP() << "PMEMCPY_PERSIST_CHECK set in environment";
  }
  Device dev(kDev);
  EXPECT_FALSE(dev.checker_enabled());
  dev.drain();  // would be an empty-fence lint if a checker were attached
  EXPECT_TRUE(dev.checker_report().ok());
  EXPECT_TRUE(dev.checker_report().findings.empty());
#endif
}

}  // namespace
