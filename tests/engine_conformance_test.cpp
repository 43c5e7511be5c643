// Conformance suite for the storage-engine contract (engine/engine.hpp):
// every engine — flat table and hierarchical tree — must
// satisfy the same put/find/erase/prefix-iteration/batch semantics the core
// relies on.  The whole suite runs with the persistency-order checker
// attached, so any flush/fence-ordering violation in an engine's write path
// fails the test that provoked it.  Pool-backed engines additionally get a
// crash-at-every-persist sweep of the group-commit publish path.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/pmemcpy.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using pmemcpy::PmemNode;
using pmemcpy::engine::Engine;
using pmemcpy::engine::EntryInfo;
using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::FaultPlan;

enum class Kind { kTable, kTree };

const char* kind_name(Kind k) {
  return k == Kind::kTable ? "Table" : "Tree";
}

std::unique_ptr<Engine> open_engine(PmemNode& node, Kind kind) {
  if (kind == Kind::kTree) {
    return pmemcpy::engine::open_tree_engine(node, "/store", false, nullptr);
  }
  pmemcpy::engine::PoolEngineOptions o;
  o.name = "test";
  o.nbuckets = 256;
  return pmemcpy::engine::open_pool_engine(node, o, nullptr);
}

class EngineTest : public ::testing::TestWithParam<Kind> {
 protected:
  EngineTest() {
    PmemNode::Options o;
    o.capacity = 64ull << 20;
    node_ = std::make_unique<PmemNode>(o);
    node_->device().enable_checker();
    engine_ = open_engine(*node_, GetParam());
  }

  ~EngineTest() override {
    engine_.reset();
    const auto rep = node_->device().checker()->take_report();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }

  static void put_str(Engine& st, const std::string& key,
                      const std::string& value, std::uint64_t meta = 0,
                      bool keep_existing = false) {
    auto put = st.put(key, value.size(), meta, keep_existing);
    put->sink().write(value.data(), value.size());
    put->commit(0);
  }

  static void batch_put_str(Engine::Batch& b, const std::string& key,
                            const std::string& value, std::uint64_t meta = 0,
                            bool keep_existing = false) {
    auto put = b.put(key, value.size(), meta, keep_existing);
    put->sink().write(value.data(), value.size());
    put->commit(0);
  }

  static std::string get_str(Engine& st, const std::string& key) {
    auto e = st.find(key);
    if (!e) return "<missing>";
    std::string out(e->info().size, '\0');
    e->read(0, out.data(), out.size());
    return out;
  }

  std::unique_ptr<PmemNode> node_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(EngineTest, PutFindRoundtrip) {
  put_str(*engine_, "k", "hello", 42);
  auto e = engine_->find("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->info().size, 5u);
  EXPECT_EQ(e->info().meta, 42u);
  EXPECT_EQ(get_str(*engine_, "k"), "hello");
}

TEST_P(EngineTest, FindMissingReturnsNull) {
  EXPECT_EQ(engine_->find("nope"), nullptr);
}

TEST_P(EngineTest, PartialRead) {
  put_str(*engine_, "k", "0123456789");
  auto e = engine_->find("k");
  char buf[4];
  e->read(3, buf, 4);
  EXPECT_EQ(std::string(buf, 4), "3456");
  EXPECT_THROW(e->read(8, buf, 4), std::exception);
}

TEST_P(EngineTest, StoredSpanMatches) {
  // Zero-copy read contract (DESIGN.md §13): stored_span() is a direct
  // const view of the committed blob, sized exactly, with the bytes readable
  // in place.
  put_str(*engine_, "k", "direct-data");
  auto e = engine_->find("k");
  const auto span = e->stored_span();
  ASSERT_EQ(span.size(), 11u);
  EXPECT_EQ(std::memcmp(span.data(), "direct-data", 11), 0);
  // A second call is stable — same bytes, same extent.
  const auto again = e->stored_span();
  ASSERT_EQ(again.size(), span.size());
  EXPECT_EQ(std::memcmp(again.data(), span.data(), span.size()), 0);
}

TEST_P(EngineTest, ReservedSpanBacksTheSink) {
  // Zero-copy contract (DESIGN.md §12): the engine reserves the payload
  // extent up front and exposes it, and bytes written through the sink land
  // in that exact span — no staging copy between serializer and PMEM.
  auto put = engine_->put("zc", 24, 0, false);
  const auto span = put->reserved_span();
  ASSERT_EQ(span.size(), 24u);
  const std::string payload = "reserve-then-serialize!!";
  put->sink().write(payload.data(), payload.size());
  EXPECT_EQ(std::memcmp(span.data(), payload.data(), payload.size()), 0);
  put->commit(0);
  EXPECT_EQ(get_str(*engine_, "zc"), payload);
}

TEST_P(EngineTest, BatchReservedSpansAreDistinct) {
  auto b = engine_->begin_batch();
  auto p1 = b->put("z1", 8, 0, false);
  auto p2 = b->put("z2", 8, 0, false);
  const auto s1 = p1->reserved_span();
  const auto s2 = p2->reserved_span();
  ASSERT_EQ(s1.size(), 8u);
  ASSERT_EQ(s2.size(), 8u);
  EXPECT_NE(s1.data(), s2.data());
  p1->sink().write("AAAAAAAA", 8);
  p1->commit(0);
  p2->sink().write("BBBBBBBB", 8);
  p2->commit(0);
  b->commit();
  EXPECT_EQ(get_str(*engine_, "z1"), "AAAAAAAA");
  EXPECT_EQ(get_str(*engine_, "z2"), "BBBBBBBB");
}

TEST_P(EngineTest, ReplaceLastWins) {
  put_str(*engine_, "k", "first");
  put_str(*engine_, "k", "second");
  EXPECT_EQ(get_str(*engine_, "k"), "second");
}

TEST_P(EngineTest, KeepExistingFirstWins) {
  put_str(*engine_, "k", "first");
  put_str(*engine_, "k", "second", 0, /*keep_existing=*/true);
  EXPECT_EQ(get_str(*engine_, "k"), "first");
}

TEST_P(EngineTest, UncommittedPutInvisible) {
  {
    auto put = engine_->put("ghost", 5, 0, false);
    put->sink().write("abcde", 5);
    // no commit
  }
  EXPECT_EQ(engine_->find("ghost"), nullptr);
}

TEST_P(EngineTest, Erase) {
  put_str(*engine_, "k", "x");
  EXPECT_TRUE(engine_->erase("k"));
  EXPECT_FALSE(engine_->erase("k"));
  EXPECT_EQ(engine_->find("k"), nullptr);
}

TEST_P(EngineTest, ForEachPrefix) {
  put_str(*engine_, "var#p:0_0:2_2", "a");
  put_str(*engine_, "var#p:2_0:2_2", "b");
  put_str(*engine_, "var#dims", "d");
  put_str(*engine_, "other", "o");
  std::set<std::string> seen;
  engine_->for_each_prefix("var#p:",
                           [&](const std::string& key, const EntryInfo&) {
                             seen.insert(key);
                           });
  EXPECT_EQ(seen,
            (std::set<std::string>{"var#p:0_0:2_2", "var#p:2_0:2_2"}));
}

TEST_P(EngineTest, PrefixWithDirectoryComponent) {
  put_str(*engine_, "grp/var#p:0:1", "a");
  put_str(*engine_, "grp/var2#p:0:1", "b");
  std::set<std::string> seen;
  engine_->for_each_prefix("grp/var#",
                           [&](const std::string& key, const EntryInfo&) {
                             seen.insert(key);
                           });
  EXPECT_EQ(seen, (std::set<std::string>{"grp/var#p:0:1"}));
}

TEST_P(EngineTest, ConcurrentSameKeyFirstWins) {
  // The "#dims" pattern: many threads storing the same key with
  // keep_existing must not corrupt anything and exactly one must win.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Engines are thread-compatible per rank; make one per thread like
      // the real per-rank PMEM objects do.
      auto st = open_engine(*node_, GetParam());
      const std::string v = "writer" + std::to_string(t);
      for (int i = 0; i < 10; ++i) {
        auto put = st->put("dims", v.size(), 0, /*keep_existing=*/true);
        put->sink().write(v.data(), v.size());
        put->commit(0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::string v = get_str(*engine_, "dims");
  EXPECT_EQ(v.substr(0, 6), "writer");
}

// --- batch / group-commit semantics ----------------------------------------

TEST_P(EngineTest, BatchStagedInvisibleUntilCommit) {
  auto batch = engine_->begin_batch();
  batch_put_str(*batch, "a", "alpha", 7);
  batch_put_str(*batch, "b", "bravo", 8);
  EXPECT_EQ(batch->staged(), 2u);
  // Staged entries are invisible to every reader, including the stager.
  EXPECT_EQ(engine_->find("a"), nullptr);
  EXPECT_EQ(engine_->find("b"), nullptr);
  batch->commit();
  EXPECT_EQ(batch->staged(), 0u);
  EXPECT_EQ(get_str(*engine_, "a"), "alpha");
  EXPECT_EQ(get_str(*engine_, "b"), "bravo");
  auto e = engine_->find("a");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->info().meta, 7u);
}

TEST_P(EngineTest, AbandonedBatchLeavesNoTrace) {
  {
    auto batch = engine_->begin_batch();
    batch_put_str(*batch, "gone", "xxxx");
    // destroyed without commit
  }
  EXPECT_EQ(engine_->find("gone"), nullptr);
}

TEST_P(EngineTest, BatchUncommittedHandleNotPublished) {
  auto batch = engine_->begin_batch();
  {
    auto put = batch->put("half", 4, 0, false);
    put->sink().write("half", 4);
    // handle destroyed without commit(crc): never staged
  }
  batch->commit();
  EXPECT_EQ(engine_->find("half"), nullptr);
}

TEST_P(EngineTest, BatchReplacesExistingEntry) {
  put_str(*engine_, "k", "old");
  auto batch = engine_->begin_batch();
  batch_put_str(*batch, "k", "new");
  EXPECT_EQ(get_str(*engine_, "k"), "old");  // until commit
  batch->commit();
  EXPECT_EQ(get_str(*engine_, "k"), "new");
}

TEST_P(EngineTest, WithinBatchDuplicateKeyReplaceLastWins) {
  auto batch = engine_->begin_batch();
  batch_put_str(*batch, "k", "first");
  batch_put_str(*batch, "k", "second");
  batch->commit();
  EXPECT_EQ(get_str(*engine_, "k"), "second");
}

TEST_P(EngineTest, WithinBatchKeepExistingFirstWins) {
  auto batch = engine_->begin_batch();
  batch_put_str(*batch, "k", "first", 0, /*keep_existing=*/true);
  batch_put_str(*batch, "k", "second", 0, /*keep_existing=*/true);
  batch->commit();
  EXPECT_EQ(get_str(*engine_, "k"), "first");
}

TEST_P(EngineTest, BatchKeepExistingLosesToPersistentEntry) {
  put_str(*engine_, "k", "existing");
  auto batch = engine_->begin_batch();
  batch_put_str(*batch, "k", "late", 0, /*keep_existing=*/true);
  batch->commit();
  EXPECT_EQ(get_str(*engine_, "k"), "existing");
}

TEST_P(EngineTest, LargeBatchRoundtrip) {
  constexpr int kN = 64;
  auto batch = engine_->begin_batch();
  for (int i = 0; i < kN; ++i) {
    batch_put_str(*batch, "key" + std::to_string(i),
                  "value-" + std::to_string(i), i);
  }
  batch->commit();
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(get_str(*engine_, "key" + std::to_string(i)),
              "value-" + std::to_string(i));
  }
  std::size_t n = 0;
  engine_->for_each_prefix(
      "key", [&](const std::string&, const EntryInfo&) { ++n; });
  EXPECT_EQ(n, static_cast<std::size_t>(kN));
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(Kind::kTable, Kind::kTree),
                         [](const auto& info) {
                           return kind_name(info.param);
                         });

// --- group-commit fence efficiency -----------------------------------------

// The point of batching on the flat layout: publishing N staged entries
// costs two fences total (data fence + visibility fence), not O(N).
TEST(EngineBatchFences, TableBatchCommitIsTwoFences) {
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  PmemNode node(o);
  node.device().enable_checker();
  auto eng = open_engine(node, Kind::kTable);

  auto batch = eng->begin_batch();
  for (int i = 0; i < 32; ++i) {
    const std::string v = "payload-" + std::to_string(i);
    auto put = batch->put("k" + std::to_string(i), v.size(), 0, false);
    put->sink().write(v.data(), v.size());
    put->commit(0);
  }
  const auto before = node.device().checker()->report();
  batch->commit();
  const auto after = node.device().checker()->report();
  EXPECT_LE(after.fence_ops - before.fence_ops, 2u);

  eng.reset();
  const auto rep = node.device().checker()->take_report();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- crash-at-every-persist sweep of the group-commit publish path ----------

struct CrashKv {
  std::string key;
  std::string value;
};

std::vector<CrashKv> crash_kv() {
  // Keys that collide into the same (tiny) bucket space plus spread ones,
  // so the sweep crosses both shared-chain and fresh-slot publish stores.
  std::vector<CrashKv> kv;
  for (int i = 0; i < 6; ++i) {
    kv.push_back({"ck" + std::to_string(i),
                  "payload-" + std::to_string(i) + "-0123456789"});
  }
  return kv;
}

std::unique_ptr<Engine> open_crash_engine(PmemNode& node) {
  pmemcpy::engine::PoolEngineOptions o;
  o.name = "crash";
  o.nbuckets = 4;       // force chained buckets
  o.auto_grow = false;  // keep the op sequence flat and deterministic
  return pmemcpy::engine::open_pool_engine(node, o, nullptr);
}

PmemNode::Options crash_node_opts() {
  PmemNode::Options o;
  o.capacity = 32ull << 20;
  o.pool_fraction = 0.5;
  o.crash_shadow = true;
  return o;
}

void run_crash_batch(Engine& eng, const std::vector<CrashKv>& kv) {
  auto batch = eng.begin_batch();
  for (const auto& e : kv) {
    auto put = batch->put(e.key, e.value.size(), 1, false);
    put->sink().write(e.value.data(), e.value.size());
    put->commit(0);
  }
  batch->commit();
}

void crash_sweep(bool torn) {
  const auto kv = crash_kv();

  // Counting run: learn the persist-op window of the batched workload.
  std::uint64_t setup = 0, total = 0;
  {
    PmemNode node(crash_node_opts());
    auto eng = open_crash_engine(node);
    setup = node.device().persist_ops();
    // The engine must build the table it was asked for: at 64 buckets none
    // of the batch's keys would share a chain.
    const auto pool = node.open_pool("crash");
    EXPECT_EQ(node.table_for(pool, pool->root())->nbuckets(), 4u);
    run_crash_batch(*eng, kv);
    total = node.device().persist_ops();
    for (const auto& e : kv) {
      auto found = eng->find(e.key);
      ASSERT_NE(found, nullptr);
    }
  }
  ASSERT_GT(total, setup);

  for (std::uint64_t k = setup + 1; k <= total; ++k) {
    SCOPED_TRACE("crash at persist op " + std::to_string(k) +
                 (torn ? " (torn)" : ""));
    PmemNode node(crash_node_opts());
    auto& dev = node.device();
    {
      auto eng = open_crash_engine(node);
      ASSERT_EQ(dev.persist_ops(), setup);
      FaultPlan fp;
      fp.crash_at_persist = k;
      fp.torn_writes = torn;
      dev.set_fault_plan(fp);
      try {
        run_crash_batch(*eng, kv);
        ADD_FAILURE() << "batch completed despite scheduled crash";
      } catch (const CrashError& e) {
        EXPECT_EQ(e.persist_op, k);
      }
      ASSERT_TRUE(dev.frozen());
      // The crashed engine (with its staged, unpublished handles) is
      // dropped like a dead process; unwind must not disturb the image.
    }
    dev.revive();
    node.remount();

    auto eng = open_crash_engine(node);
    // Atomicity invariant: each key is absent or completely intact.  A
    // crash mid-commit may publish any prefix of the batch, never a torn
    // entry.
    for (const auto& e : kv) {
      auto found = eng->find(e.key);
      if (!found) continue;
      ASSERT_EQ(found->info().size, e.value.size());
      std::string out(e.value.size(), '\0');
      found->read(0, out.data(), out.size());
      EXPECT_EQ(out, e.value);
    }
  }
}

TEST(EngineCrashMatrix, TableGroupCommitAtomicPerEntry) {
  crash_sweep(/*torn=*/false);
}

TEST(EngineCrashMatrix, TableGroupCommitAtomicPerEntryTorn) {
  crash_sweep(/*torn=*/true);
}

// --- PMEM-level batch scope -------------------------------------------------

TEST(PmemBatch, ScopeStagesAndCommits) {
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  PmemNode node(o);
  pmemcpy::Config cfg;
  cfg.node = &node;
  pmemcpy::PMEM p(cfg);
  p.mmap("batch.pool");

  auto b = p.batch();
  p.store("x", 11);
  p.store("y", std::string("twelve"));
  EXPECT_THROW((void)p.load<int>("x"), pmemcpy::KeyError);  // staged, invisible
  EXPECT_THROW(p.batch(), pmemcpy::StateError);       // no nesting
  b.commit();
  EXPECT_EQ(p.load<int>("x"), 11);
  EXPECT_EQ(p.load<std::string>("y"), "twelve");
  p.munmap();
}

TEST(PmemBatch, AbandonedScopeDiscards) {
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  PmemNode node(o);
  pmemcpy::Config cfg;
  cfg.node = &node;
  pmemcpy::PMEM p(cfg);
  p.mmap("batch.pool");
  {
    auto b = p.batch();
    p.store("x", 11);
  }
  EXPECT_FALSE(p.exists("x"));
  p.store("x", 22);  // a fresh unbatched store works afterwards
  EXPECT_EQ(p.load<int>("x"), 22);
  p.munmap();
}

}  // namespace
