// Property-based fuzzer for the storage-engine contract (engine/engine.hpp).
//
// A seeded deterministic RNG drives long random sequences of puts, gets,
// erases, group commits, keep-existing races and prefix scans against every
// engine (flat table and hierarchical tree), with an
// in-memory reference model replayed alongside.  After every mutating op the
// engine must agree with the model byte-for-byte — info().size, the
// CRC-stamped meta word and the zero-copy stored_span() view all checked
// on every verification pass.
//
// A second suite interleaves crash points: the device is scheduled to lose
// power a few persist ops ahead, ops run until the crash lands, the node is
// revived and remounted, and a fresh engine over the recovered image must
// show every settled key intact while the in-flight op is allowed exactly
// its old or its new value — never a torn one.  The model then adopts
// whatever the recovered image shows and fuzzing continues.
//
// The crash suite has one more cell, TableRehash, whose op stream also
// rehashes the table to random bucket counts, so crashes land inside
// rebuilds of either bucket-array generation.
//
// The tier-1 run uses a fixed seed corpus at 1000+ iterations per engine;
// PMEMCPY_FUZZ_ITERS=<n> scales the sequences up for soak runs without a
// rebuild.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/pmem/device.hpp>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace {

using pmemcpy::PmemNode;
using pmemcpy::engine::Engine;
using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::FaultPlan;

enum class Kind { kTable, kTree };

/// One fuzzed configuration: engine shape × allocator magazine size.  The
/// magazine size rides through PoolEngineOptions (-1 = the engine default
/// of 8), so the same op sequences run against the lock-free magazine path,
/// the classic fully-locked path, and an oversized refill batch — the
/// equivalence and crash invariants must hold identically in every cell.
struct Config {
  Kind kind;
  int magazine_size;  ///< -1 = engine default, 0 = classic locked path
  const char* name;
  /// Crash fuzz only: about one op in 8 rehashes the table, through the
  /// node's shared instance, to 1 to 64 buckets.
  bool rehash = false;
};

std::unique_ptr<Engine> open_engine(PmemNode& node, const Config& cfg) {
  if (cfg.kind == Kind::kTree) {
    return pmemcpy::engine::open_tree_engine(node, "/fuzz", false, nullptr);
  }
  pmemcpy::engine::PoolEngineOptions o;
  o.name = "fuzz";
  o.nbuckets = 64;  // small bucket space: chained-slot paths get exercised
  o.magazine_size = cfg.magazine_size;
  return pmemcpy::engine::open_pool_engine(node, o, nullptr);
}

constexpr Config kConfigs[] = {
    {Kind::kTable, -1, "Table"},
    {Kind::kTree, -1, "Tree"},
    // Allocator hot-path matrix: classic (no magazines) vs an oversized
    // refill batch.
    {Kind::kTable, 0, "TableClassic"},
    {Kind::kTable, 16, "TableMag16"},
};

/// Deterministic splitmix64 stream; the only randomness source here, so a
/// (seed, iteration-count) pair replays an exact op sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

std::size_t fuzz_iters(std::size_t fallback) {
  if (const char* env = std::getenv("PMEMCPY_FUZZ_ITERS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

struct ModelValue {
  std::string bytes;
  std::uint64_t meta = 0;  ///< full stamped word (crc in the high half)
};

using Model = std::map<std::string, ModelValue>;

/// Mixed-size deterministic payload: mostly small values, a heavy tail up
/// to a few KiB so tree entries span several extents and table blobs cross
/// allocation size classes.
std::string random_value(Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  std::size_t len = 0;
  if (pick < 10) {
    len = rng.below(2);  // empty / single byte
  } else if (pick < 80) {
    len = 2 + rng.below(120);
  } else {
    len = 256 + rng.below(4096);
  }
  std::string v(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>('a' + (rng.next() % 26));
  }
  return v;
}

/// Key universe: a bounded pool so puts/erases/overwrites collide, split
/// across two prefixes so prefix iteration has something to distinguish.
std::string random_key(Rng& rng) {
  if (rng.below(4) == 0) {
    return "p/" + std::to_string(rng.below(12));
  }
  return "k" + std::to_string(rng.below(24));
}

std::uint64_t stamped_meta(std::uint64_t meta_low, const std::string& value) {
  const std::uint32_t crc = pmemcpy::crc32c(value.data(), value.size());
  return (meta_low & 0xffffffffull) |
         (static_cast<std::uint64_t>(crc) << 32);
}

void engine_put(Engine& eng, const std::string& key, const std::string& value,
                std::uint64_t meta_low, bool keep_existing) {
  auto put = eng.put(key, value.size(), meta_low, keep_existing);
  put->sink().write(value.data(), value.size());
  put->commit(pmemcpy::crc32c(value.data(), value.size()));
}

/// Full engine/model agreement: every model key reads back exactly through
/// stored_span(), every nonexistent probe misses, and prefix enumeration
/// matches key-for-key.
void verify_model(Engine& eng, const Model& model, const char* when) {
  SCOPED_TRACE(when);
  for (const auto& [key, mv] : model) {
    auto e = eng.find(key);
    ASSERT_NE(e, nullptr) << "model key missing: " << key;
    ASSERT_EQ(e->info().size, mv.bytes.size()) << key;
    EXPECT_EQ(e->info().meta, mv.meta) << key;
    const auto span = e->stored_span();
    ASSERT_EQ(span.size(), mv.bytes.size()) << key;
    EXPECT_EQ(std::memcmp(span.data(), mv.bytes.data(), span.size()), 0)
        << key;
  }
  for (const char* prefix : {"", "p/", "k"}) {
    std::set<std::string> got;
    eng.for_each_prefix(prefix,
                        [&](const std::string& key) { got.insert(key); });
    std::set<std::string> want;
    for (const auto& [key, mv] : model) {
      if (key.rfind(prefix, 0) == 0) want.insert(key);
    }
    // A crash can leave a shadowed duplicate of a key in its chain, which
    // enumeration visits twice; the set collapses it, so enumeration must
    // still cover exactly the model's key set.
    EXPECT_EQ(got, want) << "prefix '" << prefix << "'";
  }
}

// ---------------------------------------------------------------------------
// Suite 1: op-sequence equivalence with the persistency checker attached
// ---------------------------------------------------------------------------

class EngineFuzz : public ::testing::TestWithParam<Config> {};

void fuzz_sequence(Engine& eng, Model& model, Rng& rng, std::size_t iters) {
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t op = rng.below(100);
    if (op < 38) {
      // Plain put (overwrite allowed).
      const std::string key = random_key(rng);
      const std::string value = random_value(rng);
      const std::uint64_t meta = rng.below(1u << 30);
      engine_put(eng, key, value, meta, false);
      model[key] = {value, stamped_meta(meta, value)};
    } else if (op < 48) {
      // keep_existing: first writer wins — a no-op when the key is live.
      const std::string key = random_key(rng);
      const std::string value = random_value(rng);
      const std::uint64_t meta = rng.below(1u << 30);
      engine_put(eng, key, value, meta, true);
      if (model.find(key) == model.end()) {
        model[key] = {value, stamped_meta(meta, value)};
      }
    } else if (op < 62) {
      // Point lookup: hit must match the model exactly, miss must be null.
      const std::string key = random_key(rng);
      auto e = eng.find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(e, nullptr) << key;
      } else {
        ASSERT_NE(e, nullptr) << key;
        ASSERT_EQ(e->info().size, it->second.bytes.size());
        EXPECT_EQ(e->info().meta, it->second.meta);
        const auto span = e->stored_span();
        EXPECT_EQ(std::memcmp(span.data(), it->second.bytes.data(),
                              span.size()),
                  0)
            << key;
      }
    } else if (op < 74) {
      const std::string key = random_key(rng);
      EXPECT_EQ(eng.erase(key), model.erase(key) > 0) << key;
    } else if (op < 88) {
      // Group commit of 2-5 distinct keys; staged entries must stay
      // invisible until Batch::commit publishes them all.
      const std::size_t n = 2 + rng.below(4);
      std::map<std::string, ModelValue> staged;
      auto batch = eng.begin_batch();
      while (staged.size() < n) {
        const std::string key = random_key(rng);
        if (staged.count(key) != 0) continue;
        const std::string value = random_value(rng);
        const std::uint64_t meta = rng.below(1u << 30);
        auto put = batch->put(key, value.size(), meta, false);
        put->sink().write(value.data(), value.size());
        put->commit(pmemcpy::crc32c(value.data(), value.size()));
        staged[key] = {value, stamped_meta(meta, value)};
      }
      EXPECT_EQ(batch->staged(), n);
      for (const auto& [key, mv] : staged) {
        auto e = eng.find(key);
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_EQ(e, nullptr) << "staged key visible before commit: " << key;
        } else {
          ASSERT_NE(e, nullptr);
          EXPECT_EQ(e->info().meta, it->second.meta)
              << "staged overwrite visible before commit: " << key;
        }
      }
      batch->commit();
      for (auto& [key, mv] : staged) model[key] = std::move(mv);
    } else if (op < 94) {
      // Abandoned work must leave no trace: an uncommitted put handle and a
      // batch dropped without commit.
      const std::string key = "dropped";
      if (rng.below(2) == 0) {
        auto put = eng.put(key, 8, 7, false);
        put->sink().write("discard!", 8);
        put.reset();  // no commit
      } else {
        auto batch = eng.begin_batch();
        auto put = batch->put(key, 8, 7, false);
        put->sink().write("discard!", 8);
        put->commit(0);
        batch.reset();  // no commit
      }
      EXPECT_EQ(eng.find(key), nullptr);
    } else {
      verify_model(eng, model, "interim sweep");
    }
  }
}

TEST_P(EngineFuzz, ModelEquivalence) {
  const std::size_t iters = fuzz_iters(600);
  // Two fixed seeds per engine: 1200+ iterations per engine by default.
  for (const std::uint64_t seed : {0x5eed0001ull, 0xfee1f00dull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PmemNode::Options o;
    o.capacity = 64ull << 20;
    PmemNode node(o);
    node.device().enable_checker();
    {
      auto eng = open_engine(node, GetParam());
      Model model;
      Rng rng(seed);
      fuzz_sequence(*eng, model, rng, iters);
      verify_model(*eng, model, "final sweep");

      // Durability of the final image: a second engine over the same node
      // (fresh DRAM state, same persistent state) must agree too.
      auto eng2 = open_engine(node, GetParam());
      verify_model(*eng2, model, "reopened engine");
    }
    // Zero persistency violations across the whole sequence.
    const auto rep = node.device().checker()->take_report();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineFuzz, ::testing::ValuesIn(kConfigs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------------
// Suite 2: the same fuzz with crash+recover points interleaved
// ---------------------------------------------------------------------------

/// One key's allowed post-crash states for the op that was in flight.
struct Pending {
  std::optional<ModelValue> before;  ///< nullopt = key was absent
  std::optional<ModelValue> after;   ///< nullopt = op was an erase
};

class EngineCrashFuzz : public ::testing::TestWithParam<Config> {};

TEST_P(EngineCrashFuzz, RandomOpsSurviveRandomCrashes) {
  const std::size_t iters = fuzz_iters(500);
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  o.pool_fraction = 0.5;
  o.crash_shadow = true;
  PmemNode node(o);
  auto& dev = node.device();
  auto eng = open_engine(node, GetParam());
  Model model;
  Rng rng(0xc4a54c4a54ull);
  std::size_t crashes = 0;
  std::size_t rehashes = 0;
  std::size_t rehash_crashes = 0;

  for (std::size_t i = 0; i < iters; ++i) {
    // Arm a crash a few persist ops ahead, roughly every dozen iterations.
    const bool armed = rng.below(12) == 0;
    if (armed) {
      FaultPlan fp;
      fp.crash_at_persist = dev.persist_ops() + 1 + rng.below(30);
      fp.torn_writes = rng.below(2) == 0;
      dev.set_fault_plan(fp);
    }

    // Mutating op with its allowed before/after states recorded, so a crash
    // inside it can settle either way.  A rehash changes no key.
    std::map<std::string, Pending> pending;
    const bool rehash = GetParam().rehash && rng.below(8) == 0;
    const std::uint64_t op = rehash ? 0 : rng.below(100);
    try {
      if (rehash) {
        const auto pool = node.open_pool("fuzz");
        ++rehashes;
        node.table_for(pool, pool->root())->rehash(1 + rng.below(64));
      } else if (op < 55) {
        const std::string key = random_key(rng);
        const std::string value = random_value(rng);
        const std::uint64_t meta = rng.below(1u << 30);
        const auto it = model.find(key);
        pending[key] = {it == model.end()
                            ? std::nullopt
                            : std::optional<ModelValue>(it->second),
                        ModelValue{value, stamped_meta(meta, value)}};
        engine_put(*eng, key, value, meta, false);
        model[key] = *pending[key].after;
      } else if (op < 75) {
        const std::string key = random_key(rng);
        const auto it = model.find(key);
        const bool had = it != model.end();
        pending[key] = {had ? std::optional<ModelValue>(it->second)
                            : std::nullopt,
                        std::nullopt};
        const bool erased = eng->erase(key);  // may throw CrashError
        EXPECT_EQ(erased, had);
        model.erase(key);
      } else {
        const std::size_t n = 2 + rng.below(3);
        auto batch = eng->begin_batch();
        std::map<std::string, ModelValue> staged;
        while (staged.size() < n) {
          const std::string key = random_key(rng);
          if (staged.count(key) != 0) continue;
          const std::string value = random_value(rng);
          const std::uint64_t meta = rng.below(1u << 30);
          auto put = batch->put(key, value.size(), meta, false);
          put->sink().write(value.data(), value.size());
          put->commit(pmemcpy::crc32c(value.data(), value.size()));
          staged[key] = {value, stamped_meta(meta, value)};
          const auto it = model.find(key);
          pending[key] = {it == model.end()
                              ? std::nullopt
                              : std::optional<ModelValue>(it->second),
                          ModelValue{staged[key]}};
        }
        batch->commit();
        for (auto& [key, mv] : staged) model[key] = std::move(mv);
      }
      if (armed) dev.set_fault_plan(FaultPlan{});  // op outran the crash
    } catch (const CrashError&) {
      ++crashes;
      if (rehash) ++rehash_crashes;
      ASSERT_TRUE(dev.frozen());
      // Dead process: drop the engine with its in-flight handles, power the
      // device back on, remount, and recover with a fresh engine.
      eng.reset();
      dev.revive();
      dev.set_fault_plan(FaultPlan{});
      node.remount();
      eng = open_engine(node, GetParam());

      // The in-flight op's keys settle to exactly their old or new state —
      // anything else (torn bytes, wrong meta) is a persistency bug.  The
      // model adopts what the image shows.
      for (const auto& [key, p] : pending) {
        auto e = eng->find(key);
        const auto matches = [&](const std::optional<ModelValue>& want) {
          if (!want.has_value()) return e == nullptr;
          if (e == nullptr || e->info().size != want->bytes.size() ||
              e->info().meta != want->meta) {
            return false;
          }
          const auto span = e->stored_span();
          return std::memcmp(span.data(), want->bytes.data(), span.size()) ==
                 0;
        };
        const bool old_state = matches(p.before);
        const bool new_state = matches(p.after);
        const auto describe = [&](const std::optional<ModelValue>& mv) {
          if (!mv.has_value()) return std::string("<absent>");
          return "size=" + std::to_string(mv->bytes.size()) +
                 " meta=" + std::to_string(mv->meta);
        };
        std::string got = "<absent>";
        if (e != nullptr) {
          got = "size=" + std::to_string(e->info().size) +
                " meta=" + std::to_string(e->info().meta);
        }
        ASSERT_TRUE(old_state || new_state)
            << "key '" << key << "' torn after crash " << crashes
            << "\n  before: " << describe(p.before)
            << "\n  after:  " << describe(p.after) << "\n  got:    " << got;
        if (new_state && p.after.has_value()) {
          model[key] = *p.after;
        } else if (new_state) {
          model.erase(key);
        } else if (p.before.has_value()) {
          model[key] = *p.before;
        } else {
          model.erase(key);
        }
      }
      verify_model(*eng, model, "post-crash sweep");
    }
  }
  dev.set_fault_plan(FaultPlan{});
  verify_model(*eng, model, "final sweep");
  // The fixed seed is chosen to actually exercise the crash path.
  EXPECT_GE(crashes, 3u) << "seed produced too few crashes to test anything";
  if (GetParam().rehash) {
    std::cout << "[ crash fuzz ] " << iters << " ops, " << rehashes
              << " rehashes, " << crashes << " crashes, " << rehash_crashes
              << " inside a rehash\n";
    EXPECT_GE(rehash_crashes, 1u) << "no crash landed inside a rehash";
  }
}

constexpr Config kCrashConfigs[] = {
    kConfigs[0], kConfigs[1], kConfigs[2], kConfigs[3],
    {Kind::kTable, -1, "TableRehash", true},
};

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineCrashFuzz,
                         ::testing::ValuesIn(kCrashConfigs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
