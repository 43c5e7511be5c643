// The four workloads (perfbench/README.md explains why each exists).
//
//   checkpoint  Fig. 6/7 shape: 10 3-D double variables, one piece per rank,
//               symmetric restart read; payload a few times the host LLC.
//   analysis    8 pieces per variable, read back through three
//               non-symmetric patterns with the DRAM read cache armed.
//   small_kv    many small scalars/structs/vectors; overwrite, remove,
//               random gets (KeyError on removed keys is the right answer).
//   tree_vars   hierarchical layout: step<k>/field<j> ids on pmemfs.
//
// All use the paper default configuration (PMCPY-A: MAP_SYNC off, BP4,
// flat hashtable with auto-grow) except tree_vars (hierarchical layout) and
// analysis (read cache on).  Inputs are generated before any timer starts.
#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

namespace {

using pmemcpy::PMEM;

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr int kVars = 10;

/// Variable names, built once so no timed call formats a string.
const std::string& var_name(int v) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (int i = 0; i < kVars; ++i) n.push_back("var" + std::to_string(i));
    return n;
  }();
  return names[static_cast<std::size_t>(v)];
}

/// Node sized for @p payload bytes; @p pool_fraction splits the device
/// between the object-pool area (flat layout) and pmemfs (tree layout).
std::unique_ptr<PmemNode> sized_node(std::size_t payload, double pool_fraction) {
  PmemNode::Options o;
  o.capacity = payload + payload / 2 + 64 * kMiB;
  o.pool_fraction = pool_fraction;
  return std::make_unique<PmemNode>(o);
}

pmemcpy::Config config_for(PmemNode& node) {
  pmemcpy::Config cfg;  // PMCPY-A, BP4, flat hashtable, auto-grow
  cfg.node = &node;
  return cfg;
}

std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MiB",
                static_cast<double>(bytes) / static_cast<double>(kMiB));
  return buf;
}

/// Host last-level cache size, for the size report (0 when unknown).
std::size_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

std::span<const std::byte> as_bytes(const std::vector<double>& v) {
  return std::as_bytes(std::span<const double>(v));
}

DimsRecord dims_record(const Dimensions& global) {
  return {static_cast<std::uint8_t>(pmemcpy::serial::DType::kF64),
          std::vector<std::uint64_t>(global.begin(), global.end())};
}

/// Run @p op as one attempted operation: any exception or a false return
/// counts it failed.
template <typename Fn>
void attempt(OpTally& ops, Fn&& op) {
  ++ops.attempted;
  bool ok = false;
  try {
    ok = op();
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) ++ops.failed;
}

/// A load's verdict: @p bad mismatching elements, and — when the injected
/// fault is armed — the first element checked against a wrong expectation.
bool verdict(Expectation& expect, std::size_t bad, double got0, double want0) {
  if (expect.take()) return bad == 0 && got0 == want0 + 1.0;
  return bad == 0;
}

// --- checkpoint --------------------------------------------------------------

class Checkpoint final : public Workload {
 public:
  explicit Checkpoint(const Options& o) : seed_(o.seed) {
    // 2x2x1 rank grid; nz varies with the seed so no two seeds size the
    // payload identically.
    const std::size_t half_x = o.tiny ? 8 : 120;
    const std::size_t half_y = o.tiny ? 8 : 118;
    const std::size_t nz = (o.tiny ? 16 : 236) + o.seed % 3;
    global_ = {2 * half_x, 2 * half_y, nz};
    for (int r = 0; r < kRanks; ++r) {
      boxes_.push_back(Box({(static_cast<std::size_t>(r) / 2) * half_x,
                            (static_cast<std::size_t>(r) % 2) * half_y, 0},
                           {half_x, half_y, nz}));
    }
  }

  void generate() override {
    data_.assign(kRanks, std::vector<std::vector<double>>(kVars));
    bufs_.clear();
    for (int r = 0; r < kRanks; ++r) {
      for (int v = 0; v < kVars; ++v) {
        fill_box(data_[r][v], seed_, v, global_, boxes_[r]);
      }
      bufs_.emplace_back(boxes_[r].elements(), 0.0);
    }
  }

  std::unique_ptr<PmemNode> make_node() const override {
    return sized_node(payload_bytes(), 0.9);
  }

  PhaseResult write(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const int r = rc.comm.rank();
      const Box& box = boxes_[r];
      PMEM pmem{config_for(node)};
      pmem.mmap("/checkpoint.pmem", rc.comm);
      for (int v = 0; v < kVars; ++v) {
        attempt(rc.ops, [&] {
          pmem.alloc<double>(var_name(v), global_);
          return true;
        });
        attempt(rc.ops, [&] {
          timed(rc.ops.put_us, [&] {
            pmem.store(var_name(v), data_[r][v].data(), 3, box.offset.data(),
                       box.count.data());
          });
          rc.ops.user_bytes += box.elements() * sizeof(double);
          return true;
        });
      }
      pmem.munmap();
    });
  }

  PhaseResult read(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const int r = rc.comm.rank();
      const Box& box = boxes_[r];
      std::vector<double>& buf = bufs_[r];
      PMEM pmem{config_for(node)};
      pmem.mmap("/checkpoint.pmem", rc.comm);
      for (int v = 0; v < kVars; ++v) {
        attempt(rc.ops, [&] {
          timed(rc.ops.get_us, [&] {
            pmem.load(var_name(v), buf.data(), 3, box.offset.data(),
                      box.count.data());
          });
          rc.ops.user_bytes += buf.size() * sizeof(double);
          const std::size_t bad =
              count_mismatches(buf.data(), seed_, v, global_, box);
          return verdict(expect, bad, buf[0], data_[r][v][0]);
        });
      }
      pmem.munmap();
    });
  }

  Profile profile() const override {
    Profile p;
    for (int r = 0; r < kRanks; ++r) {
      for (int v = 0; v < kVars; ++v) {
        p.items.push_back({pmemcpy::detail::piece_key(var_name(v), boxes_[r]),
                           as_bytes(data_[r][v]), global_, boxes_[r]});
      }
    }
    for (int v = 0; v < kVars; ++v) p.sized.emplace_back(dims_record(global_));
    return p;
  }

  std::string describe() const override {
    return "checkpoint: payload " + mib(payload_bytes()) + " (" +
           std::to_string(kVars) + " vars x " + std::to_string(kRanks) +
           " pieces), host LLC " + mib(llc_bytes());
  }

 private:
  [[nodiscard]] std::size_t payload_bytes() const {
    return global_[0] * global_[1] * global_[2] * sizeof(double) * kVars;
  }

  std::uint64_t seed_;
  Dimensions global_;
  std::vector<Box> boxes_;
  std::vector<std::vector<std::vector<double>>> data_;  // [rank][var]
  std::vector<std::vector<double>> bufs_;  ///< read buffer per rank
};

// --- analysis ----------------------------------------------------------------

class Analysis final : public Workload {
 public:
  explicit Analysis(const Options& o) : seed_(o.seed) {
    // Long along x (the slowest dimension) so the seed varies the volume by
    // well under 1% without changing row lengths.
    const std::size_t n = o.tiny ? 16 : 64;
    global_ = {8 * n + 2 * (o.seed % 3), n, n};
    const Dimensions half = {global_[0] / 2, global_[1] / 2, global_[2] / 2};
    // Block b = (bx, by, bz) = (b>>2, (b>>1)&1, b&1); rank r writes r, r+4.
    for (std::size_t b = 0; b < 8; ++b) {
      blocks_.push_back(Box({(b >> 2) * half[0], ((b >> 1) & 1) * half[1],
                             (b & 1) * half[2]},
                            half));
    }
    for (std::size_t r = 0; r < kRanks; ++r) {
      std::vector<Box> pats;
      // Restart from 8 pieces: an x-half by y-half column, full z — two
      // pieces, mostly written by other ranks.
      pats.push_back(Box({(r >> 1) * half[0], (r & 1) * half[1], 0},
                         {half[0], half[1], global_[2]}));
      // One x-plane: crosses the four pieces of its x-half.
      pats.push_back(Box({(2 * r + 1) * global_[0] / 8, 0, 0},
                         {1, global_[1], global_[2]}));
      // The centred 1/8 subvolume: touches all eight pieces.
      pats.push_back(Box({global_[0] / 4, global_[1] / 4, global_[2] / 4},
                         half));
      patterns_.push_back(std::move(pats));
    }
    // Three piece blobs per rank: less than a pattern touches across the
    // variables, so hits, misses and evictions all occur.
    cache_bytes_ = 3 * (blocks_[0].elements() * sizeof(double) + 256);
  }

  void generate() override {
    data_.assign(kVars, std::vector<std::vector<double>>(8));
    for (int v = 0; v < kVars; ++v) {
      for (std::size_t b = 0; b < 8; ++b) {
        fill_box(data_[v][b], seed_, v, global_, blocks_[b]);
      }
    }
    bufs_.clear();
    for (const auto& pats : patterns_) {
      std::size_t n = 0;
      for (const Box& want : pats) n = std::max(n, want.elements());
      bufs_.emplace_back(n, 0.0);
    }
  }

  std::unique_ptr<PmemNode> make_node() const override {
    return sized_node(payload_bytes(), 0.9);
  }

  PhaseResult write(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      PMEM pmem{config_for(node)};
      pmem.mmap("/analysis.pmem", rc.comm);
      for (int v = 0; v < kVars; ++v) {
        attempt(rc.ops, [&] {
          pmem.alloc<double>(var_name(v), global_);
          return true;
        });
        for (const std::size_t b : {r, r + 4}) {
          attempt(rc.ops, [&] {
              timed(rc.ops.put_us, [&] {
              pmem.store(var_name(v), data_[v][b].data(), 3,
                         blocks_[b].offset.data(), blocks_[b].count.data());
            });
            rc.ops.user_bytes += blocks_[b].elements() * sizeof(double);
            return true;
          });
        }
      }
      pmem.munmap();
    });
  }

  PhaseResult read(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      pmemcpy::Config cfg = config_for(node);
      cfg.read_cache_bytes = cache_bytes_;
      PMEM pmem{cfg};
      pmem.mmap("/analysis.pmem", rc.comm);
      std::vector<double>& buf = bufs_[r];
      for (int v = 0; v < kVars; ++v) {
        for (const Box& want : patterns_[r]) {
          attempt(rc.ops, [&] {
            timed(rc.ops.get_us, [&] {
              pmem.load(var_name(v), buf.data(), 3, want.offset.data(),
                        want.count.data());
            });
            rc.ops.user_bytes += buf.size() * sizeof(double);
            const std::size_t bad =
                count_mismatches(buf.data(), seed_, v, global_, want);
            const std::size_t first =
                (want.offset[0] * global_[1] + want.offset[1]) * global_[2] +
                want.offset[2];
            return verdict(expect, bad, buf[0], element(seed_, v, first));
          });
        }
      }
      pmem.munmap();
    });
  }

  Profile profile() const override {
    Profile p;
    for (int v = 0; v < kVars; ++v) {
      for (std::size_t b = 0; b < 8; ++b) {
        p.items.push_back(
            {pmemcpy::detail::piece_key(var_name(v), blocks_[b]),
             as_bytes(data_[v][b]), global_, blocks_[b]});
      }
      p.sized.emplace_back(dims_record(global_));
    }
    for (const auto& pats : patterns_) {
      for (const Box& want : pats) {
        for (const Box& piece : blocks_) p.slabs.emplace_back(want, piece);
      }
    }
    return p;
  }

  std::string describe() const override {
    return "analysis: payload " + mib(payload_bytes()) + " (" +
           std::to_string(kVars) + " vars x 8 pieces), read cache " +
           mib(cache_bytes_) + " per rank, host LLC " + mib(llc_bytes());
  }

 private:
  [[nodiscard]] std::size_t payload_bytes() const {
    return global_[0] * global_[1] * global_[2] * sizeof(double) * kVars;
  }

  std::uint64_t seed_;
  Dimensions global_;
  std::vector<Box> blocks_;
  std::vector<std::vector<Box>> patterns_;  // [rank][pattern]
  std::size_t cache_bytes_ = 0;
  std::vector<std::vector<std::vector<double>>> data_;  // [var][block]
  std::vector<std::vector<double>> bufs_;  ///< read buffer per rank
};

// --- small_kv ----------------------------------------------------------------

/// Value @p version of key @p i of @p rank: a skewed size mix from 8 B to
/// 4 KiB.  The shape (type and length) is a fixed property of the key so
/// every seed stores the same byte volume; the seed picks the contents.
KvValue kv_value(std::uint64_t seed, std::size_t rank, std::size_t i,
                 int version) {
  const std::uint64_t id =
      mix64((rank << 48) ^ (i << 2) ^ static_cast<std::size_t>(version));
  Rng shape(id);
  Rng g(seed ^ id);
  const double u = shape.unit();
  if (u < 0.20) return static_cast<std::int64_t>(g.next());
  if (u < 0.35) return static_cast<double>(g.next() >> 11);
  if (u < 0.60) {
    Particle p;
    p.x = g.unit();
    p.y = g.unit();
    p.z = g.unit();
    p.vx = static_cast<float>(g.unit());
    p.vy = static_cast<float>(g.unit());
    p.vz = static_cast<float>(g.unit());
    p.id = static_cast<std::int32_t>(g.below(1u << 30));
    return p;
  }
  if (u < 0.85) {
    std::vector<float> v(4 + shape.below(61));
    for (auto& e : v) e = static_cast<float>(g.below(1u << 24));
    return v;
  }
  std::vector<double> v(64 + shape.below(449));
  for (auto& e : v) e = static_cast<double>(g.next() >> 11);
  return v;
}

/// The same value made wrong (for the injected-fault check).
KvValue perturbed(KvValue v) {
  std::visit(
      [](auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Particle>) {
          x.id += 1;
        } else if constexpr (std::is_arithmetic_v<T>) {
          x += 1;
        } else {
          x.push_back(0);
        }
      },
      v);
  return v;
}

std::uint64_t kv_user_bytes(const KvValue& v) {
  return std::visit(
      [](const auto& x) -> std::uint64_t {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Particle> || std::is_arithmetic_v<T>) {
          return sizeof(T);
        } else {
          return x.size() * sizeof(typename T::value_type);
        }
      },
      v);
}

class SmallKv final : public Workload {
 public:
  static constexpr std::size_t kRemovesPerRank = 4;
  /// Keys per rank: 4 x 36000 entries grow the 8192-bucket table twice.
  static constexpr std::size_t kKeys = 36000;
  /// A traced run grows a 1024-bucket table once, from 4 x 3000 keys.  A
  /// rehash runs inside one store() and opens allocator spans for every
  /// entry it moves, and concurrent ranks can each redo it (see README), so
  /// a growth past 32768 entries overflows the trace registry's 2^18 spans
  /// before any round boundary can drain it.
  static constexpr std::size_t kTracedKeys = 3000;
  static constexpr std::size_t kTracedBuckets = 1024;

  enum class State : std::uint8_t { kOriginal, kOverwritten, kRemoved };

  explicit SmallKv(const Options& o)
      : seed_(o.seed),
        keys_(o.tiny ? 300 : o.trace ? kTracedKeys : kKeys),
        round_(o.tiny ? 100 : 2000),
        nbuckets_(o.trace && !o.tiny ? kTracedBuckets
                                     : pmemcpy::Config{}.nbuckets) {}

  void generate() override {
    values_.assign(kRanks, {});
    states_.assign(kRanks, std::vector<State>(keys_, State::kOriginal));
    overwrites_.assign(kRanks, {});
    removes_.assign(kRanks, {});
    gets_.assign(kRanks, {});
    blobs_.assign(kRanks, {});
    names_.assign(kRanks, {});
    for (std::size_t r = 0; r < kRanks; ++r) {
      auto& vals = values_[r];
      for (std::size_t i = 0; i < keys_; ++i) {
        vals.push_back({kv_value(seed_, r, i, 0), KvValue{}});
        char buf[32];
        std::snprintf(buf, sizeof(buf), "r%zu.k%06zu", r, i);
        names_[r].emplace_back(buf);
      }
      // A seeded permutation picks the removed keys among the first
      // round's, then 20% of the rest to overwrite.
      std::vector<std::size_t> perm(keys_);
      for (std::size_t i = 0; i < keys_; ++i) perm[i] = i;
      Rng g(seed_ ^ mix64(0xA11CEull + r));
      for (std::size_t i = keys_ - 1; i > 0; --i) {
        std::swap(perm[i], perm[g.below(i + 1)]);
      }
      for (std::size_t k = 0; removes_[r].size() < kRemovesPerRank; ++k) {
        if (perm[k] >= round_) continue;
        removes_[r].push_back(perm[k]);
        states_[r][perm[k]] = State::kRemoved;
      }
      for (std::size_t k = 0; overwrites_[r].size() < keys_ / 5; ++k) {
        const std::size_t i = perm[k];
        if (states_[r][i] == State::kRemoved) continue;
        overwrites_[r].push_back(i);
        vals[i].second = kv_value(seed_, r, i, 1);
        states_[r][i] = State::kOverwritten;
      }
      for (std::size_t i = 0; i < keys_; ++i) {
        pmemcpy::serial::BufferSink sink;
        pmemcpy::serial::BinaryWriter w(sink);
        std::visit([&](const auto& x) { w(x); }, vals[i].first);
        blobs_[r].push_back(sink.take());
      }
    }
    // Random gets over every rank's keys; one in twenty aims at a removed
    // key, whose KeyError is the right answer.
    for (std::size_t r = 0; r < kRanks; ++r) {
      Rng g(seed_ ^ mix64(0x6E75ull + r));
      for (std::size_t k = 0; k < keys_; ++k) {
        const std::size_t owner = g.below(kRanks);
        const std::size_t i = g.below(20) == 0
                                  ? removes_[owner][g.below(kRemovesPerRank)]
                                  : g.below(keys_);
        gets_[r].emplace_back(owner, i);
      }
    }
  }

  std::unique_ptr<PmemNode> make_node() const override {
    PmemNode::Options o;
    o.capacity = (keys_ > 1000 ? 384 : 64) * kMiB;
    o.pool_fraction = 0.9;
    return std::make_unique<PmemNode>(o);
  }

  PhaseResult write(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      PMEM pmem{kv_config(node)};
      pmem.mmap("/small_kv.pmem", rc.comm);
      const auto put = [&](std::size_t i, const KvValue& v) {
        attempt(rc.ops, [&] {
          std::visit(
              [&](const auto& x) {
                timed(rc.ops.put_us, [&] { pmem.store(key(r, i), x); });
              },
              v);
          rc.ops.user_bytes += kv_user_bytes(v);
          return true;
        });
      };
      for (std::size_t i = 0; i < keys_; ++i) {
        put(i, values_[r][i].first);
        if ((i + 1) % round_ != 0) continue;
        rc.round_sync();
        if (i + 1 != round_) continue;
        // Removes follow the first round: PMEM::remove scans the table for
        // the id's pieces and attributes, so its cost grows with the table
        // and a handful at full size would dominate the phase.
        for (const std::size_t k : removes_[r]) {
          attempt(rc.ops, [&] {
            pmem.remove(key(r, k));
            return true;
          });
        }
        rc.round_sync();
      }
      rc.round_sync();
      for (std::size_t k = 0; k < overwrites_[r].size(); ++k) {
        const std::size_t i = overwrites_[r][k];
        put(i, values_[r][i].second);
        if ((k + 1) % round_ == 0) rc.round_sync();
      }
      pmem.munmap();
    });
  }

  PhaseResult read(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      PMEM pmem{kv_config(node)};
      pmem.mmap("/small_kv.pmem", rc.comm);
      for (std::size_t k = 0; k < gets_[r].size(); ++k) {
        const auto [owner, i] = gets_[r][k];
        const State st = states_[owner][i];
        const KvValue& orig = values_[owner][i].first;
        const bool wrong = expect.take();
        attempt(rc.ops, [&] {
          KvValue want = st == State::kOverwritten ? values_[owner][i].second
                                                   : orig;
          if (wrong) want = perturbed(std::move(want));
          bool ok = false;
          std::visit(
              [&](const auto& w) {
                using T = std::decay_t<decltype(w)>;
                T got{};
                try {
                  timed(rc.ops.get_us, [&] { pmem.load(key(owner, i), got); });
                  ok = st != State::kRemoved && !wrong && got == w;
                  rc.ops.user_bytes += kv_user_bytes(KvValue{got});
                } catch (const pmemcpy::KeyError&) {
                  ok = st == State::kRemoved && !wrong;
                }
              },
              want);
          return ok;
        });
        if ((k + 1) % round_ == 0) rc.round_sync();
      }
      pmem.munmap();
    });
  }

  Profile profile() const override {
    Profile p;
    for (std::size_t r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < keys_; ++i) {
        p.items.push_back({key(r, i), blobs_[r][i], {}, {}});
        p.sized.emplace_back(values_[r][i].first);
      }
    }
    return p;
  }

  std::string describe() const override {
    std::uint64_t bytes = 0;
    for (const auto& rank : blobs_) {
      for (const auto& b : rank) bytes += b.size();
    }
    return "small_kv: " + std::to_string(kRanks * keys_) + " keys (" +
           mib(bytes) + " serialized), 20% overwritten, " +
           std::to_string(kRanks * kRemovesPerRank) + " removed, " +
           std::to_string(kRanks * keys_) + " random gets";
  }

 private:
  [[nodiscard]] pmemcpy::Config kv_config(PmemNode& node) const {
    pmemcpy::Config cfg = config_for(node);
    cfg.nbuckets = nbuckets_;
    return cfg;
  }
  [[nodiscard]] const std::string& key(std::size_t r, std::size_t i) const {
    return names_[r][i];
  }

  std::uint64_t seed_;
  std::size_t keys_;   ///< keys per rank
  std::size_t round_;  ///< calls per bulk-synchronous round
  std::size_t nbuckets_;  ///< initial hashtable buckets
  /// [rank][key] -> (original value, overwrite value)
  std::vector<std::vector<std::pair<KvValue, KvValue>>> values_;
  std::vector<std::vector<State>> states_;
  std::vector<std::vector<std::size_t>> overwrites_, removes_;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> gets_;
  std::vector<std::vector<std::vector<std::byte>>> blobs_;  // serialized v0
  std::vector<std::vector<std::string>> names_;  // [rank][key]
};

// --- tree_vars -----------------------------------------------------------------

class TreeVars final : public Workload {
 public:
  explicit TreeVars(const Options& o) : seed_(o.seed) {
    const int steps = o.tiny ? 2 : 16;
    const int fields = o.tiny ? 3 : 10;
    for (int s = 0; s < steps; ++s) {
      for (int f = 0; f < fields; ++f) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "step%02d/field%d", s, f);
        ids_.emplace_back(buf);
      }
    }
    // 64 KiB pieces, long along z so the seed varies the size by < 1%.
    const std::size_t half = 4;
    const std::size_t nz = (o.tiny ? 4 : 512) + o.seed % 3;
    global_ = {2 * half, 2 * half, nz};
    for (std::size_t r = 0; r < kRanks; ++r) {
      boxes_.push_back(
          Box({(r / 2) * half, (r % 2) * half, 0}, {half, half, nz}));
    }
  }

  void generate() override {
    data_.assign(kRanks, std::vector<std::vector<double>>(ids_.size()));
    bufs_.clear();
    for (std::size_t r = 0; r < kRanks; ++r) {
      for (std::size_t v = 0; v < ids_.size(); ++v) {
        fill_box(data_[r][v], seed_, static_cast<int>(v), global_, boxes_[r]);
      }
      bufs_.emplace_back(boxes_[r].elements(), 0.0);
    }
  }

  std::unique_ptr<PmemNode> make_node() const override {
    return sized_node(2 * payload_bytes(), 0.05);
  }

  PhaseResult write(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      const Box& box = boxes_[r];
      PMEM pmem{tree_config(node)};
      pmem.mmap("/tree_vars", rc.comm);
      for (std::size_t v = 0; v < ids_.size(); ++v) {
        attempt(rc.ops, [&] {
          pmem.alloc<double>(ids_[v], global_);
          return true;
        });
        attempt(rc.ops, [&] {
          timed(rc.ops.put_us, [&] {
            pmem.store(ids_[v], data_[r][v].data(), 3, box.offset.data(),
                       box.count.data());
          });
          rc.ops.user_bytes += box.elements() * sizeof(double);
          return true;
        });
      }
      pmem.munmap();
    });
  }

  PhaseResult read(PmemNode& node, TraceTally* trace) override {
    return run_phase(node, trace, [&](RankCtx& rc) {
      const auto r = static_cast<std::size_t>(rc.comm.rank());
      const Box& box = boxes_[r];
      std::vector<double>& buf = bufs_[r];
      PMEM pmem{tree_config(node)};
      pmem.mmap("/tree_vars", rc.comm);
      for (std::size_t v = 0; v < ids_.size(); ++v) {
        attempt(rc.ops, [&] {
          timed(rc.ops.get_us, [&] {
            pmem.load(ids_[v], buf.data(), 3, box.offset.data(),
                      box.count.data());
          });
          rc.ops.user_bytes += buf.size() * sizeof(double);
          const std::size_t bad = count_mismatches(
              buf.data(), seed_, static_cast<int>(v), global_, box);
          return verdict(expect, bad, buf[0], data_[r][v][0]);
        });
      }
      attempt(rc.ops, [&] {
        std::vector<std::string> got = pmem.ids();
        std::sort(got.begin(), got.end());
        std::vector<std::string> want = ids_;
        if (expect.take()) want.emplace_back("missing");
        std::sort(want.begin(), want.end());
        return got == want;
      });
      for (const auto& id : ids_) {
        attempt(rc.ops, [&] { return pmem.load_dims(id) == global_; });
      }
      pmem.munmap();
    });
  }

  Profile profile() const override {
    Profile p;
    p.flat = false;
    for (std::size_t r = 0; r < kRanks; ++r) {
      for (std::size_t v = 0; v < ids_.size(); ++v) {
        p.items.push_back({pmemcpy::detail::piece_key(ids_[v], boxes_[r]),
                           as_bytes(data_[r][v]), global_, boxes_[r]});
      }
    }
    for (std::size_t v = 0; v < ids_.size(); ++v) {
      p.sized.emplace_back(dims_record(global_));
    }
    return p;
  }

  std::string describe() const override {
    return "tree_vars: " + std::to_string(ids_.size()) + " ids x " +
           std::to_string(kRanks) + " pieces of " +
           mib(boxes_[0].elements() * sizeof(double)) + ", payload " +
           mib(payload_bytes());
  }

 private:
  static pmemcpy::Config tree_config(PmemNode& node) {
    pmemcpy::Config cfg = config_for(node);
    cfg.layout = pmemcpy::Layout::kHierarchical;
    return cfg;
  }
  [[nodiscard]] std::size_t payload_bytes() const {
    return global_[0] * global_[1] * global_[2] * sizeof(double) * ids_.size();
  }

  std::uint64_t seed_;
  std::vector<std::string> ids_;
  Dimensions global_;
  std::vector<Box> boxes_;
  std::vector<std::vector<std::vector<double>>> data_;  // [rank][id]
  std::vector<std::vector<double>> bufs_;  ///< read buffer per rank
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "checkpoint") return std::make_unique<Checkpoint>(opts);
  if (opts.workload == "analysis") return std::make_unique<Analysis>(opts);
  if (opts.workload == "small_kv") return std::make_unique<SmallKv>(opts);
  if (opts.workload == "tree_vars") return std::make_unique<TreeVars>(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
