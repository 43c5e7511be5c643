// Layer replays: the host-time column of the per-layer metrics.
//
// Each replay calls one layer's public functions directly — no PMEM on top —
// with the workload's own buffer sizes and key mix (its Profile), once on 1
// thread and once on kRanks threads.  Threads are par::Runtime ranks so the
// layers charge their own simulated contexts, as under the real workload.
// A metric without a thread suffix is the kRanks-thread figure.  Layers the
// workload's data path never enters report 0 (hyperslab assembly on the
// symmetric workloads, pmemfs on the flat layout, the pool on the tree).
#include "bench.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace perfbench {

namespace {

namespace serial = pmemcpy::serial;
using pmemcpy::par::Comm;
using pmemcpy::par::Runtime;

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Per-thread outcome of one replay pass.
struct Tally {
  double seconds = 0.0;  ///< thread time spent in the timed calls
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
};

struct Outcome {
  double wall_s = 0.0;
  double sim_s = 0.0;  ///< simulated seconds summed over the ranks
  Tally total;

  [[nodiscard]] double gbps() const {
    return wall_s > 0.0 ? static_cast<double>(total.bytes) / wall_s * 1e-9
                        : 0.0;
  }
  [[nodiscard]] double sim_ns_per_op() const {
    return total.ops > 0 ? sim_s * 1e9 / static_cast<double>(total.ops) : 0.0;
  }
  [[nodiscard]] double ns_per_op() const {
    return total.ops > 0 ? total.seconds * 1e9 / static_cast<double>(total.ops)
                         : 0.0;
  }
};

/// Run @p body on @p threads ranks; each returns its Tally.
Outcome on_threads(int threads, const std::function<Tally(Comm&)>& body) {
  std::vector<Tally> per(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  const auto res = Runtime::run(threads, [&](Comm& comm) {
    per[static_cast<std::size_t>(comm.rank())] = body(comm);
  });
  Outcome o;
  o.wall_s = seconds_since(t0);
  for (const double t : res.rank_times) o.sim_s += t;
  for (const auto& t : per) {
    o.total.seconds += t.seconds;
    o.total.ops += t.ops;
    o.total.bytes += t.bytes;
  }
  return o;
}

/// Visit this rank's share (i = rank, rank + size, ...) of @p count items,
/// at least one and then until @p deadline.  @p fn returns bytes handled.
template <typename Fn>
Tally sweep(const Comm& comm, std::size_t count, Clock::time_point deadline,
            Fn&& fn) {
  Tally t;
  const auto t0 = Clock::now();
  for (auto i = static_cast<std::size_t>(comm.rank()); i < count;
       i += static_cast<std::size_t>(comm.size())) {
    if (t.ops > 0 && (t.ops & 7) == 0 && Clock::now() >= deadline) break;
    t.bytes += fn(i);
    ++t.ops;
  }
  t.seconds = seconds_since(t0);
  return t;
}

Clock::time_point deadline_in(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::size_t total_bytes(const Profile& p) {
  std::size_t n = 0;
  for (const auto& it : p.items) n += it.bytes.size();
  return n;
}

std::size_t max_bytes(const Profile& p) {
  std::size_t n = 0;
  for (const auto& it : p.items) n = std::max(n, it.bytes.size());
  return n;
}

/// intersect + copy_box_region over the (wanted, piece) pairs.
Outcome replay_hyperslab(const Profile& p, int threads, double budget) {
  std::size_t want_max = 0;
  std::size_t piece_max = 0;
  for (const auto& [want, piece] : p.slabs) {
    want_max = std::max(want_max, want.elements());
    piece_max = std::max(piece_max, piece.elements());
  }
  return on_threads(threads, [&](Comm& comm) {
    std::vector<std::byte> dst(want_max * sizeof(double));
    std::vector<std::byte> src(piece_max * sizeof(double));
    const auto deadline = deadline_in(budget);
    return sweep(comm, p.slabs.size(), deadline, [&](std::size_t i) {
      const auto& [want, piece] = p.slabs[i];
      const Box region = pmemcpy::intersect(want, piece);
      if (region.empty()) return std::size_t{0};
      pmemcpy::copy_box_region(dst.data(), want, src.data(), piece, region,
                               sizeof(double));
      return region.elements() * sizeof(double);
    });
  });
}

Outcome replay_crc(const Profile& p, int threads, double budget) {
  std::atomic<std::uint32_t> sink{0};
  return on_threads(threads, [&](Comm& comm) {
    const auto deadline = deadline_in(budget);
    std::uint32_t acc = 0;
    Tally t = sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const auto b = p.items[i].bytes;
      acc ^= pmemcpy::crc32c(b.data(), b.size());
      return b.size();
    });
    sink.fetch_xor(acc);
    return t;
  });
}

/// Blob header + payload through a ChecksumSink into a DRAM span: the
/// serializer and CRC work of a put without the engine under it.
Outcome replay_encode(const Profile& p, int threads, double budget) {
  const std::size_t cap = max_bytes(p) + 4096;
  return on_threads(threads, [&](Comm& comm) {
    std::vector<std::byte> out(cap);
    const auto deadline = deadline_in(budget);
    return sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const ReplayItem& it = p.items[i];
      serial::SpanSink span(out);
      serial::ChecksumSink cs(span);
      const auto dtype = it.global.empty() ? serial::DType::kStruct
                                           : serial::DType::kF64;
      pmemcpy::detail::write_blob_header(cs, serial::SerializerId::kBp4, dtype,
                                         it.bytes.size(), it.global, it.box);
      cs.write(it.bytes.data(), it.bytes.size());
      if (cs.crc() == 0x5A5A5A5Au) out[0] = std::byte{1};  // keep the CRC live
      return cs.tell();
    });
  });
}

Outcome replay_size(const Profile& p, int threads, double budget) {
  return on_threads(threads, [&](Comm& comm) {
    const auto deadline = deadline_in(budget);
    return sweep(comm, p.sized.size(), deadline, [&](std::size_t i) {
      return std::visit(
          [](const auto& v) -> std::size_t {
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>, KvValue>) {
              return std::visit(
                  [](const auto& x) { return serial::binary_serialized_size(x); },
                  v);
            } else {
              return serial::binary_serialized_size(v);
            }
          },
          p.sized[i]);
    });
  });
}

/// Engine put (reserve + payload + commit) and find, on the workload's own
/// engine: the flat table engine or the pmemfs tree engine.
std::pair<Outcome, Outcome> replay_engine(const Profile& p, int threads,
                                          double budget) {
  PmemNode::Options o;
  o.capacity = std::min(total_bytes(p), 256 * kMiB) * 2 + 96 * kMiB;
  o.pool_fraction = p.flat ? 0.9 : 0.05;
  PmemNode node(o);
  std::vector<std::size_t> done(static_cast<std::size_t>(threads), 0);
  // Bytes each rank may store, so a large profile fits the node.
  const std::size_t quota = std::min(total_bytes(p), 256 * kMiB) /
                            static_cast<std::size_t>(threads);
  Outcome puts;
  Outcome finds;
  std::vector<Tally> put_t(done.size());
  std::vector<Tally> find_t(done.size());
  const auto t0 = Clock::now();
  Runtime::run(threads, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::unique_ptr<pmemcpy::engine::Engine> eng;
    if (p.flat) {
      pmemcpy::engine::PoolEngineOptions eo;
      eo.name = "replay.pmem";
      eng = pmemcpy::engine::open_pool_engine(node, eo, &comm);
    } else {
      eng = pmemcpy::engine::open_tree_engine(node, "/replay", false, &comm);
    }
    std::size_t stored = 0;
    const auto deadline = deadline_in(budget);
    std::vector<std::size_t> mine;
    put_t[r] = sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const ReplayItem& it = p.items[i];
      if (stored + it.bytes.size() > quota && !mine.empty()) {
        return std::size_t{0};
      }
      auto h = eng->put(it.key, it.bytes.size(), 0, false);
      h->sink().write(it.bytes.data(), it.bytes.size());
      h->commit(0);
      stored += it.bytes.size();
      mine.push_back(i);
      return it.bytes.size();
    });
    comm.barrier();
    Tally ft;
    const auto f0 = Clock::now();
    for (const std::size_t i : mine) {
      auto e = eng->find(p.items[i].key);
      if (!e || e->info().size != p.items[i].bytes.size()) {
        throw std::runtime_error("engine replay: lost " + p.items[i].key);
      }
      ++ft.ops;
    }
    ft.seconds = seconds_since(f0);
    find_t[r] = ft;
    done[r] = mine.size();
  });
  const double wall = seconds_since(t0);
  for (std::size_t r = 0; r < done.size(); ++r) {
    puts.total.seconds += put_t[r].seconds;
    puts.total.ops += done[r];
    puts.total.bytes += put_t[r].bytes;
    finds.total.seconds += find_t[r].seconds;
    finds.total.ops += find_t[r].ops;
  }
  puts.wall_s = finds.wall_s = wall;
  return {puts, finds};
}

/// Pool alloc + free over the workload's size mix, in batches so a thread
/// holds at most ~16 MiB at once.
Outcome replay_pool(const Profile& p, int threads, double budget) {
  const std::size_t big = max_bytes(p) + 256;
  const std::size_t cap =
      static_cast<std::size_t>(threads) * (16 * kMiB + 2 * big) + 64 * kMiB;
  pmemcpy::pmem::Device dev(cap);
  pmemcpy::obj::Pool pool = pmemcpy::obj::Pool::create(dev, 0, cap);
  pool.set_magazine_size(8);  // the engine defaults (DESIGN.md §14)
  pool.set_alloc_stripes(8);
  pool.set_expected_contenders(threads);
  return on_threads(threads, [&](Comm& comm) {
    std::vector<std::uint64_t> held;
    std::size_t held_bytes = 0;
    const auto deadline = deadline_in(budget);
    const auto release = [&] {
      for (const auto off : held) pool.free(off);
      held.clear();
      held_bytes = 0;
    };
    Tally t = sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const std::size_t n = p.items[i].bytes.size() + 64;  // blob + header
      if (held_bytes + n > 16 * kMiB || held.size() >= 256) release();
      held.push_back(pool.alloc(n));
      held_bytes += n;
      return n;
    });
    const auto f0 = Clock::now();
    release();
    t.seconds += seconds_since(f0);
    return t;
  });
}

/// pmemfs publish (create + DAX store + persist + rename, as the tree
/// engine publishes an entry) and lookup (exists + open + map).
std::pair<Outcome, Outcome> replay_fs(const Profile& p, int threads,
                                      double budget) {
  const std::size_t cap = std::min(total_bytes(p), 256 * kMiB) * 2 + 64 * kMiB;
  pmemcpy::pmem::Device dev(cap);
  auto fs = pmemcpy::fs::FileSystem::format(dev, 0, cap);
  const auto path_of = [](const ReplayItem& it) { return "/r/" + it.key; };
  for (const auto& it : p.items) {
    const std::string path = path_of(it);
    fs.mkdirs(path.substr(0, path.rfind('/')));
  }
  const std::size_t quota = std::min(total_bytes(p), 256 * kMiB) /
                            static_cast<std::size_t>(threads);
  std::vector<std::vector<std::size_t>> mine(static_cast<std::size_t>(threads));
  Outcome pub = on_threads(threads, [&](Comm& comm) {
    auto& list = mine[static_cast<std::size_t>(comm.rank())];
    std::size_t stored = 0;
    const auto deadline = deadline_in(budget);
    return sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const ReplayItem& it = p.items[i];
      if (stored + it.bytes.size() > quota && !list.empty()) {
        return std::size_t{0};
      }
      const std::string path = path_of(it);
      const std::string tmp = path + ".tmp";
      auto m = fs.create_mapped(tmp, it.bytes.size());
      m.store(0, it.bytes.data(), it.bytes.size());
      m.persist(0, it.bytes.size());
      fs.rename(tmp, path);
      stored += it.bytes.size();
      list.push_back(i);
      return it.bytes.size();
    });
  });
  pub.total.ops = 0;  // count published entries, not skipped ones
  for (const auto& list : mine) pub.total.ops += list.size();
  const Outcome look = on_threads(threads, [&](Comm& comm) {
    Tally t;
    const auto t0 = Clock::now();
    for (const std::size_t i : mine[static_cast<std::size_t>(comm.rank())]) {
      const std::string path = path_of(p.items[i]);
      if (!fs.exists(path)) throw std::runtime_error("fs replay: lost " + path);
      auto m = fs.map(fs.open(path, pmemcpy::fs::OpenMode::kRead));
      if (m.size() != p.items[i].bytes.size()) {
        throw std::runtime_error("fs replay: size of " + path);
      }
      ++t.ops;
    }
    t.seconds = seconds_since(t0);
    return t;
  });
  return {pub, look};
}

/// Device write + persist of the workload's payloads, each thread into its
/// own region.
Outcome replay_dev_write(const Profile& p, int threads, double budget) {
  const std::size_t region = std::max<std::size_t>(max_bytes(p), 64 * kMiB);
  pmemcpy::pmem::Device dev(region * static_cast<std::size_t>(threads));
  return on_threads(threads, [&](Comm& comm) {
    const std::size_t base = static_cast<std::size_t>(comm.rank()) * region;
    std::size_t off = 0;
    const auto deadline = deadline_in(budget);
    return sweep(comm, p.items.size(), deadline, [&](std::size_t i) {
      const auto b = p.items[i].bytes;
      if (off + b.size() > region) off = 0;
      dev.write(base + off, b.data(), b.size());
      dev.persist(base + off, b.size());
      off += (b.size() + 63) & ~std::size_t{63};
      return b.size();
    });
  });
}

/// One-cacheline store + persist at seeded line offsets: the per-entry
/// metadata publish pattern, which takes the device's host lock each time.
Outcome replay_small_store(int threads, double budget) {
  constexpr std::size_t kRegion = 4 * kMiB;
  constexpr std::size_t kOps = 200000;
  pmemcpy::pmem::Device dev(kRegion * static_cast<std::size_t>(threads));
  return on_threads(threads, [&](Comm& comm) {
    const std::size_t base = static_cast<std::size_t>(comm.rank()) * kRegion;
    std::array<std::byte, 64> line{};
    Rng g(static_cast<std::uint64_t>(comm.rank()));
    const auto deadline = deadline_in(budget);
    return sweep(comm, kOps * static_cast<std::size_t>(comm.size()), deadline,
                 [&](std::size_t) {
                   const std::size_t off = base + g.below(kRegion / 64) * 64;
                   dev.write(off, line.data(), line.size());
                   dev.persist(off, line.size());
                   return line.size();
                 });
  });
}

}  // namespace

void run_replays(const Profile& p, double budget_s, Metrics& m) {
  // Nine replays at two thread counts share the budget equally.
  const double each = std::max(0.05, budget_s / 18.0);
  for (const int threads : {1, kRanks}) {
    const std::string sfx = threads == 1 ? "_1t" : "";
    const std::string tsfx = threads == 1 ? "_1t" : "_4t";

    m.set("core.hyperslab_host_gbps" + sfx,
          p.slabs.empty() ? 0.0 : replay_hyperslab(p, threads, each).gbps(),
          "GB/s");
    m.set("serial.crc32c_host_gbps" + sfx, replay_crc(p, threads, each).gbps(),
          "GB/s");
    m.set("serial.encode_host_gbps" + sfx,
          replay_encode(p, threads, each).gbps(), "GB/s");
    m.set("serial.size_host_ns" + sfx,
          replay_size(p, threads, each).ns_per_op(), "ns");
    const auto [put, find] = replay_engine(p, threads, each);
    m.set("engine.put_host_ns" + sfx, put.ns_per_op(), "ns");
    m.set("engine.find_host_ns" + sfx, find.ns_per_op(), "ns");
    m.set("pool.alloc_host_ns" + tsfx,
          p.flat ? replay_pool(p, threads, each).ns_per_op() : 0.0, "ns");
    Outcome publish;
    Outcome lookup;
    if (!p.flat) std::tie(publish, lookup) = replay_fs(p, threads, each);
    m.set("fs.publish_host_ns" + sfx, publish.ns_per_op(), "ns");
    m.set("fs.lookup_host_ns" + sfx, lookup.ns_per_op(), "ns");
    if (threads == 1) {
      // pmemfs has no span on the tree engine's path (it never fsyncs), so
      // its simulated cost per entry comes from the single-thread replay.
      m.set("fs.publish_sim_ns", publish.sim_ns_per_op(), "ns");
      m.set("fs.lookup_sim_ns", lookup.sim_ns_per_op(), "ns");
    }
    m.set("dev.write_host_gbps" + sfx,
          replay_dev_write(p, threads, each).gbps(), "GB/s");
    m.set("dev.small_store_host_ns" + tsfx,
          replay_small_store(threads, each).ns_per_op(), "ns");
  }
}

}  // namespace perfbench
