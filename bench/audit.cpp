// Deterministic persist-primitive audit (DESIGN.md §7, §12, §13, §14).
//
// Runs a fixed workload per phase with tracing armed and records the trace
// counters the phase declares:
//   * flush phases — the CLWB/SFENCE traffic each storage layer generates
//     and the persistency checker's lints, on a device with the checker
//     attached;
//   * copy phases — where serialized bytes travel on each library's put
//     path (a DRAM staging buffer or the reserved PMEM span) and get path
//     (a DRAM bounce, an in-place decode, or a read-cache hit);
//   * alloc phases — the pool allocator's serialized work per engine put
//     at 24 ranks, as the classic → striped → magazine ablation ladder.
// Unlike the micro_* benches, whose google-benchmark loops adapt iteration
// counts to wall-clock, every declared count is exact and reproducible, so
// ci.sh diffs the --json output against bench/audit_baseline.json and any
// changed count fails CI until the baseline is re-recorded.  A row lists
// only its declared counters: the rest of the trace (bytes read at 24
// ranks, for one) depends on host thread scheduling.
//
// Each phase also declares invariants that hold whatever the baseline
// says: pMEMCPY's direct paths stage zero DRAM bytes while the staging
// ablation and the miniio baselines must be seen staging (a zero there
// means the instrumentation rotted), the cached read is served from the
// cache, a 100-put group commit costs at most 2 fences, and magazines cut
// lock acquisitions and queue charges at least 4x against the classic
// allocator.  A broken invariant names the phase and exits 1.
//
// Usage: audit [--json PATH]
//   --json  write the per-phase rows as JSON (one object per line)
#include <miniio/miniio.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/par/comm.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

namespace trace = pmemcpy::trace;
using pmemcpy::Box;
using pmemcpy::Config;
using pmemcpy::Dimensions;
using pmemcpy::Layout;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;
using pmemcpy::fs::FileSystem;
using pmemcpy::fs::OpenMode;
using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::pmem::Device;
using trace::Counter;

/// The trace counters a phase records, in the order its row lists them.
using Columns = std::vector<Counter>;

const Columns kFlushColumns = {
    Counter::kStoreOps,         Counter::kFlushOps,
    Counter::kLinesFlushed,     Counter::kFenceOps,
    Counter::kCleanFlushes,     Counter::kDuplicateFlushes,
    Counter::kEmptyFences,      Counter::kCorrectnessViolations};

const Columns kCopyColumns = {
    Counter::kCopyStagedBytes,     Counter::kCopyDirectBytes,
    Counter::kCopyStagedPuts,      Counter::kCopyReadStagedBytes,
    Counter::kCopyReadDirectBytes, Counter::kCopyReadBounceBytes,
    Counter::kReadCacheHits,       Counter::kReadCacheHitBytes};

const Columns kAllocColumns = {
    Counter::kEnginePuts,          Counter::kAllocLaneAcquisitions,
    Counter::kAllocQueueCharges,   Counter::kAllocMetadataPersists,
    Counter::kAllocMagazineHits,   Counter::kAllocMagazineFreeHits,
    Counter::kAllocMagazineRefills};

struct Row {
  std::string phase;
  const Columns* columns;
  std::vector<std::uint64_t> values;  ///< one per column
  double queue_sec;  ///< summed simulated pool queueing delay (stdout only)

  /// The recorded value of @p c; 0 when the phase does not declare it.
  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    for (std::size_t i = 0; i < columns->size(); ++i) {
      if ((*columns)[i] == c) return values[i];
    }
    return 0;
  }
};

std::vector<Row> rows;

const Row& row_named(const char* phase) {
  for (const Row& r : rows) {
    if (r.phase == phase) return r;
  }
  std::fprintf(stderr, "audit: no phase %s recorded yet\n", phase);
  std::exit(2);
}

/// The one recording primitive: copies the declared trace counters into a
/// named row and resets the registry for the next phase.
const Row& take_row(const char* phase, const Columns& columns) {
  Row row{phase, &columns, {},
          trace::histogram(trace::Hist::kShardQueueDelay).sum};
  for (Counter c : columns) row.values.push_back(trace::counter(c));
  trace::reset();
  rows.push_back(std::move(row));
  return rows.back();
}

/// A bound on one counter of a phase's row.  kQuarterOf and kSameAs compare
/// against the same counter of an earlier phase.
struct Invariant {
  enum Kind { kSeen, kAtMost, kQuarterOf, kSameAs };
  Kind kind;
  Counter counter;
  std::uint64_t limit = 0;     ///< kAtMost
  const char* other = nullptr;  ///< kQuarterOf, kSameAs
};

Invariant seen(Counter c) { return {Invariant::kSeen, c}; }
Invariant at_most(Counter c, std::uint64_t n) {
  return {Invariant::kAtMost, c, n};
}
Invariant zero(Counter c) { return at_most(c, 0); }
Invariant quarter_of(const char* phase, Counter c) {
  return {Invariant::kQuarterOf, c, 0, phase};
}
Invariant same_as(const char* phase, Counter c) {
  return {Invariant::kSameAs, c, 0, phase};
}

/// Checks @p inv on @p row; prints the broken bound and returns false.
bool holds(const Row& row, const Invariant& inv) {
  const std::uint64_t v = row[inv.counter];
  const auto other = [&] { return row_named(inv.other)[inv.counter]; };
  char want[96];
  bool ok = false;
  switch (inv.kind) {
    case Invariant::kSeen:
      ok = v > 0;
      std::snprintf(want, sizeof(want), "> 0");
      break;
    case Invariant::kAtMost:
      ok = v <= inv.limit;
      std::snprintf(want, sizeof(want), "<= %llu",
                    static_cast<unsigned long long>(inv.limit));
      break;
    case Invariant::kQuarterOf:
      ok = v * 4 <= other();
      std::snprintf(want, sizeof(want), "<= 1/4 of %s's %llu", inv.other,
                    static_cast<unsigned long long>(other()));
      break;
    case Invariant::kSameAs:
      ok = v == other();
      std::snprintf(want, sizeof(want), "%s's %llu", inv.other,
                    static_cast<unsigned long long>(other()));
      break;
  }
  if (!ok) {
    std::fprintf(stderr, "audit: FAIL %s: %s = %llu, want %s\n",
                 row.phase.c_str(), trace::counter_name(inv.counter),
                 static_cast<unsigned long long>(v), want);
  }
  return ok;
}

bool all_hold = true;

/// Runs one phase: its workload, then its row, then its invariants.
void phase(const char* name, const Columns& columns,
           const std::vector<Invariant>& invariants,
           const std::function<void()>& workload) {
  workload();
  const Row& row = take_row(name, columns);
  for (const Invariant& inv : invariants) {
    if (!holds(row, inv)) all_hold = false;
  }
}

// --- flush phases -----------------------------------------------------------

/// The flush phases' device: the persistency checker is attached before the
/// first store, so the rows carry its lint tallies.
struct CheckedDevice : Device {
  explicit CheckedDevice(std::size_t bytes) : Device(bytes) {
    enable_checker();
  }
};

/// The group-commit pair's shared state: ht-batch-stage reserves into the
/// table, ht-batch-commit publishes what was staged.
struct GroupCommit {
  CheckedDevice dev{512ull << 20};
  Pool pool = Pool::create(dev, 0, 512ull << 20);
  HashTable table = HashTable::create(pool, 1024);
  std::vector<HashTable::Inserter> staged;
};

void run_flush_phases() {
  // Hashtable puts with auto-grow on, sized to grow the table twice from 1k
  // buckets (at 4097 and 16385 entries): reserve/publish staging, plus per
  // growth the rebuild's node-copy flushes under one drain and the one-store
  // header swap.
  phase("ht-put", kFlushColumns, {}, [] {
    CheckedDevice dev(512ull << 20);
    Pool pool = Pool::create(dev, 0, 512ull << 20);
    HashTable table = HashTable::create(pool, 1024);
    table.set_auto_grow(true);
    const std::string value(256, 'v');
    for (int i = 0; i < 20000; ++i) {
      table.put("key" + std::to_string(i), value.data(), value.size());
    }
  });

  // Group commit: stage 100 reserves, then publish them all under one
  // publish_group().  Two phases so the commit's fence cost is visible on
  // its own: the whole batch must cost at most 2 fences (durability drain +
  // visibility drain), not O(N).
  std::unique_ptr<GroupCommit> batch;
  phase("ht-batch-stage", kFlushColumns, {}, [&batch] {
    batch = std::make_unique<GroupCommit>();
    batch->table.set_auto_grow(false);
    trace::reset();  // the row covers staging, not pool and table creation
    const std::string value(256, 'v');
    for (int i = 0; i < 100; ++i) {
      auto ins = batch->table.reserve("bk" + std::to_string(i), value.size());
      auto span = ins.value();
      std::memcpy(span.data(), value.data(), value.size());
      ins.close_checker_scope();
      batch->staged.push_back(std::move(ins));
    }
  });
  phase("ht-batch-commit", kFlushColumns, {at_most(Counter::kFenceOps, 2)},
        [&batch] {
          std::vector<HashTable::GroupPut> puts;
          for (auto& ins : batch->staged) puts.push_back({&ins, false, false});
          batch->table.publish_group(puts);
          batch.reset();
        });

  // Filesystem format (bitmap + inode-table persist).
  phase("fs-format", kFlushColumns, {}, [] {
    CheckedDevice dev(64ull << 20);
    (void)FileSystem::format(dev, 0, 64ull << 20);
  });

  // POSIX path: sequential pwrite with periodic fsync — fsync must flush
  // exactly the dirtied lines and pay one fence.
  phase("fs-fsync", kFlushColumns, {}, [] {
    CheckedDevice dev(64ull << 20);
    FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
    auto f = fs.open("/data", OpenMode::kTruncate);
    std::vector<std::byte> buf(1024, std::byte{3});
    for (int i = 0; i < 1000; ++i) {
      fs.pwrite(f, buf.data(), buf.size(), std::uint64_t(i) * buf.size());
      if (i % 10 == 9) fs.fsync(f);
    }
  });

  // DAX path: store through a mapping, then Mapping::persist (one CLWB pass
  // over every extent run, one fence).
  phase("map-persist", kFlushColumns, {}, [] {
    CheckedDevice dev(64ull << 20);
    FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
    auto m = fs.create_mapped("/m", 1 << 20);
    std::vector<std::byte> buf(4096, std::byte{4});
    for (int i = 0; i < 256; ++i) {
      m.store(std::uint64_t(i) * buf.size(), buf.data(), buf.size());
      m.persist(std::uint64_t(i) * buf.size(), buf.size());
    }
  });
}

// --- copy phases ------------------------------------------------------------

PmemNode::Options node_opts() {
  PmemNode::Options o;
  o.capacity = 96ull << 20;
  return o;
}

/// The common put mix: scalar puts, a group commit, and an array piece.
void pmemcpy_puts(PMEM& pmem) {
  for (int i = 0; i < 16; ++i) {
    pmem.store("k" + std::to_string(i), std::int64_t{i});
  }
  {
    auto b = pmem.batch();
    for (int i = 0; i < 16; ++i) {
      pmem.store("b" + std::to_string(i), std::int64_t{100 + i});
    }
    b.commit();
  }
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 0.25;
  const std::size_t dims = v.size(), off = 0;
  pmem.alloc<double>("arr", 1, &dims);
  pmem.store("arr", v.data(), 1, &off, &dims);
}

/// The matching get mix: every scalar back, then the whole array piece.
void pmemcpy_gets(PMEM& pmem) {
  for (int i = 0; i < 16; ++i) {
    if (pmem.load<std::int64_t>("k" + std::to_string(i)) != i) {
      std::fprintf(stderr, "audit: scalar readback mismatch\n");
      std::exit(2);
    }
  }
  std::vector<double> v(4096);
  const std::size_t dims = v.size(), off = 0;
  pmem.load("arr", v.data(), 1, &off, &dims);
}

/// Runs the put mix.  With @p read_passes > 0 the counters are then reset
/// and the get mix runs that many times, so the row covers only the reads;
/// with a read cache configured, the second pass is served from DRAM hits.
void run_pmemcpy(Layout layout, bool force_staging, int read_passes = 0,
                 std::size_t cache_bytes = 0) {
  PmemNode node(node_opts());
  Config cfg;
  cfg.node = &node;
  cfg.layout = layout;
  cfg.serializer = pmemcpy::serial::SerializerId::kBinary;
  cfg.force_dram_staging = force_staging;
  cfg.read_cache_bytes = cache_bytes;
  PMEM pmem{cfg};
  pmem.mmap("/audit");
  pmemcpy_puts(pmem);
  if (read_passes > 0) trace::reset();
  for (int i = 0; i < read_passes; ++i) pmemcpy_gets(pmem);
  pmem.munmap();
}

/// Writes one 32768-double variable through a miniio baseline; with
/// @p read_back the counters are then reset and the row covers reading it.
void run_miniio(miniio::Library lib, bool read_back) {
  PmemNode node(node_opts());
  pmemcpy::par::Runtime::run(1, [&](pmemcpy::par::Comm& comm) {
    const Dimensions global{32768};
    const Box local(Dimensions{0}, global);
    std::vector<double> data(32768);
    {
      auto w = miniio::open_writer(lib, node, "/baseline.dat", comm);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
      w->write("var", data.data(), local, global);
      w->close();
    }
    if (!read_back) return;
    trace::reset();
    auto r = miniio::open_reader(lib, node, "/baseline.dat", comm);
    r->read("var", data.data(), local);
    r->close();
  });
}

void run_copy_phases() {
  // pMEMCPY direct puts: every serialized byte must land in the reserved
  // PMEM span; a single DRAM-staged byte fails the audit.
  const std::vector<Invariant> direct_put = {
      zero(Counter::kCopyStagedBytes), zero(Counter::kCopyStagedPuts),
      seen(Counter::kCopyDirectBytes)};
  // The staging ablation (Config::force_dram_staging) and the miniio
  // baselines must be *seen* staging — that asymmetry is the paper's
  // comparison, and a zero here means the instrumentation is broken.
  const std::vector<Invariant> staged_put = {seen(Counter::kCopyStagedBytes)};
  phase("pmemcpy-put", kCopyColumns, direct_put,
        [] { run_pmemcpy(Layout::kHashTable, false); });
  phase("pmemcpy-tree", kCopyColumns, direct_put,
        [] { run_pmemcpy(Layout::kHierarchical, false); });
  phase("pmemcpy-staged", kCopyColumns, staged_put,
        [] { run_pmemcpy(Layout::kHashTable, true); });
  phase("adios", kCopyColumns, staged_put,
        [] { run_miniio(miniio::Library::kAdios, false); });
  phase("netcdf4", kCopyColumns, staged_put,
        [] { run_miniio(miniio::Library::kNetcdf4, false); });
  phase("pnetcdf", kCopyColumns, staged_put,
        [] { run_miniio(miniio::Library::kPnetcdf, false); });

  // Read direction (DESIGN.md §13): pMEMCPY decodes the stored blob in
  // place — zero read-staged bytes on both layouts.  The cached phase must
  // show genuine DRAM hits on top; the staged ablation and the baselines
  // must be seen bouncing through DRAM.
  const std::vector<Invariant> direct_get = {
      zero(Counter::kCopyReadStagedBytes),
      seen(Counter::kCopyReadDirectBytes)};
  const std::vector<Invariant> staged_get = {
      seen(Counter::kCopyReadStagedBytes)};
  phase("pmemcpy-read", kCopyColumns, direct_get,
        [] { run_pmemcpy(Layout::kHashTable, false, 1); });
  phase("pmemcpy-read-tree", kCopyColumns, direct_get,
        [] { run_pmemcpy(Layout::kHierarchical, false, 1); });
  phase("pmemcpy-read-cached", kCopyColumns,
        {zero(Counter::kCopyReadStagedBytes),
         seen(Counter::kCopyReadDirectBytes), seen(Counter::kReadCacheHits)},
        [] { run_pmemcpy(Layout::kHashTable, false, 2, 4u << 20); });
  phase("pmemcpy-read-staged", kCopyColumns, staged_get,
        [] { run_pmemcpy(Layout::kHashTable, true, 1); });
  phase("adios-read", kCopyColumns, staged_get,
        [] { run_miniio(miniio::Library::kAdios, true); });
  phase("netcdf4-read", kCopyColumns, staged_get,
        [] { run_miniio(miniio::Library::kNetcdf4, true); });
  phase("pnetcdf-read", kCopyColumns, staged_get,
        [] { run_miniio(miniio::Library::kPnetcdf, true); });
}

// --- alloc phases -----------------------------------------------------------

constexpr int kRanks = 24;
constexpr int kPutsPerRank = 32;

/// Mixed-size-class put mix: every rank stores scalars, small vectors and a
/// few KiB-scale vectors, then overwrites half of them (driving the free
/// path) — allocator traffic on both the node and blob size classes.
void rank_puts(PMEM& pmem, int rank) {
  const std::string r = "r" + std::to_string(rank) + ".";
  for (int i = 0; i < kPutsPerRank; ++i) {
    const std::string key = r + std::to_string(i);
    switch (i % 3) {
      case 0:
        pmem.store(key, std::int64_t{rank * 1000 + i});
        break;
      case 1:
        pmem.store(key, std::vector<int>(24, i));
        break;
      default:
        pmem.store(key, std::vector<double>(256, double(i)));
        break;
    }
  }
  for (int i = 0; i < kPutsPerRank; i += 2) {
    pmem.store(r + std::to_string(i), std::vector<int>(12, rank + i));
  }
}

/// Runs the put mix on @p nranks ranks under the given allocator knobs.
void run_ranks(int nranks, int magazine_size, int alloc_stripes) {
  PmemNode node(node_opts());
  pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
    Config cfg;
    cfg.node = &node;
    cfg.auto_grow_table = false;  // rehash noise would blur the per-put rates
    cfg.magazine_size = magazine_size;
    cfg.alloc_stripes = alloc_stripes;
    PMEM pmem{cfg};
    pmem.mmap("/alloc.audit", comm);
    rank_puts(pmem, comm.rank());
    pmem.munmap();
  });
}

void run_alloc_phases() {
  // The ablation ladder at 24 ranks: "classic" (stripes=1, magazines off)
  // is the fully serialized path, "striped" adds the metadata lanes and
  // "magazine" the per-thread size-class caches.  Magazines must cut lock
  // acquisitions AND queue charges per put at least 4x against classic, and
  // their fast path must actually serve allocations and frees.
  phase("classic-24r", kAllocColumns, {zero(Counter::kAllocMagazineHits)},
        [] { run_ranks(kRanks, /*magazine_size=*/0, /*alloc_stripes=*/1); });
  phase("striped-24r", kAllocColumns, {},
        [] { run_ranks(kRanks, /*magazine_size=*/0, /*alloc_stripes=*/8); });
  phase("magazine-24r", kAllocColumns,
        {same_as("classic-24r", Counter::kEnginePuts),
         quarter_of("classic-24r", Counter::kAllocLaneAcquisitions),
         quarter_of("classic-24r", Counter::kAllocQueueCharges),
         seen(Counter::kAllocMagazineHits),
         seen(Counter::kAllocMagazineFreeHits)},
        [] { run_ranks(kRanks, /*magazine_size=*/8, /*alloc_stripes=*/8); });
  // The engine defaults on one rank: the fast path must not add work when
  // uncontended.
  phase("serial-1r", kAllocColumns, {},
        [] { run_ranks(1, /*magazine_size=*/-1, /*alloc_stripes=*/-1); });
}

// --- output -----------------------------------------------------------------

/// One table per run of phases sharing a column set, then each alloc
/// phase's per-put rates and summed queueing delay.
void print_tables() {
  const Columns* header = nullptr;
  for (const Row& r : rows) {
    if (r.columns != header) {
      header = r.columns;
      std::printf("\n%-20s", "phase");
      for (Counter c : *header) std::printf(" %s", trace::counter_name(c));
      std::printf("\n");
    }
    std::printf("%-20s", r.phase.c_str());
    for (std::size_t i = 0; i < header->size(); ++i) {
      const int width =
          static_cast<int>(std::strlen(trace::counter_name((*header)[i])));
      std::printf(" %*llu", width,
                  static_cast<unsigned long long>(r.values[i]));
    }
    std::printf("\n");
  }
  std::printf("\n");
  for (const Row& r : rows) {
    const std::uint64_t puts = r[Counter::kEnginePuts];
    if (r.columns != &kAllocColumns || puts == 0) continue;
    const auto per_put = [&](Counter c) {
      return static_cast<double>(r[c]) / static_cast<double>(puts);
    };
    std::printf("%-20s per put: lane=%.3f queue=%.3f, queue_sec=%.6f\n",
                r.phase.c_str(), per_put(Counter::kAllocLaneAcquisitions),
                per_put(Counter::kAllocQueueCharges), r.queue_sec);
  }
}

bool write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "audit: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "{\"phase\": \"%s\"", rows[i].phase.c_str());
    for (std::size_t j = 0; j < rows[i].columns->size(); ++j) {
      std::fprintf(f, ", \"%s\": %llu",
                   trace::counter_name((*rows[i].columns)[j]),
                   static_cast<unsigned long long>(rows[i].values[j]));
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) {
    json_path = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: audit [--json PATH]\n");
    return 2;
  }

  trace::set_enabled(true);
  run_flush_phases();
  run_copy_phases();
  run_alloc_phases();
  print_tables();

  bool ok = all_hold;
  if (json_path != nullptr && !write_json(json_path)) ok = false;
  return ok ? 0 : 1;
}
