// Deterministic allocator hot-path audit (DESIGN.md §14).
//
// Runs the same 24-rank put workload through three allocator
// configurations and reports, per engine put, how much serialized metadata
// work the pool allocator did:
//   * alloc.lane_acquisitions — pool allocator lock acquisitions (slow
//     paths only: classic alloc/free, magazine refills and flush-backs);
//   * alloc.queue_charges — nonzero queueing delays charged by the
//     contention model (per-stripe depth, so stripes shrink this even at
//     equal lock counts);
//   * alloc.metadata_persists — flush/fence passes on allocator metadata
//     (undo-log batches, free-list stores, magazine seals).
// The phases are the ablation: "classic" (stripes=1, magazines off) is the
// pre-PR fully serialized path, "striped" adds the metadata lanes, and
// "magazine" adds the per-thread size-class caches.  The built-in gate is
// the tentpole claim: the magazine phase must show at least 4x fewer lock
// acquisitions AND queue charges per put than classic at 24 ranks, and the
// magazine fast path must actually be seen serving allocations.  Every
// count is exact and reproducible — the workload and the simulated clock
// are deterministic.
//
// Usage: alloc_audit [--json PATH] [--baseline PATH]
//   --json      write the per-phase counters as JSON (one object per line)
//   --baseline  compare against a previously written JSON file and fail
//               (exit 1) if any phase's lane acquisitions, queue charges or
//               metadata persists grew — ci.sh uses this as the allocator
//               regression gate on top of the built-in 4x gate.
#include <pmemcpy/par/comm.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

namespace trace = pmemcpy::trace;
using pmemcpy::Config;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;

constexpr int kRanks = 24;
constexpr int kPutsPerRank = 32;

struct Phase {
  std::string name;
  std::uint64_t puts = 0;
  std::uint64_t lane_acquisitions = 0;
  std::uint64_t queue_charges = 0;
  std::uint64_t metadata_persists = 0;
  std::uint64_t magazine_hits = 0;
  std::uint64_t magazine_free_hits = 0;
  std::uint64_t magazine_refills = 0;
  double queue_delay_s = 0.0;  ///< summed simulated queueing seconds

  [[nodiscard]] double per_put(std::uint64_t v) const {
    return puts == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(puts);
  }
};

std::vector<Phase> phases;

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

/// Runs the 24-rank workload under the given allocator knobs and records
/// the alloc.* counter deltas per engine put.
void audit(const std::string& name, int nranks, int magazine_size,
           int alloc_stripes) {
  PmemNode::Options nopts;
  nopts.capacity = 96ull << 20;
  PmemNode node(nopts);
  trace::reset();
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
  Phase p;
  p.name = name;
  p.puts = trace::counter(trace::Counter::kEnginePuts);
  p.lane_acquisitions = trace::counter(trace::Counter::kAllocLaneAcquisitions);
  p.queue_charges = trace::counter(trace::Counter::kAllocQueueCharges);
  p.metadata_persists = trace::counter(trace::Counter::kAllocMetadataPersists);
  p.magazine_hits = trace::counter(trace::Counter::kAllocMagazineHits);
  p.magazine_free_hits =
      trace::counter(trace::Counter::kAllocMagazineFreeHits);
  p.magazine_refills = trace::counter(trace::Counter::kAllocMagazineRefills);
  p.queue_delay_s = trace::histogram(trace::Hist::kShardQueueDelay).sum;
  phases.push_back(std::move(p));
}

bool write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "alloc_audit: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    // Serialise through the shared trace counter schema (stats exporter,
    // flush_audit, copy_audit and this tool all emit the same field names).
    std::uint64_t row[static_cast<int>(trace::Counter::kNumCounters)] = {};
    row[static_cast<int>(trace::Counter::kEnginePuts)] = phases[i].puts;
    row[static_cast<int>(trace::Counter::kAllocLaneAcquisitions)] =
        phases[i].lane_acquisitions;
    row[static_cast<int>(trace::Counter::kAllocQueueCharges)] =
        phases[i].queue_charges;
    row[static_cast<int>(trace::Counter::kAllocMetadataPersists)] =
        phases[i].metadata_persists;
    row[static_cast<int>(trace::Counter::kAllocMagazineHits)] =
        phases[i].magazine_hits;
    row[static_cast<int>(trace::Counter::kAllocMagazineFreeHits)] =
        phases[i].magazine_free_hits;
    row[static_cast<int>(trace::Counter::kAllocMagazineRefills)] =
        phases[i].magazine_refills;
    std::fprintf(f, "{\"phase\": \"%s\", %s}%s\n", phases[i].name.c_str(),
                 trace::schema_fields(row).c_str(),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

/// Pulls `"field": N` out of a JSON line; absent (zero-suppressed) = 0.
std::uint64_t field_of(const char* line, const char* field) {
  const std::string pat = std::string("\"") + field + "\": ";
  const char* at = std::strstr(line, pat.c_str());
  if (at == nullptr) return 0;
  unsigned long long v = 0;
  std::sscanf(at + pat.size(), "%llu", &v);
  return v;
}

struct BaselineRow {
  std::uint64_t lane_acquisitions = 0;
  std::uint64_t queue_charges = 0;
  std::uint64_t metadata_persists = 0;
};

/// Parses the one-object-per-line JSON write_json() emits.  A phase with
/// no baseline row passes (new phases must not fail old baselines), but a
/// row with no phase fails: a deleted or renamed phase must not drop its
/// gate silently.
bool check_baseline(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "alloc_audit: cannot read baseline %s\n", path);
    return false;
  }
  std::map<std::string, BaselineRow> base;
  char line[1024];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char name[128];
    if (std::sscanf(line, "{\"phase\": \"%127[^\"]\"", name) == 1) {
      base[name] = {field_of(line, "alloc_lane_acquisitions"),
                    field_of(line, "alloc_queue_charges"),
                    field_of(line, "alloc_metadata_persists")};
    }
  }
  std::fclose(f);

  const auto fail_grew = [](const Phase& p, const char* field,
                            std::uint64_t now, std::uint64_t was) {
    std::fprintf(stderr,
                 "alloc_audit: REGRESSION %s %s %llu > baseline %llu\n",
                 p.name.c_str(), field, static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(was));
  };
  bool ok = true;
  for (const auto& p : phases) {
    const auto it = base.find(p.name);
    if (it == base.end()) continue;
    if (p.lane_acquisitions > it->second.lane_acquisitions) {
      fail_grew(p, "alloc_lane_acquisitions", p.lane_acquisitions,
                it->second.lane_acquisitions);
      ok = false;
    }
    if (p.queue_charges > it->second.queue_charges) {
      fail_grew(p, "alloc_queue_charges", p.queue_charges,
                it->second.queue_charges);
      ok = false;
    }
    if (p.metadata_persists > it->second.metadata_persists) {
      fail_grew(p, "alloc_metadata_persists", p.metadata_persists,
                it->second.metadata_persists);
      ok = false;
    }
  }
  for (const auto& p : phases) base.erase(p.name);
  for (const auto& row : base) {
    std::fprintf(stderr,
                 "alloc_audit: STALE baseline row %s matches no phase\n",
                 row.first.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: alloc_audit [--json PATH] [--baseline PATH]\n");
      return 2;
    }
  }

  trace::set_enabled(true);

  // The ablation ladder at 24 ranks, plus a serial sanity row (the engine
  // defaults, one rank: the fast path must not add work when uncontended).
  audit("classic-24r", kRanks, /*magazine_size=*/0, /*alloc_stripes=*/1);
  audit("striped-24r", kRanks, /*magazine_size=*/0, /*alloc_stripes=*/8);
  audit("magazine-24r", kRanks, /*magazine_size=*/8, /*alloc_stripes=*/8);
  audit("serial-1r", 1, /*magazine_size=*/-1, /*alloc_stripes=*/-1);

  std::printf("%-14s %8s %12s %12s %12s %12s %10s %10s %10s\n", "phase",
              "puts", "lane_acq", "queue_chg", "queue_sec", "meta_persist",
              "mag_hits", "mag_frees", "refills");
  for (const auto& p : phases) {
    std::printf(
        "%-14s %8llu %12llu %12llu %12.6f %12llu %10llu %10llu %10llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.puts),
        static_cast<unsigned long long>(p.lane_acquisitions),
        static_cast<unsigned long long>(p.queue_charges), p.queue_delay_s,
        static_cast<unsigned long long>(p.metadata_persists),
        static_cast<unsigned long long>(p.magazine_hits),
        static_cast<unsigned long long>(p.magazine_free_hits),
        static_cast<unsigned long long>(p.magazine_refills));
  }
  std::printf("per put: classic lane=%.3f queue=%.3f | magazine lane=%.3f "
              "queue=%.3f\n",
              phases[0].per_put(phases[0].lane_acquisitions),
              phases[0].per_put(phases[0].queue_charges),
              phases[2].per_put(phases[2].lane_acquisitions),
              phases[2].per_put(phases[2].queue_charges));

  // The tentpole gate: >=4x fewer lock acquisitions AND queue charges per
  // put with magazines + stripes than on the classic path, at 24 ranks.
  bool ok = true;
  const Phase& classic = phases[0];
  const Phase& magazine = phases[2];
  const auto gate_4x = [&](const char* what, std::uint64_t fast,
                           std::uint64_t slow) {
    if (fast * 4 > slow) {
      std::fprintf(stderr,
                   "alloc_audit: FAIL %s not 4x better: magazine %llu vs "
                   "classic %llu\n",
                   what, static_cast<unsigned long long>(fast),
                   static_cast<unsigned long long>(slow));
      ok = false;
    }
  };
  if (classic.puts != magazine.puts) {
    std::fprintf(stderr, "alloc_audit: FAIL phase put counts differ\n");
    ok = false;
  }
  gate_4x("lane acquisitions", magazine.lane_acquisitions,
          classic.lane_acquisitions);
  gate_4x("queue charges", magazine.queue_charges, classic.queue_charges);
  if (magazine.magazine_hits == 0 || magazine.magazine_free_hits == 0) {
    std::fprintf(stderr,
                 "alloc_audit: FAIL magazine fast path never served an "
                 "alloc/free — instrumentation or arming is broken\n");
    ok = false;
  }
  if (classic.magazine_hits != 0) {
    std::fprintf(stderr,
                 "alloc_audit: FAIL classic phase saw magazine hits — the "
                 "knob plumbing is broken\n");
    ok = false;
  }

  if (json_path != nullptr && !write_json(json_path)) ok = false;
  if (baseline_path != nullptr && !check_baseline(baseline_path)) ok = false;
  return ok ? 0 : 1;
}
