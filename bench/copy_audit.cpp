// Deterministic data-path copy audit (DESIGN.md §12/§13).
//
// Runs a fixed put workload through each library's write path and a fixed
// get workload through each library's read path, with tracing armed, and
// reports per phase where the serialized bytes travelled:
//   * writes — a DRAM staging buffer (copy.staged_bytes, the ADIOS-style
//     extra pass) or the reserved PMEM span directly (copy.direct_bytes,
//     reserve-then-serialize);
//   * reads — a DRAM bounce before decode (copy.read_staged_bytes) or an
//     in-place decode of the stored blob (copy.read_direct_bytes), with the
//     tree engine's fragmented-file fallback tracked separately as
//     copy.read_bounce_bytes so the gate can exempt it explicitly.
// The asymmetry is the point of the comparison, so the gate is asymmetric
// too: pMEMCPY's direct phases must report ZERO staged bytes in their
// direction, while the staging ablation and the miniio baselines must
// report staged bytes — otherwise the audit instrumentation itself has
// rotted.  The cached read phase must additionally show real cache hits.
// Like flush_audit, every count is exact and reproducible.
//
// Usage: copy_audit [--json PATH] [--baseline PATH]
//   --json      write the per-phase counters as JSON (one object per line)
//   --baseline  compare against a previously written JSON file and fail
//               (exit 1) if any phase's copy.staged_bytes, copy.staged_puts
//               or copy.read_staged_bytes grew — ci.sh uses this as a copy
//               regression gate on top of the built-in zero-staged gates.
#include <miniio/miniio.hpp>
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
using pmemcpy::Box;
using pmemcpy::Config;
using pmemcpy::Dimensions;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;

struct Phase {
  std::string name;
  std::uint64_t staged_bytes = 0;
  std::uint64_t direct_bytes = 0;
  std::uint64_t staged_puts = 0;
  std::uint64_t read_staged_bytes = 0;
  std::uint64_t read_direct_bytes = 0;
  std::uint64_t read_bounce_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_hit_bytes = 0;
  bool is_read = false;       ///< gate the read counters, not the write ones
  bool expect_staged = false;  ///< baseline/ablation: staging must be seen
  bool expect_cached = false;  ///< cached phase: hits must be seen
};

std::vector<Phase> phases;

PmemNode::Options node_opts() {
  PmemNode::Options o;
  o.capacity = 96ull << 20;
  return o;
}

/// Runs @p fn with the copy counters zeroed and records their deltas.
template <typename Fn>
void audit(const std::string& name, bool is_read, bool expect_staged,
           bool expect_cached, Fn&& fn) {
  trace::reset();
  fn();
  Phase p;
  p.name = name;
  p.staged_bytes = trace::counter(trace::Counter::kCopyStagedBytes);
  p.direct_bytes = trace::counter(trace::Counter::kCopyDirectBytes);
  p.staged_puts = trace::counter(trace::Counter::kCopyStagedPuts);
  p.read_staged_bytes = trace::counter(trace::Counter::kCopyReadStagedBytes);
  p.read_direct_bytes = trace::counter(trace::Counter::kCopyReadDirectBytes);
  p.read_bounce_bytes = trace::counter(trace::Counter::kCopyReadBounceBytes);
  p.cache_hits = trace::counter(trace::Counter::kReadCacheHits);
  p.cache_hit_bytes = trace::counter(trace::Counter::kReadCacheHitBytes);
  p.is_read = is_read;
  p.expect_staged = expect_staged;
  p.expect_cached = expect_cached;
  phases.push_back(std::move(p));
}

template <typename Fn>
void audit_write(const std::string& name, bool expect_staged, Fn&& fn) {
  audit(name, false, expect_staged, false, std::forward<Fn>(fn));
}

template <typename Fn>
void audit_read(const std::string& name, bool expect_staged,
                bool expect_cached, Fn&& fn) {
  audit(name, true, expect_staged, expect_cached, std::forward<Fn>(fn));
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
      std::fprintf(stderr, "copy_audit: scalar readback mismatch\n");
      std::exit(2);
    }
  }
  std::vector<double> v(4096);
  const std::size_t dims = v.size(), off = 0;
  pmem.load("arr", v.data(), 1, &off, &dims);
}

void run_pmemcpy(pmemcpy::Layout layout, bool force_staging) {
  PmemNode node(node_opts());
  Config cfg;
  cfg.node = &node;
  cfg.layout = layout;
  cfg.serializer = pmemcpy::serial::SerializerId::kBinary;
  cfg.force_dram_staging = force_staging;
  PMEM pmem{cfg};
  pmem.mmap("/audit");
  pmemcpy_puts(pmem);
  pmem.munmap();
}

/// Populates, zeroes the counters, then audits only the reads.  With a
/// cache configured the get mix runs twice so the second pass is served
/// from DRAM hits.
void run_pmemcpy_read(pmemcpy::Layout layout, bool force_staging,
                      std::size_t cache_bytes) {
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
  trace::reset();
  pmemcpy_gets(pmem);
  if (cache_bytes > 0) pmemcpy_gets(pmem);
  pmem.munmap();
}

void run_miniio(miniio::Library lib) {
  PmemNode node(node_opts());
  pmemcpy::par::Runtime::run(1, [&](pmemcpy::par::Comm& comm) {
    auto w = miniio::open_writer(lib, node, "/baseline.dat", comm);
    const Dimensions global{32768};
    const Box local(Dimensions{0}, global);
    std::vector<double> data(32768);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
    w->write("var", data.data(), local, global);
    w->close();
  });
}

void run_miniio_read(miniio::Library lib) {
  PmemNode node(node_opts());
  pmemcpy::par::Runtime::run(1, [&](pmemcpy::par::Comm& comm) {
    const Dimensions global{32768};
    const Box local(Dimensions{0}, global);
    {
      auto w = miniio::open_writer(lib, node, "/baseline.dat", comm);
      std::vector<double> data(32768);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
      w->write("var", data.data(), local, global);
      w->close();
    }
    trace::reset();
    auto r = miniio::open_reader(lib, node, "/baseline.dat", comm);
    std::vector<double> data(32768);
    r->read("var", data.data(), local);
    r->close();
  });
}

bool write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "copy_audit: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    // Serialise through the shared trace counter schema (stats exporter,
    // flush_audit and this tool all emit the same field names).
    std::uint64_t row[static_cast<int>(trace::Counter::kNumCounters)] = {};
    row[static_cast<int>(trace::Counter::kCopyStagedBytes)] =
        phases[i].staged_bytes;
    row[static_cast<int>(trace::Counter::kCopyDirectBytes)] =
        phases[i].direct_bytes;
    row[static_cast<int>(trace::Counter::kCopyStagedPuts)] =
        phases[i].staged_puts;
    row[static_cast<int>(trace::Counter::kCopyReadStagedBytes)] =
        phases[i].read_staged_bytes;
    row[static_cast<int>(trace::Counter::kCopyReadDirectBytes)] =
        phases[i].read_direct_bytes;
    row[static_cast<int>(trace::Counter::kCopyReadBounceBytes)] =
        phases[i].read_bounce_bytes;
    row[static_cast<int>(trace::Counter::kReadCacheHits)] =
        phases[i].cache_hits;
    row[static_cast<int>(trace::Counter::kReadCacheHitBytes)] =
        phases[i].cache_hit_bytes;
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
  std::uint64_t staged_bytes = 0;
  std::uint64_t staged_puts = 0;
  std::uint64_t read_staged_bytes = 0;
};

/// Parses the one-object-per-line JSON write_json() emits.  A phase with
/// no baseline row passes (new phases must not fail old baselines), but a
/// row with no phase fails: a deleted or renamed phase must not drop its
/// gate silently.
bool check_baseline(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "copy_audit: cannot read baseline %s\n", path);
    return false;
  }
  std::map<std::string, BaselineRow> base;
  char line[1024];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char name[128];
    if (std::sscanf(line, "{\"phase\": \"%127[^\"]\"", name) == 1) {
      base[name] = {field_of(line, "copy_staged_bytes"),
                    field_of(line, "copy_staged_puts"),
                    field_of(line, "copy_read_staged_bytes")};
    }
  }
  std::fclose(f);

  const auto fail_grew = [](const Phase& p, const char* field,
                            std::uint64_t now, std::uint64_t was) {
    std::fprintf(stderr, "copy_audit: REGRESSION %s %s %llu > baseline %llu\n",
                 p.name.c_str(), field, static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(was));
  };
  bool ok = true;
  for (const auto& p : phases) {
    const auto it = base.find(p.name);
    if (it == base.end()) continue;
    if (p.staged_bytes > it->second.staged_bytes) {
      fail_grew(p, "copy_staged_bytes", p.staged_bytes,
                it->second.staged_bytes);
      ok = false;
    }
    if (p.staged_puts > it->second.staged_puts) {
      fail_grew(p, "copy_staged_puts", p.staged_puts, it->second.staged_puts);
      ok = false;
    }
    if (p.read_staged_bytes > it->second.read_staged_bytes) {
      fail_grew(p, "copy_read_staged_bytes", p.read_staged_bytes,
                it->second.read_staged_bytes);
      ok = false;
    }
  }
  for (const auto& p : phases) base.erase(p.name);
  for (const auto& row : base) {
    std::fprintf(stderr,
                 "copy_audit: STALE baseline row %s matches no phase\n",
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
                   "usage: copy_audit [--json PATH] [--baseline PATH]\n");
      return 2;
    }
  }

  trace::set_enabled(true);

  // pMEMCPY direct phases: every serialized byte must land in the reserved
  // PMEM span; a single DRAM-staged byte fails the audit.
  audit_write("pmemcpy-put", false,
              [] { run_pmemcpy(pmemcpy::Layout::kHashTable, false); });
  audit_write("pmemcpy-tree", false,
              [] { run_pmemcpy(pmemcpy::Layout::kHierarchical, false); });
  // The staging ablation (Config::force_dram_staging) and the miniio
  // baselines must be *seen* staging — that asymmetry is the paper's
  // comparison, and a zero here means the instrumentation is broken.
  audit_write("pmemcpy-staged", true,
              [] { run_pmemcpy(pmemcpy::Layout::kHashTable, true); });
  audit_write("adios", true, [] { run_miniio(miniio::Library::kAdios); });
  audit_write("netcdf4", true, [] { run_miniio(miniio::Library::kNetcdf4); });
  audit_write("pnetcdf", true, [] { run_miniio(miniio::Library::kPnetcdf); });

  // Read direction (DESIGN.md §13): pMEMCPY decodes the stored blob in
  // place — zero read-staged bytes on both layouts, with the tree engine's
  // fragmented-file fallback exempted under its own bounce counter.  The
  // cached phase must show genuine DRAM hits on top; the staged ablation
  // and the baselines must be seen bouncing through DRAM.
  audit_read("pmemcpy-read", false, false, [] {
    run_pmemcpy_read(pmemcpy::Layout::kHashTable, false, 0);
  });
  audit_read("pmemcpy-read-tree", false, false, [] {
    run_pmemcpy_read(pmemcpy::Layout::kHierarchical, false, 0);
  });
  audit_read("pmemcpy-read-cached", false, true, [] {
    run_pmemcpy_read(pmemcpy::Layout::kHashTable, false, 4u << 20);
  });
  audit_read("pmemcpy-read-staged", true, false, [] {
    run_pmemcpy_read(pmemcpy::Layout::kHashTable, true, 0);
  });
  audit_read("adios-read", true, false,
             [] { run_miniio_read(miniio::Library::kAdios); });
  audit_read("netcdf4-read", true, false,
             [] { run_miniio_read(miniio::Library::kNetcdf4); });
  audit_read("pnetcdf-read", true, false,
             [] { run_miniio_read(miniio::Library::kPnetcdf); });

  std::printf("%-20s %14s %14s %12s %14s %14s %14s %10s\n", "phase",
              "staged_bytes", "direct_bytes", "staged_puts", "rd_staged",
              "rd_direct", "rd_bounce", "hits");
  for (const auto& p : phases) {
    std::printf("%-20s %14llu %14llu %12llu %14llu %14llu %14llu %10llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.staged_bytes),
                static_cast<unsigned long long>(p.direct_bytes),
                static_cast<unsigned long long>(p.staged_puts),
                static_cast<unsigned long long>(p.read_staged_bytes),
                static_cast<unsigned long long>(p.read_direct_bytes),
                static_cast<unsigned long long>(p.read_bounce_bytes),
                static_cast<unsigned long long>(p.cache_hits));
  }

  bool ok = true;
  for (const auto& p : phases) {
    if (!p.is_read) {
      if (!p.expect_staged && (p.staged_bytes != 0 || p.staged_puts != 0)) {
        std::fprintf(stderr,
                     "copy_audit: FAIL %s staged %llu bytes (%llu puts) on "
                     "the direct path\n",
                     p.name.c_str(),
                     static_cast<unsigned long long>(p.staged_bytes),
                     static_cast<unsigned long long>(p.staged_puts));
        ok = false;
      }
      if (!p.expect_staged && p.direct_bytes == 0) {
        std::fprintf(stderr, "copy_audit: FAIL %s reported no direct bytes\n",
                     p.name.c_str());
        ok = false;
      }
      if (p.expect_staged && p.staged_bytes == 0) {
        std::fprintf(stderr,
                     "copy_audit: FAIL %s reported no staged bytes — staging "
                     "instrumentation is broken\n",
                     p.name.c_str());
        ok = false;
      }
      continue;
    }
    if (!p.expect_staged && p.read_staged_bytes != 0) {
      std::fprintf(stderr,
                   "copy_audit: FAIL %s bounced %llu bytes through DRAM on "
                   "the direct read path\n",
                   p.name.c_str(),
                   static_cast<unsigned long long>(p.read_staged_bytes));
      ok = false;
    }
    if (!p.expect_staged &&
        p.read_direct_bytes == 0 && p.read_bounce_bytes == 0) {
      std::fprintf(stderr,
                   "copy_audit: FAIL %s reported no direct read bytes\n",
                   p.name.c_str());
      ok = false;
    }
    if (p.expect_staged && p.read_staged_bytes == 0) {
      std::fprintf(stderr,
                   "copy_audit: FAIL %s reported no read-staged bytes — "
                   "staging instrumentation is broken\n",
                   p.name.c_str());
      ok = false;
    }
    if (p.expect_cached && p.cache_hits == 0) {
      std::fprintf(stderr,
                   "copy_audit: FAIL %s reported no read-cache hits\n",
                   p.name.c_str());
      ok = false;
    }
  }

  if (json_path != nullptr && !write_json(json_path)) ok = false;
  if (baseline_path != nullptr && !check_baseline(baseline_path)) ok = false;
  return ok ? 0 : 1;
}
