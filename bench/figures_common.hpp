// Shared harness for the paper-figure benchmarks (Figures 6 and 7).
//
// Each data point runs the paper's workload — 10 3-D double-precision
// variables totalling PMEMCPY_BENCH_GB gibibytes, divided equally among
// nprocs ranks — through one of five I/O stacks:
//
//   ADIOS    miniADIOS (BP log, staged serialize + POSIX)
//   NetCDF   miniNetCDF4 (contiguous + two-phase shuffle + HDF5 overheads)
//   pNetCDF  miniPNetCDF (contiguous + two-phase shuffle)
//   PMCPY-A  pMEMCPY, MAP_SYNC disabled
//   PMCPY-B  pMEMCPY, MAP_SYNC enabled
//
// Reported numbers are simulated seconds on the paper's testbed model (see
// DESIGN.md §1); data movement and correctness are real.
#pragma once

#include <miniio/miniio.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/trace/trace.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace figbench {

using pmemcpy::Box;
using pmemcpy::PmemNode;
namespace wk = pmemcpy::wk;

enum class IoLib { kAdios, kNetcdf, kPnetcdf, kPmcpyA, kPmcpyB };

inline constexpr IoLib kAllLibs[] = {IoLib::kAdios, IoLib::kNetcdf,
                                     IoLib::kPnetcdf, IoLib::kPmcpyA,
                                     IoLib::kPmcpyB};

inline const char* name(IoLib lib) {
  switch (lib) {
    case IoLib::kAdios: return "ADIOS";
    case IoLib::kNetcdf: return "NetCDF";
    case IoLib::kPnetcdf: return "pNetCDF";
    case IoLib::kPmcpyA: return "PMCPY-A";
    case IoLib::kPmcpyB: return "PMCPY-B";
  }
  return "?";
}

struct Params {
  double gib = 0.25;  ///< total bytes per data point (all 10 variables)
  std::vector<int> counts = {8, 16, 24, 32, 48};
  int nvars = 10;
  int reps = 3;
  bool verify = true;

  [[nodiscard]] std::size_t total_bytes() const {
    return static_cast<std::size_t>(gib * 1024.0 * 1024.0 * 1024.0);
  }
  [[nodiscard]] std::size_t elems_per_var() const {
    return total_bytes() / sizeof(double) / static_cast<std::size_t>(nvars);
  }
};

inline Params params_from_env() {
  Params p;
  if (const char* gb = std::getenv("PMEMCPY_BENCH_GB")) p.gib = atof(gb);
  if (const char* r = std::getenv("PMEMCPY_BENCH_REPS")) p.reps = atoi(r);
  if (const char* v = std::getenv("PMEMCPY_BENCH_VERIFY")) p.verify = atoi(v);
  return p;
}

inline bool is_pmcpy(IoLib lib) {
  return lib == IoLib::kPmcpyA || lib == IoLib::kPmcpyB;
}

/// Fresh node sized for @p data_bytes of payload under the given stack.
inline std::unique_ptr<PmemNode> make_node(IoLib lib,
                                           std::size_t data_bytes) {
  PmemNode::Options o;
  o.pool_fraction = is_pmcpy(lib) ? 0.9 : 0.02;
  o.capacity = static_cast<std::size_t>(data_bytes * 1.6) + (64ull << 20);
  return std::make_unique<PmemNode>(o);
}

inline std::string var_name(int v) { return "rect" + std::to_string(v); }

inline pmemcpy::Config pmcpy_config(IoLib lib, PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.map_sync = lib == IoLib::kPmcpyB;
  cfg.serializer = pmemcpy::serial::SerializerId::kBp4;
  cfg.layout = pmemcpy::Layout::kHashTable;
  return cfg;
}

/// When tracing is on, print the per-phase decomposition of the slowest
/// rank's "fig.rank" span recorded after @p watermark: one row per charged
/// sim::Charge category (the phases a put decomposes into — serialize/copy,
/// pmem write, persist barriers, ...), summing to the span's wall time.
inline void print_phase_breakdown(const char* what, IoLib lib,
                                  std::uint64_t watermark) {
  namespace trace = pmemcpy::trace;
  if (!trace::enabled()) return;
  const auto spans = trace::snapshot();
  const trace::SpanData* crit = nullptr;
  for (const auto& s : spans) {
    if (s.id <= watermark || std::strcmp(s.name, "fig.rank") != 0) continue;
    if (crit == nullptr || s.duration_ns() > crit->duration_ns()) crit = &s;
  }
  if (crit == nullptr) return;
  std::printf("phase,%s,%s,rank%d", what, name(lib), crit->rank);
  double attributed = 0.0;
  for (int c = 0; c < trace::kNumChargeKinds; ++c) {
    const double sec = crit->charge_sec[c];
    if (sec <= 0.0) continue;
    attributed += sec;
    std::printf(",%s=%.6f",
                trace::charge_name(static_cast<pmemcpy::sim::Charge>(c)), sec);
  }
  std::printf(",attributed=%.6f,wall=%.6f\n", attributed,
              static_cast<double>(crit->duration_ns()) * 1e-9);
}

/// One timed collective write of all variables; returns critical-path
/// simulated seconds measured from open/mmap to close (paper §4.1).
inline double run_write(IoLib lib, PmemNode& node,
                        const wk::Decomposition& dec, int nvars, int nranks) {
  node.device().reset_page_touches();
  const std::uint64_t watermark = pmemcpy::trace::high_span_id();
  auto result = pmemcpy::par::Runtime::run(
      nranks, [&](pmemcpy::par::Comm& comm) {
        pmemcpy::trace::Span rank_span("fig.rank");
        const Box& mine =
            dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
        // Generate outside the measured window (sim clock only advances on
        // charged operations, and generation charges nothing).
        std::vector<std::vector<double>> data(
            static_cast<std::size_t>(nvars));
        for (int v = 0; v < nvars; ++v) {
          wk::fill_box(data[static_cast<std::size_t>(v)], v, dec.global, mine);
        }
        if (is_pmcpy(lib)) {
          pmemcpy::PMEM pmem{pmcpy_config(lib, node)};
          pmem.mmap("/fig.pmem", comm);
          for (int v = 0; v < nvars; ++v) {
            pmem.alloc<double>(var_name(v), dec.global);
            pmem.store(var_name(v), data[static_cast<std::size_t>(v)].data(),
                       3, mine.offset.data(), mine.count.data());
          }
          pmem.munmap();
        } else {
          const auto ml = lib == IoLib::kAdios     ? miniio::Library::kAdios
                          : lib == IoLib::kNetcdf ? miniio::Library::kNetcdf4
                                                  : miniio::Library::kPnetcdf;
          auto w = miniio::open_writer(ml, node, "/fig.out", comm);
          for (int v = 0; v < nvars; ++v) {
            w->write(var_name(v), data[static_cast<std::size_t>(v)].data(),
                     mine, dec.global);
          }
          w->close();
        }
      });
  print_phase_breakdown("write", lib, watermark);
  return result.max_time;
}

/// One timed collective symmetric read of all variables.
inline double run_read(IoLib lib, PmemNode& node, const wk::Decomposition& dec,
                       int nvars, int nranks, bool verify) {
  node.device().reset_page_touches();
  const std::uint64_t watermark = pmemcpy::trace::high_span_id();
  auto result = pmemcpy::par::Runtime::run(
      nranks, [&](pmemcpy::par::Comm& comm) {
        pmemcpy::trace::Span rank_span("fig.rank");
        const Box& mine =
            dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
        std::vector<double> buf(mine.elements());
        std::size_t bad = 0;
        if (is_pmcpy(lib)) {
          pmemcpy::PMEM pmem{pmcpy_config(lib, node)};
          pmem.mmap("/fig.pmem", comm);
          for (int v = 0; v < nvars; ++v) {
            pmem.load(var_name(v), buf.data(), 3, mine.offset.data(),
                      mine.count.data());
            if (verify) bad += wk::verify_box(buf, v, dec.global, mine);
          }
          pmem.munmap();
        } else {
          const auto ml = lib == IoLib::kAdios     ? miniio::Library::kAdios
                          : lib == IoLib::kNetcdf ? miniio::Library::kNetcdf4
                                                  : miniio::Library::kPnetcdf;
          auto r = miniio::open_reader(ml, node, "/fig.out", comm);
          for (int v = 0; v < nvars; ++v) {
            r->read(var_name(v), buf.data(), mine);
            if (verify) bad += wk::verify_box(buf, v, dec.global, mine);
          }
          r->close();
        }
        if (bad != 0) {
          throw std::runtime_error(std::string(name(lib)) +
                                   ": verification failed");
        }
      });
  print_phase_breakdown("read", lib, watermark);
  return result.max_time;
}

/// Print the figure as an aligned table plus CSV lines.
inline void print_figure(const std::string& title,
                         const std::vector<int>& counts,
                         const std::map<IoLib, std::vector<double>>& series) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-8s", "nprocs");
  for (const auto& [lib, _] : series) std::printf("%12s", name(lib));
  std::printf("\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::printf("%-8d", counts[i]);
    for (const auto& [_, times] : series) std::printf("%12.3f", times[i]);
    std::printf("\n");
  }
  std::printf("csv,nprocs");
  for (const auto& [lib, _] : series) std::printf(",%s", name(lib));
  std::printf("\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::printf("csv,%d", counts[i]);
    for (const auto& [_, times] : series) std::printf(",%.4f", times[i]);
    std::printf("\n");
  }
}

/// Paper-claim summary at a given process count.
inline void print_claims(const std::vector<int>& counts,
                         const std::map<IoLib, std::vector<double>>& series,
                         int at_procs) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == at_procs) idx = i;
  }
  const double a = series.at(IoLib::kPmcpyA)[idx];
  std::printf("\nAt %d procs (PMCPY-A baseline ratios):\n", at_procs);
  for (const auto& [lib, times] : series) {
    if (lib == IoLib::kPmcpyA) continue;
    std::printf("  %-8s / PMCPY-A = %.2fx\n", name(lib), times[idx] / a);
  }
}

}  // namespace figbench
