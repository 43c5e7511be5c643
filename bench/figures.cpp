// The paper's evaluation on the simulated clock: Figures 6 and 7, the
// API-complexity count, the ablations, the burst-buffer drain and the read
// patterns, one phase each (DESIGN.md §3 maps each to its experiment id).
//
// Usage: figures [PHASE...]
//   Runs the named phases in the order given, or every phase in table order
//   when none is named.  Each phase prints one table.
//
// Scale with PMEMCPY_BENCH_GB (default 0.25); shapes are size-independent.
// Every read is checked against the values written; a phase whose check
// fails exits 1.  ci.sh runs every phase and diffs the ones whose printed
// digits host thread order does not move against bench/figures_baseline.txt.
#include "figures_common.hpp"

#include <pmemcpy/bb/burst_buffer.hpp>

#include <algorithm>
#include <cctype>
#include <exception>
#include <iterator>
#include <random>
#include <span>

namespace {

using namespace figbench;
using pmemcpy::Dimensions;
using pmemcpy::serial::FilterId;
using pmemcpy::serial::SerializerId;

// ---------------------------------------------------------------------------
// FIG6 / FIG7: "Performance of writing [reading] a 40GB 3-D domain to PMEM
// for a varying number of processes."  Series: ADIOS, NetCDF, pNetCDF,
// PMCPY-A (MAP_SYNC off), PMCPY-B (MAP_SYNC on).  Each process writes an
// equal share of ten 3-D variables and reads back exactly the region it
// wrote; the time measured spans file open/mmap to close; each point is the
// mean of 3 runs.  An untimed write populates the store before the reads.
// ---------------------------------------------------------------------------

void figure(const Params& p, bool reads) {
  std::printf("%s: %.3f GiB total, %d vars, %d reps\n",
              reads ? "fig7_read" : "fig6_write", p.gib, p.nvars, kReps);
  std::map<IoLib, std::vector<double>> series;
  for (const int nranks : p.counts) {
    const auto dec = wk::decompose(p.elems_per_var(), nranks);
    const std::size_t actual =
        dec.total_elements() * sizeof(double) *
        static_cast<std::size_t>(p.nvars);
    for (const IoLib lib : kAllLibs) {
      auto node = make_node(lib, actual);
      if (reads) (void)run_write(lib, *node, dec, p.nvars, nranks);
      double sum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        sum += reads ? run_read(lib, *node, dec, p.nvars, nranks)
                     : run_write(lib, *node, dec, p.nvars, nranks);
      }
      series[lib].push_back(sum / kReps);
      std::printf("  nprocs=%-3d %-8s %8.3f s\n", nranks, name(lib),
                  series[lib].back());
      std::fflush(stdout);
    }
  }
  print_figure(reads ? "Figure 7: I/O library vs #processes (READS, seconds)"
                     : "Figure 6: I/O library vs #processes (WRITES, seconds)",
               p.counts, series);
  print_claims(p.counts, series, 24);
}

void fig6_write(const Params& p) { figure(p, /*reads=*/false); }
void fig7_read(const Params& p) { figure(p, /*reads=*/true); }

// ---------------------------------------------------------------------------
// TAB-API: the paper's §3 API-complexity comparison.  The paper counts the
// lines and lexical tokens of three equivalent programs — its Figures 3
// (pMEMCPY), 4 (HDF5) and 5 (ADIOS) — and reports 16 lines / 132 tokens vs
// 42 / 253 vs 24 / 164.  We embed the listings verbatim and recount with a
// simple C lexer.
// ---------------------------------------------------------------------------

// Paper Figure 3 (pMEMCPY).
const char* kPmemcpySrc = R"(#include <pmemcpy/pmemcpy.h>
int main(int argc, char** argv) {
    int rank, nprocs;
    MPI_Init(&argc,&argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    pmemcpy::PMEM pmem;
    size_t count = 100;
    size_t off = 100*rank;
    size_t dimsf = 100*nprocs;
    char *path = argv[1];

    double data[100] = {0};
    pmem.mmap(path, MPI_COMM_WORLD);
    pmem.alloc<double>("A", 1, &dimsf);
    pmem.store<double>("A", data, 1, &off, &count);
    MPI_Finalize();
}
)";

// Paper Figure 4 (equivalent HDF5).
const char* kHdf5Src = R"(#include <hdf5.h>
int main (int argc, char **argv) {
  int nprocs, rank;
  MPI_Init(&argc, &argv);
  MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  hid_t file_id, dset_id;
  hid_t filespace, memspace;
  hsize_t count = 100;
  hsize_t offset = rank*100;
  hsize_t dimsf = nprocs*100;
  hid_t plist_id;
  herr_t status;
  char *path = argv[1];
  int data[100];

  plist_id = H5Pcreate(H5P_FILE_ACCESS);
  H5Pset_fapl_mpio(plist_id,
    MPI_COMM_WORLD, MPI_INFO_NULL);
  file_id = H5Fcreate(path,
    H5F_ACC_TRUNC, H5P_DEFAULT, plist_id);
  H5Pclose(plist_id);

  filespace = H5Screate_simple(1, &dimsf, NULL);
  dset_id = H5Dcreate(file_id, "dataset",
    H5T_NATIVE_INT, filespace, H5P_DEFAULT,
    H5P_DEFAULT, H5P_DEFAULT);
  H5Sclose(filespace);
  memspace = H5Screate_simple(1, &count, NULL);
  filespace = H5Dget_space(dset_id);
  H5Sselect_hyperslab(filespace,
    H5S_SELECT_SET, &offset,
    NULL, &count, NULL);

  plist_id = H5Pcreate(H5P_DATASET_XFER);
  status = H5Dwrite(dset_id, H5T_NATIVE_INT,
    memspace, filespace, plist_id, data);

  H5Dclose(dset_id);
  H5Sclose(filespace);
  H5Sclose(memspace);
  H5Pclose(plist_id);
  H5Fclose(file_id);
  MPI_Finalize();
  return 0;
}
)";

// Paper Figure 5 (equivalent ADIOS; the separate XML config that defines
// "A" in terms of count, off and dimsf is not counted, as in the paper).
const char* kAdiosSrc = R"(#include <adios.h>
int main(int argc, char **argv) {
    int rank, nprocs;
    MPI_Init(&argc, &argv);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    char *path = argv[1];
    char *config = argv[2];
    double data[100];
    int64_t adios_handle;
    size_t count = 100;
    size_t offset = 100*rank;
    size_t dimsf = 100*nprocs;

    adios_init(config, MPI_COMM_WORLD);
    adios_open (&adios_handle, "dataset",
      path, "w", MPI_COMM_WORLD);
    adios_write (adios_handle, "count", &count);
    adios_write (adios_handle, "dimsf", &dimsf);
    adios_write (adios_handle, "offset", &offset);
    adios_write (adios_handle, "A", data);
    adios_close (adios_handle);
    adios_finalize (rank);
    MPI_Finalize ();
    return 0;
}
)";

struct Counts {
  int lines = 0;
  int tokens = 0;
};

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Count non-blank lines and lexical tokens (identifiers/numbers keep
/// their preprocessor-style pieces together; every operator or punctuation
/// character is one token; string/char literals are one token).
Counts count(const std::string& src) {
  Counts c;
  bool line_has_content = false;
  for (std::size_t i = 0; i < src.size();) {
    const char ch = src[i];
    if (ch == '\n') {
      if (line_has_content) ++c.lines;
      line_has_content = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(ch))) {
      ++i;
      continue;
    }
    line_has_content = true;
    if (ident_char(ch)) {
      while (i < src.size() && ident_char(src[i])) ++i;
      ++c.tokens;
      continue;
    }
    if (ch == '"' || ch == '\'') {
      const char quote = ch;
      ++i;
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      ++c.tokens;
      continue;
    }
    ++i;
    ++c.tokens;
  }
  if (line_has_content) ++c.lines;
  return c;
}

void api_complexity(const Params&) {
  struct Row {
    const char* name;
    const char* src;
    int paper_lines, paper_tokens;
  };
  const Row rows[] = {
      {"pMEMCPY (Fig.3)", kPmemcpySrc, 16, 132},
      {"HDF5    (Fig.4)", kHdf5Src, 42, 253},
      {"ADIOS   (Fig.5)", kAdiosSrc, 24, 164},
  };

  std::printf("== TAB-API: API complexity (paper §3) ==\n");
  std::printf("%-18s %8s %8s %14s %14s\n", "library", "lines", "tokens",
              "paper lines", "paper tokens");
  std::vector<Counts> measured;
  for (const auto& r : rows) {
    const Counts c = count(r.src);
    measured.push_back(c);
    std::printf("%-18s %8d %8d %14d %14d\n", r.name, c.lines, c.tokens,
                r.paper_lines, r.paper_tokens);
  }
  const double vs_hdf5 =
      100.0 * (1.0 - static_cast<double>(measured[0].tokens) /
                         static_cast<double>(measured[1].tokens));
  const double vs_adios =
      100.0 * (1.0 - static_cast<double>(measured[0].tokens) /
                         static_cast<double>(measured[2].tokens));
  std::printf("\npMEMCPY token reduction: %.0f%% vs HDF5, %.0f%% vs ADIOS\n",
              vs_hdf5, vs_adios);
  std::printf("(paper states a 92%% token reduction vs HDF5 for its "
              "counting method; ours is a plain C lexer)\n");
}

// ---------------------------------------------------------------------------
// ABL-SYNC: the paper's §4.1 claim that with MAP_SYNC enabled "the
// performance benefit of serializing/deserializing directly from PMEM is
// completely lost, and can even cause performance to be worse than simply
// using POSIX read()/write()".  Compares, at each process count: pMEMCPY
// with MAP_SYNC off (PMCPY-A), with MAP_SYNC on (PMCPY-B), and a plain
// POSIX read()/write() path to the same PMEM filesystem (each rank writes
// its pieces to a private file with pwrite, reads them back with pread).
// ---------------------------------------------------------------------------

/// POSIX baseline: per-rank file, staged serialize + pwrite / pread + copy.
double run_posix(PmemNode& node, const wk::Decomposition& dec, int nvars,
                 int nranks, bool read_phase) {
  node.device().reset_page_touches();
  auto result = pmemcpy::par::Runtime::run(
      nranks, [&](pmemcpy::par::Comm& comm) {
        auto& fs = node.fs();
        const Box& mine =
            dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
        const std::string path =
            "/posix_rank" + std::to_string(comm.rank());
        std::vector<double> buf;
        if (!read_phase) {
          auto f = fs.open(path, pmemcpy::fs::OpenMode::kTruncate);
          std::uint64_t off = 0;
          for (int v = 0; v < nvars; ++v) {
            wk::fill_box(buf, v, dec.global, mine);
            fs.pwrite(f, buf.data(), buf.size() * sizeof(double), off);
            off += buf.size() * sizeof(double);
          }
          fs.fsync(f);
        } else {
          auto f = fs.open(path, pmemcpy::fs::OpenMode::kRead);
          buf.resize(mine.elements());
          std::uint64_t off = 0;
          for (int v = 0; v < nvars; ++v) {
            fs.pread(f, buf.data(), buf.size() * sizeof(double), off);
            off += buf.size() * sizeof(double);
            if (wk::verify_box(buf, v, dec.global, mine) != 0) {
              throw std::runtime_error(path + ": verification failed");
            }
          }
        }
        comm.barrier();
      });
  return result.max_time;
}

void ablation_mapsync(const Params& p) {
  std::printf("ablation_mapsync: %.3f GiB, %d reps\n", p.gib, kReps);
  std::printf("%-8s %12s %12s %12s %12s %12s %12s\n", "nprocs", "A-write",
              "B-write", "posix-write", "A-read", "B-read", "posix-read");

  for (const int nranks : p.counts) {
    const auto dec = wk::decompose(p.elems_per_var(), nranks);
    const std::size_t bytes = dec.total_elements() * sizeof(double) *
                              static_cast<std::size_t>(p.nvars);
    double t[6] = {};
    for (int rep = 0; rep < kReps; ++rep) {
      {
        auto node = make_node(IoLib::kPmcpyA, bytes);
        t[0] += run_write(IoLib::kPmcpyA, *node, dec, p.nvars, nranks);
        t[3] += run_read(IoLib::kPmcpyA, *node, dec, p.nvars, nranks);
      }
      {
        auto node = make_node(IoLib::kPmcpyB, bytes);
        t[1] += run_write(IoLib::kPmcpyB, *node, dec, p.nvars, nranks);
        t[4] += run_read(IoLib::kPmcpyB, *node, dec, p.nvars, nranks);
      }
      {
        auto node = make_node(IoLib::kAdios, bytes);  // fs-heavy split
        t[2] += run_posix(*node, dec, p.nvars, nranks, false);
        t[5] += run_posix(*node, dec, p.nvars, nranks, true);
      }
    }
    std::printf("%-8d", nranks);
    for (double v : t) std::printf("%12.4f", v / kReps);
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: B-write > posix-write in at least part of "
              "the sweep (the paper's \"worse than POSIX\" case), while "
              "A-write beats both.\n");
}

// ---------------------------------------------------------------------------
// ABL-FILTER: transparent compression on the Figure-6 workload at 24 procs.
// Filters trade an extra DRAM encode/decode pass for fewer bytes through
// the 8 GB/s PMEM write channel, so the win depends entirely on the data:
//   zeros   — fully compressible (RLE collapses it)
//   smooth  — monotone field (delta-varint shrinks it well)
//   random  — incompressible (filters are pure overhead)
// ---------------------------------------------------------------------------

enum class DataKind { kZeros, kSmooth, kRandom };

const char* kind_name(DataKind k) {
  switch (k) {
    case DataKind::kZeros: return "zeros";
    case DataKind::kSmooth: return "smooth";
    case DataKind::kRandom: return "random";
  }
  return "?";
}

/// Variable @p v of rank @p rank's box, of the given kind.
Generator data_of(DataKind kind) {
  return [kind](std::vector<double>& buf, int v, const wk::Decomposition& dec,
                int rank) {
    const std::size_t elems =
        dec.rank_boxes[static_cast<std::size_t>(rank)].elements();
    buf.resize(elems);
    switch (kind) {
      case DataKind::kZeros:
        std::fill(buf.begin(), buf.end(), 0.0);
        break;
      case DataKind::kSmooth:
        for (std::size_t i = 0; i < elems; ++i) {
          buf[i] = 1e6 + static_cast<double>(i);
        }
        break;
      case DataKind::kRandom: {
        std::mt19937_64 rng(static_cast<unsigned>(v * 1000 + rank));
        for (auto& x : buf) {
          x = static_cast<double>(rng()) / 1e6;
        }
        break;
      }
    }
  };
}

void ablation_filters(const Params& p) {
  constexpr int kProcs = 24;
  const auto dec = wk::decompose(p.elems_per_var(), kProcs);
  const std::size_t bytes = dec.total_elements() * sizeof(double) *
                            static_cast<std::size_t>(p.nvars);
  std::printf("ablation_filters: %.3f GiB at %d procs\n", p.gib, kProcs);
  std::printf("%-8s %-8s %12s %12s %14s\n", "data", "filter", "write(s)",
              "read(s)", "device MiB");

  for (const DataKind kind :
       {DataKind::kZeros, DataKind::kSmooth, DataKind::kRandom}) {
    for (const FilterId f :
         {FilterId::kNone, FilterId::kRle, FilterId::kDelta}) {
      // Worst case: RLE on incompressible data doubles the payload.
      auto node = make_node(IoLib::kPmcpyA, bytes * 2 + (64ull << 20));
      pmemcpy::Config cfg;
      cfg.node = node.get();
      pmemcpy::Config filtered = cfg;
      filtered.filter = f;
      const auto before = node->device().bytes_written();
      const double w = pmcpy_write(filtered, "/flt.pmem", "", dec, p.nvars,
                                   kProcs, data_of(kind));
      const auto device_bytes = node->device().bytes_written() - before;
      const double r =
          pmcpy_read(cfg, "/flt.pmem", "", dec, p.nvars, kProcs, data_of(kind));
      std::printf("%-8s %-8s %12.4f %12.4f %14.1f\n", kind_name(kind),
                  pmemcpy::serial::filter_name(f), w, r,
                  static_cast<double>(device_bytes) / (1 << 20));
      std::fflush(stdout);
    }
  }
  std::printf("\nExpected shape: filters win when the data compresses (fewer "
              "bytes through the 8 GB/s device than the encode pass costs) "
              "and lose on random data (pure overhead) — the classic "
              "compression trade the HCompress line studies.\n");
}

// ---------------------------------------------------------------------------
// ABL-CHUNK: HDF5's chunked vs contiguous dataset layout (paper §2.1
// background) on the NetCDF4/HDF5 engine at 24 procs.  Chunking aligns the
// file layout with block decompositions — when chunk dims match the
// per-rank boxes, each rank's data is file-contiguous and the shuffle
// becomes cheap rearrangement; when they don't, runs fragment and the
// metadata (run headers) balloon.
// ---------------------------------------------------------------------------

struct Times {
  double write_s = 0, read_s = 0;
};

Times run_chunked(const Dimensions& chunk, const wk::Decomposition& dec,
                  int nvars, int nranks) {
  const std::size_t bytes = dec.total_elements() * sizeof(double) *
                            static_cast<std::size_t>(nvars);
  auto node = make_node(IoLib::kNetcdf, bytes * 2);  // chunk padding headroom
  Times out;
  auto wr = pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
    const Box& mine = dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
    auto w = miniio::open_writer(miniio::Library::kNetcdf4, *node,
                                 "/chunk.h5", comm);
    w->set_chunk(chunk);
    std::vector<double> buf;
    for (int v = 0; v < nvars; ++v) {
      wk::fill_box(buf, v, dec.global, mine);
      w->write(var_name(v), buf.data(), mine, dec.global);
    }
    w->close();
  });
  out.write_s = wr.max_time;
  auto rd = pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
    const Box& mine = dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
    auto r = miniio::open_reader(miniio::Library::kNetcdf4, *node,
                                 "/chunk.h5", comm);
    std::vector<double> buf(mine.elements());
    std::size_t bad = 0;
    for (int v = 0; v < nvars; ++v) {
      r->read(var_name(v), buf.data(), mine);
      bad += wk::verify_box(buf, v, dec.global, mine);
    }
    r->close();
    if (bad != 0) throw std::runtime_error("/chunk.h5: verification failed");
  });
  out.read_s = rd.max_time;
  return out;
}

void ablation_chunking(const Params& p) {
  constexpr int kProcs = 24;
  const auto dec = wk::decompose(p.elems_per_var(), kProcs);
  const Dimensions& box = dec.rank_boxes[0].count;
  std::printf("ablation_chunking: %.3f GiB at %d procs, per-rank box "
              "%zux%zux%zu\n",
              p.gib, kProcs, box[0], box[1], box[2]);
  std::printf("%-26s %12s %12s\n", "layout", "write(s)", "read(s)");

  struct Case {
    const char* name;
    Dimensions chunk;
  };
  const Case cases[] = {
      {"contiguous", {}},
      {"chunk = rank box", box},
      {"chunk = 1/2 rank box", {box[0] / 2, box[1] / 2, box[2] / 2}},
      {"chunk = misaligned", {box[0] - 1, box[1] + 1, box[2] - 1}},
      {"chunk = planes", {1, dec.global[1], dec.global[2]}},
  };
  for (const auto& c : cases) {
    const Times t = run_chunked(c.chunk, dec, p.nvars, kProcs);
    std::printf("%-26s %12.4f %12.4f\n", c.name, t.write_s, t.read_s);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: rank-box-aligned chunks beat contiguous "
              "(whole boxes become single file runs); misaligned chunks "
              "fragment runs and cost the most.\n");
}

// ---------------------------------------------------------------------------
// ABL-STAGE: the paper's central mechanism claim — "unlike similar work
// which serializes data structures into an in-memory buffer and then copies
// to PMEM, pMEMCPY can serialize the data directly into PMEM ... avoiding a
// significant data copying cost."  Runs the Figure-6/7 workload through
// pMEMCPY twice: once with direct serialization (default) and once with
// Config::force_dram_staging, which re-enables the DRAM staging pass other
// libraries pay.
// ---------------------------------------------------------------------------

void ablation_staging(const Params& p) {
  std::printf("ablation_staging: %.3f GiB, %d reps\n", p.gib, kReps);
  std::printf("%-8s %14s %14s %10s %14s %14s %10s\n", "nprocs",
              "direct-write", "staged-write", "overhead", "direct-read",
              "staged-read", "overhead");

  for (const int nranks : p.counts) {
    const auto dec = wk::decompose(p.elems_per_var(), nranks);
    const std::size_t bytes = dec.total_elements() * sizeof(double) *
                              static_cast<std::size_t>(p.nvars);
    double dw = 0, sw = 0, dr = 0, sr = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto node = make_node(IoLib::kPmcpyA, bytes);
      pmemcpy::Config direct;
      direct.node = node.get();
      pmemcpy::Config staged = direct;
      staged.force_dram_staging = true;
      const char* path = "/stage.pmem";
      dw += pmcpy_write(direct, path, "", dec, p.nvars, nranks);
      dr += pmcpy_read(direct, path, "", dec, p.nvars, nranks);
      sw += pmcpy_write(staged, path, "", dec, p.nvars, nranks);
      sr += pmcpy_read(staged, path, "", dec, p.nvars, nranks);
    }
    std::printf("%-8d %14.4f %14.4f %9.1f%% %14.4f %14.4f %9.1f%%\n", nranks,
                dw / kReps, sw / kReps, 100.0 * (sw - dw) / dw,
                dr / kReps, sr / kReps, 100.0 * (sr - dr) / dr);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: staging adds a full extra DRAM pass on the "
              "write side and on the symmetric read fast path — the copy "
              "pMEMCPY's direct (de)serialization avoids.\n");
}

// ---------------------------------------------------------------------------
// ABL-SER: §3 "the BP4 serialization is used [by default]; however, other
// serialization tools can be added, and serialization can be completely
// disabled."  Sweeps the serializer (BP4-lite, cereal-style binary, raw =
// disabled) over the Figure-6 write and Figure-7 read workload at 24 procs,
// plus a many-small-variables workload where header overhead matters more.
// ---------------------------------------------------------------------------

const char* ser_name(SerializerId s) {
  switch (s) {
    case SerializerId::kBp4: return "bp4";
    case SerializerId::kBinary: return "binary";
    case SerializerId::kRaw: return "raw(off)";
    case SerializerId::kCapnp: return "capnp";
  }
  return "?";
}

void ablation_serializers(const Params& p) {
  constexpr int kProcs = 24;
  constexpr SerializerId kSerializers[] = {
      SerializerId::kBp4, SerializerId::kBinary, SerializerId::kCapnp,
      SerializerId::kRaw};
  std::printf("ablation_serializers: %.3f GiB at %d procs, %d reps\n", p.gib,
              kProcs, kReps);

  std::printf("\n-- bulk workload (10 large 3-D variables) --\n");
  std::printf("%-10s %12s %12s\n", "serializer", "write(s)", "read(s)");
  const auto dec = wk::decompose(p.elems_per_var(), kProcs);
  const std::size_t bytes =
      dec.total_elements() * sizeof(double) * static_cast<std::size_t>(p.nvars);
  for (const auto ser : kSerializers) {
    double w = 0, r = 0;
    auto node = make_node(IoLib::kPmcpyA, bytes);
    pmemcpy::Config cfg;
    cfg.node = node.get();
    cfg.serializer = ser;
    for (int rep = 0; rep < kReps; ++rep) {
      w += pmcpy_write(cfg, "/ser.pmem", "", dec, p.nvars, kProcs);
      r += pmcpy_read(cfg, "/ser.pmem", "", dec, p.nvars, kProcs);
    }
    std::printf("%-10s %12.4f %12.4f\n", ser_name(ser), w / kReps,
                r / kReps);
  }

  std::printf("\n-- metadata-heavy workload (1000 tiny variables) --\n");
  std::printf("%-10s %12s %12s\n", "serializer", "write(s)", "read(s)");
  const auto tiny = wk::decompose(static_cast<std::size_t>(kProcs) * 64,
                                  kProcs);  // 64 doubles per rank per var
  for (const auto ser : kSerializers) {
    auto node = make_node(IoLib::kPmcpyA, 512ull << 20);
    pmemcpy::Config cfg;
    cfg.node = node.get();
    cfg.serializer = ser;
    const double w = pmcpy_write(cfg, "/ser.pmem", "", tiny, 1000, kProcs);
    const double r = pmcpy_read(cfg, "/ser.pmem", "", tiny, 1000, kProcs);
    std::printf("%-10s %12.4f %12.4f\n", ser_name(ser), w, r);
  }

  std::printf("\nExpected shape: bulk costs are bandwidth-bound and nearly "
              "serializer-independent; the tiny-variable rows lie within "
              "run-to-run noise of each other (host thread order decides "
              "where the ranks' allocations land), so they do not rank the "
              "serializers.\n");
}

// ---------------------------------------------------------------------------
// ABL-LAYOUT: §3 "Data Layout" — flat hashtable in one pool (default)
// versus hierarchical file-per-variable on the PMEM filesystem.  The flat
// layout exploits the device's random-access parallelism via bucketed
// metadata; the hierarchical layout buys a browsable namespace at the cost
// of per-variable file/directory metadata.  Sweeps the variable count at a
// fixed total size so the metadata:data ratio grows.
// ---------------------------------------------------------------------------

void ablation_layout(const Params& p) {
  constexpr int kProcs = 16;
  std::printf("ablation_layout: %.3f GiB total at %d procs\n", p.gib, kProcs);
  std::printf("%-8s %14s %14s %14s %14s\n", "nvars", "flat-write",
              "tree-write", "flat-read", "tree-read");

  for (const int nvars : {1, 10, 100, 400}) {
    const std::size_t elems_per_var =
        p.total_bytes() / sizeof(double) / static_cast<std::size_t>(nvars);
    const auto dec = wk::decompose(
        std::max<std::size_t>(elems_per_var, kProcs), kProcs);
    const std::size_t bytes = dec.total_elements() * sizeof(double) *
                              static_cast<std::size_t>(nvars);

    PmemNode::Options flat_o;
    flat_o.pool_fraction = 0.9;
    flat_o.capacity = static_cast<std::size_t>(bytes * 1.8) + (96ull << 20);
    PmemNode flat_node(flat_o);
    PmemNode::Options tree_o;
    tree_o.pool_fraction = 0.02;
    // Extra headroom: file-per-variable needs inodes proportional to
    // nvars x nranks, and the inode table scales with capacity.
    tree_o.capacity =
        static_cast<std::size_t>(bytes * 1.8) + (640ull << 20);
    PmemNode tree_node(tree_o);

    pmemcpy::Config flat;
    flat.node = &flat_node;
    pmemcpy::Config tree;
    tree.node = &tree_node;
    tree.layout = pmemcpy::Layout::kHierarchical;
    const double fw = pmcpy_write(flat, "/flat.pmem", "g/", dec, nvars, kProcs);
    const double tw = pmcpy_write(tree, "/tree.bp", "g/", dec, nvars, kProcs);
    const double fr = pmcpy_read(flat, "/flat.pmem", "g/", dec, nvars, kProcs);
    const double tr = pmcpy_read(tree, "/tree.bp", "g/", dec, nvars, kProcs);
    std::printf("%-8d %14.4f %14.4f %14.4f %14.4f\n", nvars, fw, tw, fr, tr);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: near-parity for few large variables; the "
              "hierarchical layout falls behind as the variable count grows "
              "(directory + inode metadata per variable).\n");
}

// ---------------------------------------------------------------------------
// ABL-BUCKETS: the paper's §3 claim that hashtable metadata "utilizes the
// high parallelism and random access characteristics of PMEM".  Sweeps the
// bucket count for a metadata-heavy workload (many tiny variables from many
// ranks): too few buckets serialize metadata updates on long chains; enough
// buckets let rank-parallel latency-bound updates proceed independently.
// ---------------------------------------------------------------------------

void ablation_nbuckets(const Params&) {
  constexpr int kProcs = 24;
  constexpr int kVars = 500;  // 500 vars x 24 ranks = 12000 pieces + dims
  const auto dec = wk::decompose(static_cast<std::size_t>(kProcs) * 128,
                                 kProcs);  // tiny pieces: metadata dominates
  std::printf("ablation_nbuckets: %d tiny variables at %d procs "
              "(~%zu metadata entries)\n",
              kVars, kProcs,
              static_cast<std::size_t>(kVars) * (kProcs + 1));
  std::printf("%-10s %12s %16s\n", "nbuckets", "write(s)", "entries/bucket");

  // 64 buckets already chains ~195 entries per bucket; the sweep starts
  // there so its rows stay comparable with the recorded ones.
  for (const std::size_t nb : {64ull, 256ull, 4096ull, 65536ull}) {
    PmemNode::Options o;
    o.capacity = 1ull << 30;
    o.pool_fraction = 0.9;
    PmemNode node(o);
    pmemcpy::Config cfg;
    cfg.node = &node;
    cfg.nbuckets = nb;
    cfg.auto_grow_table = false;  // the sweep pins the bucket count
    const double t =
        pmcpy_write(cfg, "/b" + std::to_string(nb), "", dec, kVars, kProcs);
    const double load =
        static_cast<double>(kVars) * (kProcs + 1) / static_cast<double>(nb);
    std::printf("%-10zu %12.4f %16.1f\n", nb, t, load);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: long chains (few buckets) pay linear key "
              "walks per insert — latency-bound PMEM reads — while large "
              "tables keep chains short and updates parallel.\n");
}

// ---------------------------------------------------------------------------
// BB-DRAIN: quantifies the paper's burst-buffer story (§3, Figure 1): the
// checkpoint lands in node-local PMEM at PMEM speed; the flush to the
// parallel filesystem happens asynchronously and overlaps with computation.
// Three strategies at 24 procs:
//   pmem-only    write the checkpoint to PMEM (what Figures 6/7 measure)
//   sync-pfs     write to PMEM, then block until the PFS flush completes
//   async-drain  write to PMEM, trigger the drain, compute for T seconds,
//                then wait — the visible flush cost is max(0, drain - T)
// ---------------------------------------------------------------------------

void bb_drain(const Params& p) {
  constexpr int kProcs = 24;
  const auto dec = wk::decompose(p.elems_per_var(), kProcs);
  const std::size_t bytes = dec.total_elements() * sizeof(double) *
                            static_cast<std::size_t>(p.nvars);
  std::printf("bb_drain: %.3f GiB checkpoint at %d procs\n",
              static_cast<double>(bytes) / (1ull << 30), kProcs);

  auto node = make_node(IoLib::kPmcpyA, bytes);
  pmemcpy::pfs::ParallelFileSystem pfs;
  pmemcpy::Config cfg;
  cfg.node = node.get();
  double drain = 0;  // drain duration on the agent timeline
  const double pmem_write = pmcpy_write(
      cfg, "/bb.pmem", "", dec, p.nvars, kProcs, domain,
      [&](pmemcpy::PMEM& pmem, pmemcpy::par::Comm& comm) {
        comm.barrier();
        if (comm.rank() == 0) {
          pmemcpy::bb::BurstBuffer bb(pfs);
          drain = bb.drain(pmem, "ckpt").duration();
        }
      });

  std::printf("\n%-44s %10s\n", "strategy", "visible s");
  std::printf("%-44s %10.4f\n", "pmem-only (checkpoint latency, Fig.6)",
              pmem_write);
  std::printf("%-44s %10.4f\n", "sync-pfs flush (no burst buffer)",
              pmem_write + drain);
  for (const double compute : {0.0, drain / 2, drain, 2 * drain}) {
    const double visible =
        pmem_write + compute + std::max(0.0, drain - compute);
    std::printf("async-drain + %6.4f s compute overlap %14.4f\n", compute,
                visible);
  }
  std::printf("\ndrain duration (agent timeline): %.4f s — hidden entirely "
              "once the next compute phase is at least that long.\n",
              drain);
  std::printf("PFS is the slow tier: flushing costs %.1fx the PMEM "
              "checkpoint itself.\n",
              drain / pmem_write);
}

// ---------------------------------------------------------------------------
// READ-PATTERNS: extension experiment.  Figure 7 measures only the
// symmetric restart read; the paper's own motivation cites the "six degrees
// of scientific data" reading patterns (Lofstead et al. 2011): analysis
// jobs read planes, subvolumes, and restart with a different process count.
// This phase sweeps those patterns across the libraries at 24 writer procs,
// quantifying how each storage layout copes with non-symmetric access.
//
//   restart      each of 24 ranks reads exactly what it wrote (Fig. 7)
//   restart-12   12 ranks restart from a 24-rank checkpoint (2 pieces each)
//   plane-x      every rank reads one full x-plane (crosses many pieces)
//   subvolume    every rank reads a centred 1/8th subvolume
//
// Each library's store is opened ONCE per rank and every pattern is timed
// as a sim-clock delta inside that session, so the open/recovery cost is
// paid once and the pMEMCPY read cache (Config::read_cache_bytes) keeps
// what earlier patterns loaded: pieces cached by earlier patterns
// accelerate the later overlapping ones, and the per-pattern cache/copy
// counter deltas printed below make that visible.  Tracing is on only
// around the pattern reads, for those counters.
// ---------------------------------------------------------------------------

struct Pattern {
  const char* name;
  int readers;
  std::function<Box(const wk::Decomposition&, int)> want;
};

struct PatternStats {
  double time = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hit_bytes = 0;
  std::uint64_t read_direct = 0;
  std::uint64_t read_staged = 0;
};

std::uint64_t ctr(pmemcpy::trace::Counter c) {
  return pmemcpy::trace::counter(c);
}

/// One session per rank; every pattern timed as a clock delta inside it.
void run_patterns(IoLib lib, PmemNode& node, const wk::Decomposition& dec,
                  int nvars, std::span<const Pattern> patterns,
                  std::span<PatternStats> stats) {
  namespace trace = pmemcpy::trace;
  node.device().reset_page_touches();
  pmemcpy::par::Runtime::run(24, [&](pmemcpy::par::Comm& comm) {
    std::unique_ptr<pmemcpy::PMEM> pmem;
    std::unique_ptr<miniio::Reader> reader;
    if (is_pmcpy(lib)) {
      auto cfg = pmcpy_config(lib, node);
      // Arm the DRAM read cache (per handle, so per rank).
      cfg.read_cache_bytes = 32u << 20;
      pmem = std::make_unique<pmemcpy::PMEM>(cfg);
      pmem->mmap("/fig.pmem", comm);
    } else {
      reader = miniio::open_reader(miniio_library(lib), node, "/fig.out", comm);
    }
    std::vector<double> buf;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      // Quiescent point: the previous pattern's allreduce has completed on
      // every rank, so rank 0's counter snapshot here is race-free.
      PatternStats before;
      if (comm.rank() == 0) {
        before.cache_hits = ctr(trace::Counter::kReadCacheHits);
        before.cache_misses = ctr(trace::Counter::kReadCacheMisses);
        before.cache_hit_bytes = ctr(trace::Counter::kReadCacheHitBytes);
        before.read_direct = ctr(trace::Counter::kCopyReadDirectBytes);
        before.read_staged = ctr(trace::Counter::kCopyReadStagedBytes);
      }
      comm.barrier();
      const double worst = comm.timed_max([&] {
        if (comm.rank() < patterns[i].readers) {
          const Box want = patterns[i].want(dec, comm.rank());
          buf.resize(want.elements());
          for (int v = 0; v < nvars; ++v) {
            if (pmem) {
              pmem->load(var_name(v), buf.data(), 3, want.offset.data(),
                         want.count.data());
            } else {
              reader->read(var_name(v), buf.data(), want);
            }
            if (wk::verify_box(buf, v, dec.global, want) != 0) {
              throw std::runtime_error(std::string(name(lib)) + ": " +
                                       patterns[i].name +
                                       ": verification failed");
            }
          }
        } else if (reader) {
          // The contiguous readers' read() is a collective two-phase
          // shuffle, and non-reading ranks still own stripes the readers
          // need — they must participate with an empty request.  pMEMCPY
          // loads are independent, so the pmem branch simply sits out.
          const Box none({0, 0, 0}, {0, 0, 0});
          double dummy = 0.0;
          for (int v = 0; v < nvars; ++v) {
            reader->read(var_name(v), &dummy, none);
          }
        }
      });
      if (comm.rank() == 0) {
        stats[i].time = worst;
        stats[i].cache_hits =
            ctr(trace::Counter::kReadCacheHits) - before.cache_hits;
        stats[i].cache_misses =
            ctr(trace::Counter::kReadCacheMisses) - before.cache_misses;
        stats[i].cache_hit_bytes =
            ctr(trace::Counter::kReadCacheHitBytes) - before.cache_hit_bytes;
        stats[i].read_direct =
            ctr(trace::Counter::kCopyReadDirectBytes) - before.read_direct;
        stats[i].read_staged =
            ctr(trace::Counter::kCopyReadStagedBytes) - before.read_staged;
      }
    }
    if (pmem) pmem->munmap();
    if (reader) reader->close();
  });
}

void read_patterns(const Params& p) {
  namespace trace = pmemcpy::trace;
  constexpr int kWriters = 24;
  const auto dec = wk::decompose(p.elems_per_var(), kWriters);
  const std::size_t bytes = dec.total_elements() * sizeof(double) *
                            static_cast<std::size_t>(p.nvars);
  std::printf("read_patterns: %.3f GiB written by %d procs\n",
              static_cast<double>(bytes) / (1ull << 30), kWriters);

  const Pattern patterns[] = {
      {"restart (symmetric)", kWriters,
       [](const wk::Decomposition& d, int r) {
         return d.rank_boxes[static_cast<std::size_t>(r)];
       }},
      {"restart-12 (half the ranks)", 12,
       [](const wk::Decomposition& d, int r) {
         // Rank r re-reads writer boxes 2r and 2r+1 merged along dim 0 when
         // adjacent; otherwise reads their bounding box.
         const Box& a = d.rank_boxes[static_cast<std::size_t>(2 * r)];
         const Box& b = d.rank_boxes[static_cast<std::size_t>(2 * r + 1)];
         Box out;
         out.offset.resize(3);
         out.count.resize(3);
         for (std::size_t i = 0; i < 3; ++i) {
           const std::size_t lo = std::min(a.offset[i], b.offset[i]);
           const std::size_t hi = std::max(a.offset[i] + a.count[i],
                                           b.offset[i] + b.count[i]);
           out.offset[i] = lo;
           out.count[i] = hi - lo;
         }
         return out;
       }},
      {"plane-x (one x-plane each)", kWriters,
       [](const wk::Decomposition& d, int r) {
         return Box({static_cast<std::size_t>(r) % d.global[0], 0, 0},
                    {1, d.global[1], d.global[2]});
       }},
      {"subvolume (centred 1/8th)", kWriters,
       [](const wk::Decomposition& d, int) {
         return Box({d.global[0] / 4, d.global[1] / 4, d.global[2] / 4},
                    {d.global[0] / 2, d.global[1] / 2, d.global[2] / 2});
       }},
  };
  constexpr std::size_t kNumPatterns = std::size(patterns);

  // One populated node per library, reused across patterns.
  std::map<IoLib, std::unique_ptr<PmemNode>> nodes;
  for (const IoLib lib : kAllLibs) {
    nodes[lib] = make_node(lib, bytes);
    (void)run_write(lib, *nodes[lib], dec, p.nvars, kWriters);
  }
  std::map<IoLib, std::vector<PatternStats>> stats;
  const bool tracing = trace::enabled();
  trace::set_enabled(true);
  for (const IoLib lib : kAllLibs) {
    stats[lib].resize(kNumPatterns);
    run_patterns(lib, *nodes[lib], dec, p.nvars, patterns, stats[lib]);
  }
  trace::set_enabled(tracing);

  std::printf("%-30s", "pattern");
  for (const IoLib lib : kAllLibs) std::printf("%12s", name(lib));
  std::printf("\n");
  for (std::size_t i = 0; i < kNumPatterns; ++i) {
    std::printf("%-30s", patterns[i].name);
    for (const IoLib lib : kAllLibs) {
      std::printf("%12.4f", stats[lib][i].time);
    }
    std::printf("\n");
  }
  // Per-pattern read-cache and copy-direction deltas for the pMEMCPY
  // stacks: the cache warms across patterns within the open session, so
  // later overlapping patterns should show hits (EXPERIMENTS.md).
  for (const IoLib lib : {IoLib::kPmcpyA, IoLib::kPmcpyB}) {
    for (std::size_t i = 0; i < kNumPatterns; ++i) {
      const auto& s = stats[lib][i];
      std::printf("cache,%s,%s,hits=%llu,misses=%llu,hit_bytes=%llu,"
                  "rd_direct=%llu,rd_staged=%llu\n",
                  name(lib), patterns[i].name,
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.cache_misses),
                  static_cast<unsigned long long>(s.cache_hit_bytes),
                  static_cast<unsigned long long>(s.read_direct),
                  static_cast<unsigned long long>(s.read_staged));
    }
  }
  std::printf("\nExpected shape: log-structured stores (pMEMCPY, ADIOS) win "
              "the symmetric patterns outright; the contiguous layouts "
              "close some of the gap on planes/subvolumes (their layout "
              "matches the access), as the six-degrees paper observed.\n");
}

// ---------------------------------------------------------------------------
// Phase table
// ---------------------------------------------------------------------------

struct Phase {
  const char* name;
  void (*run)(const Params&);
};

constexpr Phase kPhases[] = {
    {"fig6_write", fig6_write},
    {"fig7_read", fig7_read},
    {"api_complexity", api_complexity},
    {"ablation_mapsync", ablation_mapsync},
    {"ablation_filters", ablation_filters},
    {"ablation_chunking", ablation_chunking},
    {"ablation_staging", ablation_staging},
    {"ablation_serializers", ablation_serializers},
    {"ablation_layout", ablation_layout},
    {"ablation_nbuckets", ablation_nbuckets},
    {"bb_drain", bb_drain},
    {"read_patterns", read_patterns},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Phase*> todo;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kPhases), std::end(kPhases),
        [&](const Phase& ph) { return std::strcmp(ph.name, argv[i]) == 0; });
    if (it == std::end(kPhases)) {
      std::fprintf(stderr, "figures: unknown phase '%s'\nphases:", argv[i]);
      for (const Phase& ph : kPhases) std::fprintf(stderr, " %s", ph.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    todo.push_back(&*it);
  }
  if (todo.empty()) {
    for (const Phase& ph : kPhases) todo.push_back(&ph);
  }
  const Params p = params_from_env();
  for (const Phase* ph : todo) {
    try {
      ph->run(p);
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "figures: %s: %s\n", ph->name, e.what());
      return 1;
    }
  }
  return 0;
}
