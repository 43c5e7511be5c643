// Contiguous-layout engine behind miniNetCDF4 and miniPNetCDF.
//
// Variables are stored as a single row-major global linearisation, so a
// rank's subarray is scattered across the file.  Writes and reads therefore
// run two-phase collective I/O (ROMIO-style):
//
//   write: pack local rows per destination aggregator  ->  alltoallv shuffle
//          ->  aggregators assemble their contiguous file stripe  ->  POSIX
//          pwrite.
//   read:  ranks send run requests to stripe owners  ->  owners POSIX pread
//          their stripe  ->  pack responses  ->  alltoallv  ->  ranks unpack.
//
// This is exactly the "network communications and data copying costs" the
// paper blames for NetCDF/pNetCDF's 2.5x/5x gap.  NetCDF-4 mode adds an
// HDF5-style internal staging pass per stripe and (without NC_NOFILL)
// fill-value initialisation at variable definition.
#include "common.hpp"

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstring>

namespace miniio {

namespace {

using detail::lin_to_coord;
using detail::product;
using detail::Run;
using pmemcpy::fs::OpenMode;

constexpr std::uint64_t kDataStart = 4096;  // header block, like netCDF
constexpr double kFillValue = 9.96920996838687e+36;  // NC_FILL_DOUBLE

struct VarToc {
  std::string name;
  std::vector<std::uint64_t> global;
  std::vector<std::uint64_t> chunk;  // chunk dims; empty = contiguous
  std::uint64_t base = 0;  // byte offset of element 0 in the file

  template <class Ar>
  void serialize(Ar& ar) {
    ar(name, global, chunk, base);
  }
};

/// Maps array coordinates to file element offsets.  Contiguous layout is
/// the degenerate case of HDF5-style chunking with one chunk covering the
/// whole array; edge chunks are padded to full capacity, as in HDF5.
struct ChunkMap {
  Dimensions global;
  Dimensions chunk;
  Dimensions grid;            // chunks per dimension
  std::size_t chunk_cap = 1;  // elements per chunk (padded)
  std::size_t total = 0;      // file elements incl. padding

  ChunkMap(const Dimensions& g, const Dimensions& c) : global(g) {
    chunk = c.empty() ? g : c;
    grid.resize(g.size());
    std::size_t nchunks = 1;
    for (std::size_t d = 0; d < g.size(); ++d) {
      if (chunk[d] == 0 || chunk[d] > g[d]) chunk[d] = g[d];
      grid[d] = (g[d] + chunk[d] - 1) / chunk[d];
      nchunks *= grid[d];
      chunk_cap *= chunk[d];
    }
    total = nchunks * chunk_cap;
  }

  [[nodiscard]] std::size_t file_off(const Dimensions& coord) const {
    std::size_t chunk_idx = 0, intra = 0;
    for (std::size_t d = 0; d < global.size(); ++d) {
      chunk_idx = chunk_idx * grid[d] + coord[d] / chunk[d];
      intra = intra * chunk[d] + coord[d] % chunk[d];
    }
    return chunk_idx * chunk_cap + intra;
  }

  [[nodiscard]] Dimensions coord_of(std::size_t file_off) const {
    std::size_t chunk_idx = file_off / chunk_cap;
    std::size_t intra = file_off % chunk_cap;
    Dimensions coord(global.size());
    for (std::size_t d = global.size(); d-- > 0;) {
      coord[d] = (chunk_idx % grid[d]) * chunk[d] + intra % chunk[d];
      chunk_idx /= grid[d];
      intra /= chunk[d];
    }
    return coord;
  }

  /// Visit the file-contiguous runs of @p box:
  /// fn(file_elem_off, elems, box_elem_off).  Runs never cross a chunk's
  /// last-dimension boundary.
  template <typename Fn>
  void for_each_file_run(const Box& box, Fn&& fn) const {
    const std::size_t nd = global.size();
    pmemcpy::for_each_row(
        global, box,
        [&](std::size_t, std::size_t elems, std::size_t box_off) {
          // Recover the row's starting coordinate from its box offset.
          Dimensions coord(nd);
          std::size_t rem = box_off;
          for (std::size_t d = nd; d-- > 0;) {
            coord[d] = box.offset[d] + rem % box.count[d];
            rem /= box.count[d];
          }
          // Split the row at chunk boundaries along the last dim.
          while (elems > 0) {
            const std::size_t last = nd - 1;
            const std::size_t in_chunk =
                chunk[last] - (coord[last] % chunk[last]);
            const std::size_t take = std::min(elems, in_chunk);
            fn(file_off(coord), take, box_off);
            coord[last] += take;
            box_off += take;
            elems -= take;
          }
        });
  }
};

struct RunHeader {
  std::uint64_t lin;
  std::uint64_t elems;
};

/// Stripe r of a variable with @p total elements across @p nranks.
struct Stripe {
  std::uint64_t lo, hi;  // element range [lo, hi)
};
Stripe stripe_of(std::uint64_t total, int nranks, int r) {
  const std::uint64_t per = (total + static_cast<std::uint64_t>(nranks) - 1) /
                            static_cast<std::uint64_t>(nranks);
  const std::uint64_t lo =
      std::min<std::uint64_t>(per * static_cast<std::uint64_t>(r), total);
  const std::uint64_t hi = std::min<std::uint64_t>(lo + per, total);
  return {lo, hi};
}
int owner_of(std::uint64_t total, int nranks, std::uint64_t lin) {
  const std::uint64_t per = (total + static_cast<std::uint64_t>(nranks) - 1) /
                            static_cast<std::uint64_t>(nranks);
  return static_cast<int>(lin / per);
}

/// Exchange per-destination byte buffers (counts exchanged via allgather).
struct Exchanged {
  std::vector<std::byte> data;
  std::vector<std::size_t> counts;  // per source
  std::vector<std::size_t> displs;
};
Exchanged alltoall_bytes(pmemcpy::par::Comm& comm,
                         const std::vector<std::vector<std::byte>>& send) {
  const auto n = static_cast<std::size_t>(comm.size());
  std::vector<std::uint64_t> my_counts(n);
  for (std::size_t i = 0; i < n; ++i) my_counts[i] = send[i].size();
  std::vector<std::uint64_t> matrix(n * n);
  comm.allgather(my_counts.data(), n * sizeof(std::uint64_t), matrix.data());

  Exchanged out;
  out.counts.resize(n);
  out.displs.resize(n);
  std::size_t total = 0;
  for (std::size_t src = 0; src < n; ++src) {
    out.counts[src] = matrix[src * n + static_cast<std::size_t>(comm.rank())];
    out.displs[src] = total;
    total += out.counts[src];
  }
  out.data.resize(total);

  std::vector<std::byte> flat;
  std::vector<std::size_t> scounts(n), sdispls(n);
  std::size_t stotal = 0;
  for (std::size_t d = 0; d < n; ++d) {
    scounts[d] = send[d].size();
    sdispls[d] = stotal;
    stotal += scounts[d];
  }
  flat.resize(stotal);
  for (std::size_t d = 0; d < n; ++d) {
    std::memcpy(flat.data() + sdispls[d], send[d].data(), scounts[d]);
  }
  // The collective-buffer coalescing copy is a real pass over the data.
  pmemcpy::sim::ctx().charge_cpu_copy(stotal);
  comm.alltoallv(flat.data(), scounts, sdispls, out.data.data(), out.counts,
                 out.displs);
  return out;
}

class ContiguousWriter final : public Writer {
 public:
  void set_chunk(const Dimensions& chunk_dims) override {
    chunk_dims_ = chunk_dims;
  }

  ContiguousWriter(pmemcpy::PmemNode& node, std::string path,
                   pmemcpy::par::Comm& comm, bool hdf5, bool nofill)
      : fs_(&node.fs()),
        path_(std::move(path)),
        comm_(&comm),
        hdf5_(hdf5),
        nofill_(nofill) {
    if (comm_->rank() == 0) {
      file_ = fs_->open(path_, OpenMode::kTruncate);
    }
    comm_->barrier();
    if (comm_->rank() != 0) {
      file_ = fs_->open(path_, OpenMode::kWrite);
    }
  }

  void write(const std::string& name, const double* data, const Box& local,
             const Dimensions& global) override {
    const VarToc& var = define(name, global);
    const ChunkMap map(global,
                       Dimensions(var.chunk.begin(), var.chunk.end()));
    const std::uint64_t total = map.total;
    const int n = comm_->size();
    auto& c = pmemcpy::sim::ctx();

    // Phase 1: pack file runs per destination aggregator.
    std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(n));
    std::size_t packed = 0;
    map.for_each_file_run(
        local, [&](std::size_t lin, std::size_t elems, std::size_t box_off) {
          while (elems > 0) {
            const int dest = owner_of(total, n, lin);
            const Stripe s = stripe_of(total, n, dest);
            const std::uint64_t take =
                std::min<std::uint64_t>(elems, s.hi - lin);
            RunHeader h{lin, take};
            auto& buf = send[static_cast<std::size_t>(dest)];
            const std::size_t at = buf.size();
            buf.resize(at + sizeof(h) + take * sizeof(double));
            std::memcpy(buf.data() + at, &h, sizeof(h));
            std::memcpy(buf.data() + at + sizeof(h), data + box_off,
                        take * sizeof(double));
            packed += take * sizeof(double);
            lin += take;
            box_off += take;
            elems -= take;
          }
        });
    c.charge_cpu_copy(packed);
    // The pack pass is this library's DRAM staging copy; the audit
    // (bench/audit) contrasts it with pMEMCPY's direct path.
    namespace trace = pmemcpy::trace;
    if (packed > 0) trace::count(trace::Counter::kCopyStagedPuts);
    trace::count(trace::Counter::kCopyStagedBytes, packed);

    // Phase 2: shuffle.
    Exchanged recv = alltoall_bytes(*comm_, send);

    // Phase 3: assemble my stripe and write it.
    const Stripe mine = stripe_of(total, n, comm_->rank());
    if (mine.hi > mine.lo) {
      std::vector<double> stripe(mine.hi - mine.lo);
      std::uint64_t rmin = mine.hi, rmax = mine.lo;
      if (!nofill_) {
        std::fill(stripe.begin(), stripe.end(), kFillValue);
        c.charge_cpu_copy(stripe.size() * sizeof(double));
        rmin = mine.lo;
        rmax = mine.hi;
      }
      std::size_t assembled = 0;
      std::size_t pos = 0;
      while (pos + sizeof(RunHeader) <= recv.data.size()) {
        RunHeader h{};
        std::memcpy(&h, recv.data.data() + pos, sizeof(h));
        pos += sizeof(h);
        std::memcpy(stripe.data() + (h.lin - mine.lo),
                    recv.data.data() + pos, h.elems * sizeof(double));
        pos += h.elems * sizeof(double);
        assembled += h.elems * sizeof(double);
        rmin = std::min(rmin, h.lin);
        rmax = std::max(rmax, h.lin + h.elems);
      }
      c.charge_cpu_copy(assembled);
      trace::count(trace::Counter::kCopyStagedBytes, assembled);
      if (rmax > rmin) {
        if (hdf5_) {
          // HDF5 internal scatter/gather staging pass over the stripe.
          c.charge_cpu_copy((rmax - rmin) * sizeof(double));
          trace::count(trace::Counter::kCopyStagedBytes,
                       (rmax - rmin) * sizeof(double));
        }
        fs_->pwrite(file_, stripe.data() + (rmin - mine.lo),
                    (rmax - rmin) * sizeof(double),
                    var.base + rmin * sizeof(double));
      }
    } else {
      // Still participate in the barrier semantics of the collective.
      (void)recv;
    }
    comm_->barrier();
  }

  void close() override {
    if (comm_->rank() == 0) {
      pmemcpy::serial::BufferSink footer;
      pmemcpy::serial::BinaryWriter w(footer);
      w(vars_);
      detail::write_footer(*fs_, file_, next_base_, footer.bytes());
    }
    comm_->barrier();
  }

 private:
  const VarToc& define(const std::string& name, const Dimensions& global) {
    for (const auto& v : vars_) {
      if (v.name == name) return v;
    }
    VarToc v;
    v.name = name;
    v.global.assign(global.begin(), global.end());
    if (!chunk_dims_.empty() && chunk_dims_.size() == global.size()) {
      v.chunk.assign(chunk_dims_.begin(), chunk_dims_.end());
    }
    v.base = next_base_;
    const std::uint64_t total =
        ChunkMap(global, Dimensions(v.chunk.begin(), v.chunk.end())).total;
    next_base_ += total * sizeof(double);
    vars_.push_back(std::move(v));
    const VarToc& ref = vars_.back();

    if (!nofill_) {
      // NetCDF fill mode: the variable is initialised with fill values at
      // definition (what NC_NOFILL suppresses).
      const Stripe mine = stripe_of(total, comm_->size(), comm_->rank());
      if (mine.hi > mine.lo) {
        std::vector<double> fill(mine.hi - mine.lo, kFillValue);
        pmemcpy::sim::ctx().charge_cpu_copy(fill.size() * sizeof(double));
        fs_->pwrite(file_, fill.data(), fill.size() * sizeof(double),
                    ref.base + mine.lo * sizeof(double));
      }
      comm_->barrier();
    }
    return ref;
  }

  pmemcpy::fs::FileSystem* fs_;
  std::string path_;
  pmemcpy::par::Comm* comm_;
  bool hdf5_;
  bool nofill_;
  pmemcpy::fs::File file_;
  std::vector<VarToc> vars_;
  std::uint64_t next_base_ = kDataStart;
  Dimensions chunk_dims_;  // applies to variables defined after set_chunk
};

class ContiguousReader final : public Reader {
 public:
  ContiguousReader(pmemcpy::PmemNode& node, std::string path,
                   pmemcpy::par::Comm& comm, bool hdf5)
      : fs_(&node.fs()), comm_(&comm), hdf5_(hdf5) {
    file_ = fs_->open(path, OpenMode::kRead);
    std::vector<std::byte> footer;
    std::uint64_t len = 0;
    if (comm_->rank() == 0) {
      footer = detail::read_footer(*fs_, file_);
      len = footer.size();
    }
    comm_->bcast(&len, sizeof(len), 0);
    footer.resize(len);
    comm_->bcast(footer.data(), len, 0);
    pmemcpy::serial::BufferSource src(footer);
    pmemcpy::serial::BinaryReader r(src);
    r(vars_);
  }

  Dimensions dims(const std::string& name) override {
    const VarToc& v = lookup(name);
    return Dimensions(v.global.begin(), v.global.end());
  }

  void read(const std::string& name, double* data, const Box& local) override {
    const VarToc& var = lookup(name);
    const Dimensions global(var.global.begin(), var.global.end());
    const ChunkMap map(global,
                       Dimensions(var.chunk.begin(), var.chunk.end()));
    const std::uint64_t total = map.total;
    const int n = comm_->size();
    auto& c = pmemcpy::sim::ctx();

    // Phase 1: send run *requests* to stripe owners.
    std::vector<std::vector<std::byte>> reqs(static_cast<std::size_t>(n));
    map.for_each_file_run(
        local, [&](std::size_t lin, std::size_t elems, std::size_t) {
          while (elems > 0) {
            const int dest = owner_of(total, n, lin);
            const Stripe s = stripe_of(total, n, dest);
            const std::uint64_t take =
                std::min<std::uint64_t>(elems, s.hi - lin);
            RunHeader h{lin, take};
            auto& buf = reqs[static_cast<std::size_t>(dest)];
            const std::size_t at = buf.size();
            buf.resize(at + sizeof(h));
            std::memcpy(buf.data() + at, &h, sizeof(h));
            lin += take;
            elems -= take;
          }
        });
    Exchanged incoming = alltoall_bytes(*comm_, reqs);

    // Phase 2: owners read their stripe range and pack responses.
    std::vector<std::vector<std::byte>> resp(static_cast<std::size_t>(n));
    const Stripe mine = stripe_of(total, n, comm_->rank());
    std::uint64_t need_lo = mine.hi, need_hi = mine.lo;
    for (std::size_t srcpos = 0; srcpos < incoming.counts.size(); ++srcpos) {
      std::size_t pos = incoming.displs[srcpos];
      const std::size_t end = pos + incoming.counts[srcpos];
      while (pos + sizeof(RunHeader) <= end) {
        RunHeader h{};
        std::memcpy(&h, incoming.data.data() + pos, sizeof(h));
        pos += sizeof(h);
        need_lo = std::min(need_lo, h.lin);
        need_hi = std::max(need_hi, h.lin + h.elems);
      }
    }
    std::vector<double> stripe;
    if (need_hi > need_lo) {
      stripe.resize(need_hi - need_lo);
      fs_->pread(file_, stripe.data(), stripe.size() * sizeof(double),
                 var.base + need_lo * sizeof(double));
      if (hdf5_) {
        // HDF5 internal scatter/gather staging pass over the stripe.
        c.charge_cpu_copy(stripe.size() * sizeof(double));
        pmemcpy::trace::count(pmemcpy::trace::Counter::kCopyReadStagedBytes,
                              stripe.size() * sizeof(double));
      }
    }
    std::size_t packed = 0;
    for (std::size_t src = 0; src < incoming.counts.size(); ++src) {
      std::size_t pos = incoming.displs[src];
      const std::size_t end = pos + incoming.counts[src];
      auto& buf = resp[src];
      while (pos + sizeof(RunHeader) <= end) {
        RunHeader h{};
        std::memcpy(&h, incoming.data.data() + pos, sizeof(h));
        pos += sizeof(h);
        const std::size_t at = buf.size();
        buf.resize(at + sizeof(h) + h.elems * sizeof(double));
        std::memcpy(buf.data() + at, &h, sizeof(h));
        std::memcpy(buf.data() + at + sizeof(h),
                    stripe.data() + (h.lin - need_lo),
                    h.elems * sizeof(double));
        packed += h.elems * sizeof(double);
      }
    }
    c.charge_cpu_copy(packed);
    // The response-pack pass is this library's DRAM staging bounce on the
    // read side; the audit contrasts it with pMEMCPY's in-place decode.
    pmemcpy::trace::count(pmemcpy::trace::Counter::kCopyReadStagedBytes,
                          packed);

    // Phase 3: shuffle back and unpack into the user buffer.
    Exchanged replies = alltoall_bytes(*comm_, resp);
    std::size_t unpacked = 0;
    std::size_t pos = 0;
    while (pos + sizeof(RunHeader) <= replies.data.size()) {
      RunHeader h{};
      std::memcpy(&h, replies.data.data() + pos, sizeof(h));
      pos += sizeof(h);
      const Dimensions coord = map.coord_of(h.lin);
      const std::size_t box_off = pmemcpy::box_linear_index(local, coord);
      std::memcpy(data + box_off, replies.data.data() + pos,
                  h.elems * sizeof(double));
      pos += h.elems * sizeof(double);
      unpacked += h.elems * sizeof(double);
    }
    c.charge_cpu_copy(unpacked);
    pmemcpy::trace::count(pmemcpy::trace::Counter::kCopyReadStagedBytes,
                          unpacked);
    if (unpacked != local.elements() * sizeof(double)) {
      throw pmemcpy::fs::FsError("miniio: contiguous read incomplete for " +
                                 name);
    }
    comm_->barrier();
  }

  void close() override { comm_->barrier(); }

 private:
  const VarToc& lookup(const std::string& name) const {
    for (const auto& v : vars_) {
      if (v.name == name) return v;
    }
    throw pmemcpy::fs::FsError("miniio: unknown variable: " + name);
  }

  pmemcpy::fs::FileSystem* fs_;
  pmemcpy::par::Comm* comm_;
  bool hdf5_;
  pmemcpy::fs::File file_;
  std::vector<VarToc> vars_;
};

}  // namespace

std::unique_ptr<Writer> make_contiguous_writer(pmemcpy::PmemNode& node,
                                               const std::string& path,
                                               pmemcpy::par::Comm& comm,
                                               bool hdf5_overheads,
                                               bool nofill) {
  return std::make_unique<ContiguousWriter>(node, path, comm, hdf5_overheads,
                                            nofill);
}

std::unique_ptr<Reader> make_contiguous_reader(pmemcpy::PmemNode& node,
                                               const std::string& path,
                                               pmemcpy::par::Comm& comm,
                                               bool hdf5_overheads) {
  return std::make_unique<ContiguousReader>(node, path, comm, hdf5_overheads);
}

std::string to_string(Library lib) {
  switch (lib) {
    case Library::kAdios: return "ADIOS";
    case Library::kNetcdf4: return "NetCDF";
    case Library::kPnetcdf: return "pNetCDF";
  }
  return "?";
}

std::unique_ptr<Writer> open_writer(Library lib, pmemcpy::PmemNode& node,
                                    const std::string& path,
                                    pmemcpy::par::Comm& comm, Options opts) {
  switch (lib) {
    case Library::kAdios:
      return make_adios_writer(node, path, comm);
    case Library::kNetcdf4:
      return make_contiguous_writer(node, path, comm, /*hdf5=*/true,
                                    opts.nofill);
    case Library::kPnetcdf:
      return make_contiguous_writer(node, path, comm, /*hdf5=*/false,
                                    /*nofill=*/true);
  }
  throw std::invalid_argument("miniio: unknown library");
}

std::unique_ptr<Reader> open_reader(Library lib, pmemcpy::PmemNode& node,
                                    const std::string& path,
                                    pmemcpy::par::Comm& comm, Options opts) {
  (void)opts;
  switch (lib) {
    case Library::kAdios:
      return make_adios_reader(node, path, comm);
    case Library::kNetcdf4:
      return make_contiguous_reader(node, path, comm, /*hdf5=*/true);
    case Library::kPnetcdf:
      return make_contiguous_reader(node, path, comm, /*hdf5=*/false);
  }
  throw std::invalid_argument("miniio: unknown library");
}

}  // namespace miniio
