// Cost-model constants for the simulated testbed.
//
// The paper's evaluation ran on a Chameleon Cloud "Compute Skylake" node
// (2x Xeon Gold 6126, 24 cores / 48 threads, 192 GB DRAM) with PMEM emulated
// from DRAM following the Strata methodology: 300 ns read latency, 125 ns
// write latency, 30 GB/s read bandwidth, 8 GB/s write bandwidth.  We encode
// that machine here and charge every data movement against it on a simulated
// clock, which makes results deterministic and host-independent.
#pragma once

#include <cstddef>

namespace pmemcpy::sim {

/// CPU/DRAM side of the machine model.
struct MachineModel {
  /// Physical cores; bandwidth-bound work stops scaling past this.
  int physical_cores = 24;
  /// Hardware threads; latency-bound work keeps scaling to this.
  int hardware_threads = 48;
  /// Single-thread copy/serialize bandwidth (bytes/s).  Calibrated so that
  /// aggregate copy throughput saturates right at 24 physical cores
  /// (24 x 2.5 GB/s = 60 GB/s), reproducing the paper's observation that
  /// concurrency benefits wear off at the core count.
  double dram_stream_bw = 2.5e9;
  /// Aggregate DRAM bandwidth across all cores (bytes/s).
  double dram_total_bw = 60.0e9;
  /// Fixed cost of entering/leaving the kernel once.
  double syscall_cost = 1.2e-6;
  /// Minor page-fault service cost (first touch of a mapped page).
  double minor_fault_cost = 0.5e-6;
  /// Page size used for fault accounting.
  std::size_t page_size = 4096;
};

/// Emulated persistent-memory device (Strata / van Renen constants).
struct PmemModel {
  double read_latency = 300e-9;
  double write_latency = 125e-9;
  /// Aggregate device bandwidth (bytes/s).
  double read_total_bw = 30.0e9;
  double write_total_bw = 8.0e9;
  /// Per-thread streaming cap: one core cannot saturate the device.
  double read_stream_bw = 10.0e9;
  double write_stream_bw = 4.0e9;
  /// Cost of a persist barrier (CLWB+SFENCE over dirtied lines, amortised
  /// per 64B line; flushes overlap with streaming stores, so the marginal
  /// cost per line is small — the bandwidth model carries the bulk cost).
  double persist_line_cost = 1e-9;
  /// Fixed cost of a drain (SFENCE) operation.
  double drain_cost = 30e-9;
  /// MAP_SYNC: synchronous block-allocation fault charged on first touch of
  /// every 4 KiB page of a writable mapping.  Latency-bound, so it keeps
  /// parallelising up to the SMT thread count — why the paper's PMCPY-B
  /// keeps improving past 24 cores while everything else flattens.
  double map_sync_page_cost = 2.0e-6;
  /// MAP_SYNC: effective write-bandwidth derating while the flag is on
  /// (per-cacheline write-through behaviour).
  double map_sync_write_bw_factor = 0.75;
  /// MAP_SYNC: read-side derating on such mappings (reads fault through the
  /// synchronous path too, losing the zero-copy benefit).
  double map_sync_read_bw_factor = 0.5;
  /// Queueing delay at a pool's serialized metadata path.  The allocator,
  /// its free lists and its undo lane sit behind one lock, so concurrent
  /// ranks serialize on every locked alloc/free — the µs-scale
  /// small-allocation critical section van Renen et al. and Marathe et al.
  /// measure for pmemobj-style heaps.  Charged per locked metadata op and
  /// per expected contender beyond the first
  /// (Pool::set_expected_contenders, DESIGN.md §14).
  /// 0.1 µs keeps the charge at 48 ranks within the figure benches'
  /// millisecond print resolution.
  double pool_op_queue_cost = 0.1e-6;
};

/// Intra-node transport the MPI-like runtime charges (shared-memory BTL).
struct NetworkModel {
  /// Per-message latency (matching/queueing/rendezvous).
  double latency = 2.0e-6;
  /// Single-pair streaming bandwidth (bytes/s).  Calibrated to saturate the
  /// transport at 24 ranks (24 x 0.5 GB/s = 12 GB/s).
  double stream_bw = 0.5e9;
  /// Aggregate transport bandwidth (bytes/s); shuffles contend for this.
  double total_bw = 12.0e9;
};

/// The full machine: everything cost-bearing in the repo charges via this.
struct CostModel {
  MachineModel cpu;
  PmemModel pmem;
  NetworkModel net;
};

/// The default (paper-testbed) model.
const CostModel& default_model();

}  // namespace pmemcpy::sim
