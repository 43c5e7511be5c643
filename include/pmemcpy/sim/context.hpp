// Per-rank simulated clock and charging helpers.
//
// Every rank (thread) of the parallel runtime owns a Context holding its
// simulated clock.  Modules (device, filesystem, communicator, serializers)
// charge costs to the *current* context, found through a thread-local
// pointer.  Code that runs outside the parallel runtime (unit tests, serial
// examples) uses its thread's own default context.
#pragma once

#include <pmemcpy/sim/model.hpp>

#include <cstddef>
#include <cstdint>

namespace pmemcpy::sim {

/// Cost categories, for introspection in tests and benches.
enum class Charge : int {
  kCpuCopy = 0,     ///< DRAM<->DRAM movement
  kPmemRead,        ///< device reads
  kPmemWrite,       ///< device writes
  kPmemPersist,     ///< persist/drain barriers
  kNetwork,         ///< messages through the communicator
  kSyscall,         ///< kernel crossings
  kPageFault,       ///< mapping faults (incl. MAP_SYNC sync faults)
  kPfs,             ///< parallel-filesystem transfers (burst-buffer drain)
  kOther,
  kRetryBackoff,    ///< waits between device fault-retry attempts
  kNumCharges,
};

/// Per-rank simulated clock + cost accounting.
class Context {
 public:
  /// @param model     cost constants (must outlive the context)
  /// @param nranks    communicator size this rank belongs to (for
  ///                  bandwidth-sharing); 1 for serial code
  /// @param rank      this rank's id
  explicit Context(const CostModel& model = default_model(), int nranks = 1,
                   int rank = 0) noexcept
      : model_(&model), nranks_(nranks), rank_(rank) {}

  [[nodiscard]] const CostModel& model() const noexcept { return *model_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Simulated seconds elapsed on this rank.
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Force the clock (used by collectives to synchronise to a max).
  void set_now(double t) noexcept { now_ = t; }
  /// Jump forward to @p t, attributing the wait to @p why.  Unlike
  /// set_now(), the skipped time stays visible in charged(), so span
  /// charge-category deltas keep summing to wall time across collectives.
  void sync_to(double t, Charge why) noexcept {
    if (t > now_) {
      charged_[static_cast<int>(why)] += t - now_;
      now_ = t;
    }
  }
  void advance(double seconds, Charge why = Charge::kOther) noexcept {
    now_ += seconds;
    charged_[static_cast<int>(why)] += seconds;
  }
  void reset_clock() noexcept {
    now_ = 0.0;
    for (auto& c : charged_) c = 0.0;
  }
  /// Total simulated seconds attributed to a category.
  [[nodiscard]] double charged(Charge why) const noexcept {
    return charged_[static_cast<int>(why)];
  }

  // --- derived machine quantities -----------------------------------------

  /// Time-slicing factor for bandwidth-bound compute.  Up to the physical
  /// core count every rank runs at full speed; beyond it, ranks share cores,
  /// with SMT contributing a diminishing-returns bonus (each hyperthread
  /// adds ~25% of a core).  Smooth and monotone, so sweeps over the rank
  /// count have no artificial cliffs.
  [[nodiscard]] double cpu_slowdown() const noexcept {
    const auto cores = static_cast<double>(model_->cpu.physical_cores);
    const auto threads = static_cast<double>(model_->cpu.hardware_threads);
    const auto k = static_cast<double>(nranks_);
    if (k <= cores) return 1.0;
    const double smt = (k < threads ? k : threads) - cores;
    const double effective = cores + 0.25 * smt;
    return k / effective;
  }

  /// Effective parallelism for latency-bound work (scales to SMT threads).
  [[nodiscard]] int latency_parallelism() const noexcept {
    const int t = model_->cpu.hardware_threads;
    return nranks_ < t ? nranks_ : t;
  }

  /// Per-rank effective bandwidth of a shared resource with a single-stream
  /// cap: min(stream/slowdown, total/nranks).
  [[nodiscard]] double shared_bw(double stream_bw,
                                 double total_bw) const noexcept {
    const double per_stream = stream_bw / cpu_slowdown();
    const double fair_share = total_bw / static_cast<double>(nranks_);
    return per_stream < fair_share ? per_stream : fair_share;
  }

  // --- charging helpers -----------------------------------------------------

  /// DRAM-to-DRAM copy of @p bytes (pack/unpack, staging buffers, memcpy).
  void charge_cpu_copy(std::size_t bytes) noexcept {
    const auto& m = model_->cpu;
    advance(static_cast<double>(bytes) /
                shared_bw(m.dram_stream_bw, m.dram_total_bw),
            Charge::kCpuCopy);
  }

  /// One kernel crossing.
  void charge_syscall() noexcept {
    advance(model_->cpu.syscall_cost, Charge::kSyscall);
  }

  /// @p n minor page faults.
  void charge_minor_faults(std::size_t n) noexcept {
    advance(static_cast<double>(n) * model_->cpu.minor_fault_cost,
            Charge::kPageFault);
  }

 private:
  const CostModel* model_;
  int nranks_;
  int rank_;
  double now_ = 0.0;
  double charged_[static_cast<int>(Charge::kNumCharges)] = {};
};

/// The context of the calling thread (a rank's context inside the parallel
/// runtime, else the thread's default).
Context& ctx() noexcept;

/// The calling thread's default context (what ctx() returns outside any
/// scope).  One per thread, so unscoped threads never share a clock.
Context& default_context() noexcept;

/// RAII: install @p c as the calling thread's current context.
class ScopedContext {
 public:
  explicit ScopedContext(Context& c) noexcept;
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
};

}  // namespace pmemcpy::sim
