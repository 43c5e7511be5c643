// Thread-based MPI-like parallel runtime.
//
// The paper runs 8-48 MPI ranks on a single node.  This sandbox has no MPI,
// so we provide an in-process runtime with the same semantics: Runtime::run
// spawns one thread per rank, each with its own simulated clock, and Comm
// offers the collectives the I/O libraries need (barrier, bcast, allgather,
// gatherv, alltoallv, reductions, exscan, send/recv).
//
// Data really moves between ranks (shared-memory memcpy, like an intra-node
// MPI BTL) and each movement charges the network cost model.  Collectives
// synchronise simulated clocks to the maximum across participants, so the
// time reported for a bulk-synchronous phase is its critical path.
//
// All counts and displacements are in BYTES.
#pragma once

#include <pmemcpy/ft/ft.hpp>
#include <pmemcpy/sim/context.hpp>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace pmemcpy::par {

namespace detail {
struct State;
}  // namespace detail

/// A rank's handle to the communicator.  Valid only inside Runtime::run.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Synchronise all ranks; clocks leave at max(entry) + barrier cost.
  void barrier();

  /// Replicate @p bytes from @p root's buffer into every rank's @p data.
  void bcast(void* data, std::size_t bytes, int root);

  /// Every rank contributes @p bytes; every rank receives all contributions
  /// concatenated in rank order into @p recv (size*bytes long).  Throws
  /// std::invalid_argument on every rank when the ranks' byte counts differ.
  void allgather(const void* send, std::size_t bytes, void* recv);

  /// Variable-size gather to @p root only (@p recv/@p counts/@p displs are
  /// ignored on other ranks).
  void gatherv(const void* send, std::size_t bytes, void* recv,
               std::span<const std::size_t> counts,
               std::span<const std::size_t> displs, int root);

  /// Personalised all-to-all exchange; the shuffle primitive the contiguous
  /// -layout baselines (NetCDF/pNetCDF) are built on.
  void alltoallv(const void* send, std::span<const std::size_t> scounts,
                 std::span<const std::size_t> sdispls, void* recv,
                 std::span<const std::size_t> rcounts,
                 std::span<const std::size_t> rdispls);

  /// Blocking eager-protocol point-to-point.
  void send(int dst, int tag, const void* data, std::size_t bytes);
  void recv(int src, int tag, void* data, std::size_t bytes);

  /// Exclusive prefix sum (rank 0 receives 0).
  [[nodiscard]] std::uint64_t exscan_sum(std::uint64_t v);

  /// Run @p body on this rank and return the slowest rank's elapsed
  /// simulated time (an allreduce_max, so it is also a barrier).  The
  /// clock reads live here in the par layer so benchmarks never touch the
  /// raw simulated clock; callers wanting a clean start line should
  /// barrier() first.
  [[nodiscard]] double timed_max(const std::function<void()>& body);

  template <typename T>
  [[nodiscard]] T allreduce_sum(T v) {
    return allreduce(v, [](T a, T b) { return a + b; });
  }
  template <typename T>
  [[nodiscard]] T allreduce_max(T v) {
    return allreduce(v, [](T a, T b) { return a < b ? b : a; });
  }

 private:
  friend class Runtime;
  Comm(detail::State& st, int rank, int size) noexcept
      : state_(&st), rank_(rank), size_(size) {}

  template <typename T, typename Op>
  T allreduce(T v, Op op) {
    std::vector<T> all(static_cast<std::size_t>(size_));
    allgather(&v, sizeof(T), all.data());
    T acc = all[0];
    for (int i = 1; i < size_; ++i) acc = op(acc, all[static_cast<std::size_t>(i)]);
    return acc;
  }

  detail::State* state_;
  int rank_;
  int size_;
};

/// Collective health agreement: every rank contributes its local state and
/// all observe the worst across the communicator (ft::Health is ordered with
/// kDegraded greatest), so one rank hitting exhausted media degrades every
/// rank's view at the same point in the program instead of ranks silently
/// diverging.
[[nodiscard]] inline ft::Health agree_health(Comm& comm, ft::Health local) {
  return static_cast<ft::Health>(comm.allreduce_max(static_cast<int>(local)));
}

/// Spawns rank threads and runs a function on each.
class Runtime {
 public:
  struct Result {
    /// Critical-path simulated time (max over ranks).
    double max_time = 0.0;
    /// Final simulated clock per rank.
    std::vector<double> rank_times;
  };

  /// Run @p fn as @p nranks ranks.  Each rank executes under its own
  /// sim::Context (installed thread-locally).  Rethrows the first rank
  /// exception after unblocking the others.
  static Result run(int nranks, const std::function<void(Comm&)>& fn,
                    const sim::CostModel& model = sim::default_model());
};

}  // namespace pmemcpy::par
