// Shared vocabulary of the repository benchmark (perfbench/README.md).
//
// The benchmark drives pMEMCPY only through its public API, from one
// process, with kRanks rank threads of par::Runtime in a closed loop.
// Every input derives from the --seed argument; every loaded value is
// checked against the seeded generator.
#pragma once

#include <pmemcpy/pmemcpy.hpp>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace perfbench {

using pmemcpy::Box;
using pmemcpy::Dimensions;
using pmemcpy::PmemNode;

/// Ranks of every workload: one per host core of the reference machine,
/// never more ranks than cores.
inline constexpr int kRanks = 4;
inline constexpr int kNumCharges =
    static_cast<int>(pmemcpy::sim::Charge::kNumCharges);
inline constexpr int kNumCounters =
    static_cast<int>(pmemcpy::trace::Counter::kNumCounters);
inline constexpr int kNumHists =
    static_cast<int>(pmemcpy::trace::Hist::kNumHists);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- seeded inputs -----------------------------------------------------------

/// splitmix64 finalizer: the one hash every generated input comes from.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(mix64(seed)) {}
  std::uint64_t next() noexcept { return mix64(s_++); }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Value of element @p linear (global row-major index) of array variable
/// @p var: a 53-bit integer, so it round-trips exactly through a double.
[[nodiscard]] inline double element(std::uint64_t seed, int var,
                                    std::size_t linear) noexcept {
  return static_cast<double>(
      mix64(seed ^ (static_cast<std::uint64_t>(var) << 40) ^ linear) >> 11);
}

/// Fill @p out (box-ordered) with the elements of @p box in @p global.
void fill_box(std::vector<double>& out, std::uint64_t seed, int var,
              const Dimensions& global, const Box& box);

/// Number of elements of @p got (box-ordered) that differ from the
/// generator; 3-D boxes only.
[[nodiscard]] std::size_t count_mismatches(const double* got,
                                           std::uint64_t seed, int var,
                                           const Dimensions& global,
                                           const Box& box);

/// A struct value for the small-object workload (serialize() member, so it
/// goes through the binary serializer like any user struct).
struct Particle {
  double x = 0, y = 0, z = 0;
  float vx = 0, vy = 0, vz = 0;
  std::int32_t id = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x, y, z, vx, vy, vz, id);
  }
  friend bool operator==(const Particle&, const Particle&) = default;
};

/// Array dimension record as PMEM::alloc stores it (dtype tag + dims).
struct DimsRecord {
  std::uint8_t dtype = 0;
  std::vector<std::uint64_t> dims;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(dtype, dims);
  }
};

/// Any value the small-object workload stores.
using KvValue = std::variant<std::int64_t, double, Particle,
                             std::vector<float>, std::vector<double>>;
/// Anything whose serialized size a workload computes on its put path.
using Sizable = std::variant<KvValue, DimsRecord>;

// --- options and metrics -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check sizes: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Make one verification expect a wrong value (proves checks bite).
  bool inject_fault = false;
};

/// Ordered name -> (value, unit) list; setting a name twice is a bug.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// --- phases ------------------------------------------------------------------

/// Per-rank operation record of one phase.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t user_bytes = 0;  ///< payload bytes stored or loaded
  std::vector<double> put_us;    ///< host latency of each store()
  std::vector<double> get_us;    ///< host latency of each load()

  void merge(const OpTally& o);
};

/// Span, counter and histogram totals harvested from pmemcpy::trace.
struct TraceTally {
  std::map<std::string, double> self_s;  ///< span name -> summed self time
  std::map<std::string, std::uint64_t> spans;  ///< span name -> count
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<double, kNumHists> hist_sum{};
  std::uint64_t dropped = 0;

  /// Fold the registry into this tally and reset it.  Call only while no
  /// instrumented call is in flight (between phases or at a round sync).
  void harvest();
  void merge(const TraceTally& o);
  [[nodiscard]] std::uint64_t counter(pmemcpy::trace::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double self(const std::string& span) const;
};

/// What one collective phase (open -> calls -> close) cost.
struct PhaseResult {
  double sim_s = 0.0;   ///< critical-path simulated seconds
  double host_s = 0.0;  ///< host wall seconds around Runtime::run
  /// Simulated seconds per sim::Charge category on the critical rank.
  std::array<double, kNumCharges> crit_charge{};
  /// (max - min) / max of the ranks' busy simulated time (everything but
  /// waiting in collectives).
  double busy_imbalance = 0.0;
  std::uint64_t dev_bytes_written = 0;
  std::uint64_t dev_bytes_read = 0;
  OpTally ops;
};

/// Handed to a workload's rank body.
struct RankCtx {
  pmemcpy::par::Comm& comm;
  OpTally& ops;
  TraceTally* trace;  ///< null when the phase runs untraced

  /// Bulk-synchronous round boundary: a barrier, then (traced runs only)
  /// rank 0 drains the span registry so a long phase never reaches its
  /// cap.  The same collectives run traced or not, so simulated time does
  /// not depend on tracing.
  void round_sync();
};

/// Run @p body on kRanks ranks against @p node and account the phase.
/// Tracing is on for the phase iff @p trace is non-null.
PhaseResult run_phase(PmemNode& node, TraceTally* trace,
                      const std::function<void(RankCtx&)>& body);

/// Time one call and record it.
template <typename Fn>
void timed(std::vector<double>& samples, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                              t0)
                        .count());
}

/// Shared fault-injection switch: the next check it is armed for fails.
class Expectation {
 public:
  void arm(bool on) noexcept { pending_.store(on); }
  /// True when this check must be made against a wrong expected value.
  bool take() noexcept { return pending_.exchange(false); }

 private:
  std::atomic<bool> pending_{false};
};

// --- workloads -----------------------------------------------------------------

/// One stored item as the layer replays see it.
struct ReplayItem {
  std::string key;                   ///< engine key / tree id
  std::span<const std::byte> bytes;  ///< payload as the app hands it over
  Dimensions global;                 ///< empty for scalars
  Box box;                           ///< empty for scalars
};

/// The workload's own sizes and key mix, for the layer replays.
struct Profile {
  std::vector<ReplayItem> items;
  std::vector<Sizable> sized;              ///< values a put sizes
  std::vector<std::pair<Box, Box>> slabs;  ///< (wanted, piece) pairs
  bool flat = true;  ///< flat hashtable layout (else hierarchical tree)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the seeded inputs (before any timer starts).
  virtual void generate() = 0;
  /// A fresh node sized for this workload.
  [[nodiscard]] virtual std::unique_ptr<PmemNode> make_node() const = 0;
  virtual PhaseResult write(PmemNode& node, TraceTally* trace) = 0;
  virtual PhaseResult read(PmemNode& node, TraceTally* trace) = 0;
  [[nodiscard]] virtual Profile profile() const = 0;
  /// One line on sizes (printed before the result).
  [[nodiscard]] virtual std::string describe() const = 0;
  Expectation expect;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opts);

/// Layer replays on @p p: adds the "<layer>.*_host_*" metrics and the
/// pmemfs "fs.*_sim_ns" ones.
void run_replays(const Profile& p, double budget_s, Metrics& m);

}  // namespace perfbench
