// pmemcpy::trace — zero-cost-when-disabled observability (DESIGN.md §9).
//
// Three pieces, all stamped from the simulated clock so their output is
// deterministic enough to assert in tests:
//
//   * Scoped spans.  `trace::Span s("engine.put");` records open/close
//     timestamps from the calling rank's sim::Context, nests under the
//     enclosing span of the same thread, and attributes the simulated time
//     that elapsed inside it to sim::Charge categories (cpu_copy,
//     pmem_write, pmem_persist, ...) by snapshotting the context's charged
//     totals at open and close.  Because every Context::advance() is
//     categorised, the per-category deltas of a span sum to its duration.
//     Spans are pure observers: they never advance the clock, so enabling
//     tracing cannot change bench numbers or flush/fence counts.
//
//   * A typed counter/histogram registry, the one counter store.  One
//     vocabulary (counter_name()) shared by the stats exporter and
//     `bench/audit --json`.  The device counts its traffic and the persist
//     checker its lint and correctness tallies here as they happen, so the
//     first eight counters can be cross-checked against checker_report().
//
//   * Exporters: Chrome `trace_event` JSON (chrome://tracing, Perfetto) and
//     a compact stats JSON.  Timestamps are integer nanoseconds derived
//     from the simulated clock, so exports are byte-stable across hosts.
//
// Enabling mirrors the persist-checker pattern: the PMEMCPY_TRACE env var
// wins (truthy enables; any other non-flag value is also the export path
// written at process exit), otherwise -DPMEMCPY_TRACE=ON compiles the
// default to "enabled".  Tests drive set_enabled()/reset() directly.
//
// A simulated power loss (pmem::Device crash points) calls on_crash():
// every span still open is marked `crashed` but keeps closing normally as
// the stack unwinds, so post-crash traces show exactly which scopes the
// power failure cut through.  reset() starts a new epoch; spans from an
// older epoch that close late are ignored instead of corrupting the
// registry.
#pragma once

#include <pmemcpy/sim/context.hpp>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pmemcpy::trace {

/// Typed counters.  The first eight carry check::Report's traffic counters
/// and violation tallies under the same names: the device counts the
/// traffic and PersistChecker the tallies as it records them.  The rest
/// absorb the counters that used to live as ad-hoc fields on Device, Pool
/// and the engines.  perfbench indexes counters by enumerator, so names
/// and positions stay fixed.
enum class Counter : int {
  kStoreOps = 0,            ///< device stores (checker on_store events)
  kFlushOps,                ///< CLWB-equivalent flush operations
  kLinesFlushed,            ///< cachelines covered by those flushes
  kFenceOps,                ///< SFENCE-equivalent drain operations
  kCleanFlushes,            ///< checker lint: flush of an already-clean line
  kDuplicateFlushes,        ///< checker lint: re-flush within one epoch
  kEmptyFences,             ///< checker lint: fence ordering nothing
  kCorrectnessViolations,   ///< checker correctness findings
  kPersistOps,              ///< device persist-op ids consumed (flush|fence)
  kBytesWritten,            ///< device bytes stored (incl. DAX path)
  kBytesRead,               ///< device bytes read (incl. DAX path)
  kAllocOps,                ///< Pool::alloc calls
  kAllocBytes,              ///< payload bytes allocated
  kFreeOps,                 ///< Pool::free calls
  kEnginePuts,              ///< engine put handles opened
  kEngineGets,              ///< engine lookups (hit or miss)
  kBatchCommits,            ///< engine group commits
  kCrashes,                 ///< simulated power losses observed
  kRecoveries,              ///< Pool::recover sweeps
  // ft.* — self-healing data path (DESIGN.md §10).
  kFtTransientFaults,       ///< injected transient device faults
  kFtRetries,               ///< device-level retry attempts after a fault
  kFtStickyRanges,          ///< ranges escalated to sticky-bad media
  kFtQuarantines,           ///< ranges recorded in pool quarantine tables
  kFtRelocations,           ///< entries rewritten off failing media
  kFtPutRetries,            ///< whole-put retries after quarantining
  kFtDegradedTransitions,   ///< pools entering degraded read-only mode
  kFtDamagedKeys,           ///< entries found unrecoverable by repair()
  // copy.* — data-path copy audit (DESIGN.md §12).
  kCopyStagedBytes,         ///< serialized bytes that landed in a DRAM buffer
  kCopyDirectBytes,         ///< serialized bytes that landed in PMEM directly
  kCopyStagedPuts,          ///< puts whose payload took a DRAM staging pass
  // copy.read_* + cache.* — zero-copy read path (DESIGN.md §13).
  kCopyReadStagedBytes,     ///< get bytes bounced through a DRAM buffer
  kCopyReadDirectBytes,     ///< get bytes consumed in-place from PMEM spans
  kCopyReadBounceBytes,     ///< fragmented-tree fallback: charged DRAM bounce
  kReadCacheHits,           ///< read-cache lookups served from DRAM
  kReadCacheMisses,         ///< read-cache lookups that went to the engine
  kReadCacheHitBytes,       ///< blob bytes served from the read cache
  kReadCacheFillBytes,      ///< blob bytes copied into the cache on miss
  kReadCacheEvictions,      ///< entries evicted to respect read_cache_bytes
  kReadCacheInvalidations,  ///< entries dropped by put/remove/repair
  // alloc.* — allocator hot-path scalability (DESIGN.md §14).
  kAllocLaneAcquisitions,   ///< allocator lock acquisitions (slow paths only)
  kAllocQueueCharges,       ///< nonzero queueing delays charged by the model
  kAllocMetadataPersists,   ///< flush/fence passes issued on allocator metadata
  kAllocMagazineHits,       ///< allocations served lock-free from a magazine
  kAllocMagazineFreeHits,   ///< frees absorbed lock-free by a magazine
  kAllocMagazineRefills,    ///< batch magazine refills (one undo tx each)
  kAllocMagazineFlushbacks, ///< batch magazine returns to the free lists
  kAllocMagazineSwept,      ///< owned-but-unpublished chunks swept at recovery
  kNumCounters,
};

/// Canonical snake_case name of @p c — the one counter schema.
const char* counter_name(Counter c) noexcept;

/// Fixed-shape histograms (count/sum/min/max; no buckets — the workloads
/// asserted on are deterministic, so moments are enough).
enum class Hist : int {
  kBatchSize = 0,       ///< entries per engine group commit
  kShardQueueDelay,     ///< seconds of pool metadata queueing charged
  kAllocSize,           ///< bytes per Pool::alloc
  kNumHists,
};

const char* hist_name(Hist h) noexcept;

struct HistData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline constexpr int kNumChargeKinds =
    static_cast<int>(sim::Charge::kNumCharges);

/// Canonical snake_case name of a charge category ("cpu_copy", ...).
const char* charge_name(sim::Charge c) noexcept;

/// One closed (or still-open / crashed) span as recorded in the registry.
struct SpanData {
  std::uint64_t id = 0;      ///< 1-based, increasing in open order per epoch
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 = root
  const char* name = "";     ///< static string supplied at open
  int rank = 0;              ///< sim::Context rank at open
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while still open
  bool crashed = false;      ///< open at a simulated power loss
  /// Inclusive simulated seconds per sim::Charge category.
  double charge_sec[kNumChargeKinds] = {};

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns < 0 ? 0 : end_ns - start_ns;
  }
  [[nodiscard]] double charge(sim::Charge c) const noexcept {
    return charge_sec[static_cast<int>(c)];
  }
};

namespace detail {
extern std::atomic<bool> g_enabled;
void count_slow(Counter c, std::uint64_t n) noexcept;
void observe_slow(Hist h, double value) noexcept;
}  // namespace detail

/// Whether tracing is on.  A single relaxed atomic load: the disabled fast
/// path of every instrumentation point.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;

/// Clear every span, counter and histogram and start a new epoch.  Spans
/// still open across a reset close as no-ops (their records are gone).
void reset() noexcept;

/// Simulated power loss: mark every open span `crashed` and count it.
/// Called by pmem::Device when a scheduled crash point fires.
void on_crash() noexcept;

/// Add @p n to counter @p c (no-op when disabled).
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (enabled()) detail::count_slow(c, n);
}

/// Record one observation of @p value (no-op when disabled).
inline void observe(Hist h, double value) noexcept {
  if (enabled()) detail::observe_slow(h, value);
}

[[nodiscard]] std::uint64_t counter(Counter c) noexcept;
[[nodiscard]] HistData histogram(Hist h) noexcept;

/// RAII span.  @p name must be a string with static storage duration
/// (a literal): the registry keeps the pointer, not a copy.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (enabled()) open(name);
  }
  ~Span() {
    if (armed_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name) noexcept;
  void close() noexcept;

  bool armed_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t id_ = 0;
};

/// Copy of every recorded span, in open order.
[[nodiscard]] std::vector<SpanData> snapshot();

/// Spans silently dropped after the registry cap was reached.
[[nodiscard]] std::uint64_t dropped_spans() noexcept;

/// Highest span id assigned so far this epoch (a watermark: spans recorded
/// after a call all have larger ids).
[[nodiscard]] std::uint64_t high_span_id() noexcept;

// --- export ----------------------------------------------------------------

/// Chrome trace_event JSON: {"traceEvents":[...]}, one complete ("ph":"X")
/// event per closed span, ts/dur in microseconds of simulated time, tid =
/// rank.  Open spans are skipped.  Byte-stable for a deterministic workload.
[[nodiscard]] std::string chrome_json();

/// Compact stats JSON: {"counters":{...},"histograms":{...},"spans":[...]}
/// with spans aggregated by name (count + total/self nanoseconds).
[[nodiscard]] std::string stats_json();

/// `"store_ops": 1, "flush_ops": 2, ...` for every counter of @p row in
/// schema order — the stats exporter's counter serialisation.
[[nodiscard]] std::string schema_fields(
    const std::uint64_t (&row)[static_cast<int>(Counter::kNumCounters)]);

/// Where the exit-time export goes (set by a path-valued PMEMCPY_TRACE).
/// Chrome JSON is written to the path itself, stats to path + ".stats.json".
void set_export_path(std::string path);
[[nodiscard]] std::string export_path();

/// Write both exports to export_path(); false if no path is set or an
/// export file cannot be written.
bool export_to_path();

}  // namespace pmemcpy::trace
