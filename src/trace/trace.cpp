#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>

namespace pmemcpy::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Registry cap: past this, spans are counted but not recorded, so a
/// traced stress run degrades gracefully instead of eating memory.
constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

constexpr int kNC = static_cast<int>(Counter::kNumCounters);
constexpr int kNH = static_cast<int>(Hist::kNumHists);

struct Registry {
  std::mutex mu;
  std::vector<SpanData> spans;
  std::uint64_t next_id = 1;
  std::uint64_t epoch = 0;
  std::uint64_t dropped = 0;
  HistData hists[kNH] = {};
  std::atomic<std::uint64_t> counters[kNC] = {};
  std::mutex path_mu;
  std::string export_path;
};

Registry& reg() {
  static Registry r;
  return r;
}

/// Per-thread stack of open spans: (epoch, id); id 0 = dropped span.
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> t_stack;

std::int64_t to_ns(double seconds) noexcept {
  return std::llround(seconds * 1e9);
}

void snapshot_charges(double out[kNumChargeKinds]) noexcept {
  const auto& c = sim::ctx();
  for (int i = 0; i < kNumChargeKinds; ++i) {
    out[i] = c.charged(static_cast<sim::Charge>(i));
  }
}

/// Print integer nanoseconds as Chrome's microsecond timestamps without
/// going through a double (byte-stable).
void append_us(std::ostringstream& os, std::int64_t ns) {
  os << ns / 1000 << '.';
  const auto frac = static_cast<int>(ns % 1000);
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

bool env_truthy(const char* value) {
  return !(value[0] == '\0' || value[0] == '0' || value[0] == 'n' ||
           value[0] == 'N' || value[0] == 'f' || value[0] == 'F');
}

bool is_plain_flag(const char* v) {
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "TRUE") == 0 || std::strcmp(v, "yes") == 0 ||
         std::strcmp(v, "on") == 0 || std::strcmp(v, "ON") == 0;
}

extern "C" void pmemcpy_trace_export_at_exit() { export_to_path(); }

/// PMEMCPY_TRACE env wins over the -DPMEMCPY_TRACE=ON compile default
/// (same precedence as the persist checker's toggle).  A truthy value that
/// is not a plain flag doubles as the exit-time export path.
struct EnvInit {
  EnvInit() {
    bool on = false;
    if (const char* e = std::getenv("PMEMCPY_TRACE")) {
      on = env_truthy(e);
      if (on && !is_plain_flag(e)) {
        set_export_path(e);
        std::atexit(&pmemcpy_trace_export_at_exit);
      }
    } else {
#ifdef PMEMCPY_TRACE_DEFAULT
      on = true;
#endif
    }
    detail::g_enabled.store(on, std::memory_order_relaxed);
  }
};
EnvInit g_env_init;

}  // namespace

namespace detail {

void count_slow(Counter c, std::uint64_t n) noexcept {
  reg().counters[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

void observe_slow(Hist h, double value) noexcept {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  HistData& hd = r.hists[static_cast<int>(h)];
  if (hd.count == 0 || value < hd.min) hd.min = value;
  if (hd.count == 0 || value > hd.max) hd.max = value;
  ++hd.count;
  hd.sum += value;
}

}  // namespace detail

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kStoreOps: return "store_ops";
    case Counter::kFlushOps: return "flush_ops";
    case Counter::kLinesFlushed: return "lines_flushed";
    case Counter::kFenceOps: return "fence_ops";
    case Counter::kCleanFlushes: return "clean_flushes";
    case Counter::kDuplicateFlushes: return "duplicate_flushes";
    case Counter::kEmptyFences: return "empty_fences";
    case Counter::kCorrectnessViolations: return "correctness_violations";
    case Counter::kPersistOps: return "persist_ops";
    case Counter::kBytesWritten: return "bytes_written";
    case Counter::kBytesRead: return "bytes_read";
    case Counter::kAllocOps: return "alloc_ops";
    case Counter::kAllocBytes: return "alloc_bytes";
    case Counter::kFreeOps: return "free_ops";
    case Counter::kEnginePuts: return "engine_puts";
    case Counter::kEngineGets: return "engine_gets";
    case Counter::kBatchCommits: return "batch_commits";
    case Counter::kCrashes: return "crashes";
    case Counter::kRecoveries: return "recoveries";
    case Counter::kFtTransientFaults: return "ft_transient_faults";
    case Counter::kFtRetries: return "ft_retries";
    case Counter::kFtStickyRanges: return "ft_sticky_ranges";
    case Counter::kFtQuarantines: return "ft_quarantines";
    case Counter::kFtRelocations: return "ft_relocations";
    case Counter::kFtPutRetries: return "ft_put_retries";
    case Counter::kFtDegradedTransitions: return "ft_degraded_transitions";
    case Counter::kFtDamagedKeys: return "ft_damaged_keys";
    case Counter::kCopyStagedBytes: return "copy_staged_bytes";
    case Counter::kCopyDirectBytes: return "copy_direct_bytes";
    case Counter::kCopyStagedPuts: return "copy_staged_puts";
    case Counter::kCopyReadStagedBytes: return "copy_read_staged_bytes";
    case Counter::kCopyReadDirectBytes: return "copy_read_direct_bytes";
    case Counter::kCopyReadBounceBytes: return "copy_read_bounce_bytes";
    case Counter::kReadCacheHits: return "read_cache_hits";
    case Counter::kReadCacheMisses: return "read_cache_misses";
    case Counter::kReadCacheHitBytes: return "read_cache_hit_bytes";
    case Counter::kReadCacheFillBytes: return "read_cache_fill_bytes";
    case Counter::kReadCacheEvictions: return "read_cache_evictions";
    case Counter::kReadCacheInvalidations: return "read_cache_invalidations";
    case Counter::kAllocLaneAcquisitions: return "alloc_lane_acquisitions";
    case Counter::kAllocQueueCharges: return "alloc_queue_charges";
    case Counter::kAllocMetadataPersists: return "alloc_metadata_persists";
    case Counter::kAllocMagazineHits: return "alloc_magazine_hits";
    case Counter::kAllocMagazineFreeHits: return "alloc_magazine_free_hits";
    case Counter::kAllocMagazineRefills: return "alloc_magazine_refills";
    case Counter::kAllocMagazineFlushbacks: return "alloc_magazine_flushbacks";
    case Counter::kAllocMagazineSwept: return "alloc_magazine_swept";
    case Counter::kNumCounters: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) noexcept {
  switch (h) {
    case Hist::kBatchSize: return "batch_size";
    case Hist::kShardQueueDelay: return "shard_queue_delay_sec";
    case Hist::kAllocSize: return "alloc_size";
    case Hist::kNumHists: break;
  }
  return "unknown";
}

const char* charge_name(sim::Charge c) noexcept {
  switch (c) {
    case sim::Charge::kCpuCopy: return "cpu_copy";
    case sim::Charge::kPmemRead: return "pmem_read";
    case sim::Charge::kPmemWrite: return "pmem_write";
    case sim::Charge::kPmemPersist: return "pmem_persist";
    case sim::Charge::kNetwork: return "network";
    case sim::Charge::kSyscall: return "syscall";
    case sim::Charge::kPageFault: return "page_fault";
    case sim::Charge::kPfs: return "pfs";
    case sim::Charge::kOther: return "other";
    case sim::Charge::kRetryBackoff: return "retry_backoff";
    case sim::Charge::kNumCharges: break;
  }
  return "unknown";
}

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() noexcept {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  r.spans.clear();
  r.next_id = 1;
  ++r.epoch;
  r.dropped = 0;
  for (auto& h : r.hists) h = HistData{};
  for (auto& c : r.counters) c.store(0, std::memory_order_relaxed);
}

void on_crash() noexcept {
  if (!enabled()) return;
  Registry& r = reg();
  {
    std::lock_guard lk(r.mu);
    for (auto& s : r.spans) {
      if (s.end_ns < 0) s.crashed = true;
    }
  }
  detail::count_slow(Counter::kCrashes, 1);
}

std::uint64_t counter(Counter c) noexcept {
  return reg().counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

HistData histogram(Hist h) noexcept {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  return r.hists[static_cast<int>(h)];
}

void Span::open(const char* name) noexcept {
  const auto& c = sim::ctx();
  SpanData rec;
  rec.name = name;
  rec.rank = c.rank();
  rec.start_ns = to_ns(c.now());
  // charge_sec temporarily holds the open snapshot; close() turns it into
  // the inclusive delta.
  snapshot_charges(rec.charge_sec);

  Registry& r = reg();
  std::lock_guard lk(r.mu);
  epoch_ = r.epoch;
  armed_ = true;
  if (r.spans.size() >= kMaxSpans) {
    ++r.dropped;
    id_ = 0;
  } else {
    // Parent: the innermost open span of this thread that is both from the
    // current epoch and actually recorded.
    for (auto it = t_stack.rbegin(); it != t_stack.rend(); ++it) {
      if (it->first == r.epoch && it->second != 0) {
        rec.parent = it->second;
        break;
      }
    }
    id_ = r.next_id++;
    rec.id = id_;
    r.spans.push_back(rec);
  }
  t_stack.emplace_back(epoch_, id_);
}

void Span::close() noexcept {
  armed_ = false;
  if (!t_stack.empty()) t_stack.pop_back();
  if (id_ == 0) return;
  double now_charges[kNumChargeKinds];
  snapshot_charges(now_charges);
  const std::int64_t end = to_ns(sim::ctx().now());
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  if (r.epoch != epoch_) return;  // reset() happened while open
  SpanData& rec = r.spans[id_ - 1];
  rec.end_ns = end;
  for (int i = 0; i < kNumChargeKinds; ++i) {
    rec.charge_sec[i] = now_charges[i] - rec.charge_sec[i];
  }
}

std::vector<SpanData> snapshot() {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  return r.spans;
}

std::uint64_t dropped_spans() noexcept {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  return r.dropped;
}

std::uint64_t high_span_id() noexcept {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  return r.next_id - 1;
}

std::string chrome_json() {
  std::vector<SpanData> spans = snapshot();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanData& a, const SpanData& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.id < b.id;
                   });
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (s.end_ns < 0) continue;  // still open: no complete event to emit
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"pmemcpy\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.rank
       << ",\"ts\":";
    append_us(os, s.start_ns);
    os << ",\"dur\":";
    append_us(os, s.duration_ns());
    os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (s.crashed) os << ",\"crashed\":true";
    for (int i = 0; i < kNumChargeKinds; ++i) {
      const std::int64_t ns = to_ns(s.charge_sec[i]);
      if (ns == 0) continue;
      os << ",\"" << charge_name(static_cast<sim::Charge>(i)) << "_ns\":"
         << ns;
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string schema_fields(
    const std::uint64_t (&row)[static_cast<int>(Counter::kNumCounters)]) {
  std::ostringstream os;
  for (int i = 0; i < kNC; ++i) {
    if (i > 0) os << ", ";
    os << '"' << counter_name(static_cast<Counter>(i)) << "\": " << row[i];
  }
  return os.str();
}

std::string stats_json() {
  std::uint64_t row[kNC];
  for (int i = 0; i < kNC; ++i) row[i] = counter(static_cast<Counter>(i));

  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t crashed = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::vector<SpanData> spans = snapshot();
  // Per-record child totals (for self time), then aggregate by name.
  std::vector<std::int64_t> child_of(spans.size() + 1, 0);
  for (const auto& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      child_of[s.parent] += s.duration_ns();
    }
  }
  std::map<std::string_view, Agg> by_name;
  for (const auto& s : spans) {
    Agg& a = by_name[s.name];
    ++a.count;
    if (s.crashed) ++a.crashed;
    a.total_ns += s.duration_ns();
    a.child_ns += s.id <= spans.size() ? child_of[s.id] : 0;
  }

  std::ostringstream os;
  os << "{\"counters\":{" << schema_fields(row) << "},\"histograms\":{";
  bool first = true;
  for (int i = 0; i < kNH; ++i) {
    const HistData h = histogram(static_cast<Hist>(i));
    if (h.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << hist_name(static_cast<Hist>(i)) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << '}';
  }
  os << "},\"spans\":[";
  first = true;
  for (const auto& [name, a] : by_name) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(name) << "\",\"count\":" << a.count
       << ",\"total_ns\":" << a.total_ns
       << ",\"self_ns\":" << a.total_ns - a.child_ns;
    if (a.crashed != 0) os << ",\"crashed\":" << a.crashed;
    os << '}';
  }
  os << "],\"dropped_spans\":" << dropped_spans() << '}';
  return os.str();
}

void set_export_path(std::string path) {
  Registry& r = reg();
  std::lock_guard lk(r.path_mu);
  r.export_path = std::move(path);
}

std::string export_path() {
  Registry& r = reg();
  std::lock_guard lk(r.path_mu);
  return r.export_path;
}

bool export_to_path() {
  const std::string path = export_path();
  if (path.empty()) return false;
  const auto write = [](const std::string& p, const std::string& body) {
    std::FILE* f = std::fopen(p.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pmemcpy-trace: cannot write %s\n", p.c_str());
      return false;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  };
  const bool a = write(path, chrome_json());
  const bool b = write(path + ".stats.json", stats_json());
  return a && b;
}

}  // namespace pmemcpy::trace
