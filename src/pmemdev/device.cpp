#include <pmemcpy/pmem/device.hpp>

#include "line_model.hpp"

#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

namespace pmemcpy::pmem {

namespace {
constexpr std::size_t kPage = 4096;

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

bool env_truthy(const char* value) {
  return !(value[0] == '\0' || value[0] == '0' || value[0] == 'n' ||
           value[0] == 'N' || value[0] == 'f' || value[0] == 'F');
}

/// PMEMCPY_PERSIST_CHECK env var wins; otherwise the CMake option
/// (-DPMEMCPY_PERSIST_CHECK=ON compiles the default to "attached").
bool checker_default_on() {
  if (const char* e = std::getenv("PMEMCPY_PERSIST_CHECK")) {
    return env_truthy(e);
  }
#ifdef PMEMCPY_PERSIST_CHECK_DEFAULT
  return true;
#else
  return false;
#endif
}

/// With PMEMCPY_PERSIST_CHECK_FATAL set, a device destructed with
/// unconsumed violations aborts the process — the CI enforcement gate.
bool checker_fatal_on() {
  const char* e = std::getenv("PMEMCPY_PERSIST_CHECK_FATAL");
  return e != nullptr && env_truthy(e);
}

/// splitmix64 finalizer — a cheap, well-mixed hash for torn-line selection
/// and the transient-fault coins.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Map a mixed 64-bit coin onto [0, 1).
double unit_interval(std::uint64_t coin) {
  return static_cast<double>(coin >> 11) * 0x1.0p-53;
}

double env_double(const char* name, double fallback) {
  const char* e = std::getenv(name);
  return e != nullptr ? std::atof(e) : fallback;
}

std::string range_str(std::size_t off, std::size_t len) {
  return "[" + std::to_string(off) + ", +" + std::to_string(len) + ")";
}

/// The cache lines [first, last) that [off, off+len) touches.
std::pair<std::size_t, std::size_t> line_span(std::size_t off,
                                              std::size_t len) {
  return {off / kCacheLine, (off + len + kCacheLine - 1) / kCacheLine};
}

std::atomic<std::uint64_t> next_serial{1};

/// Serials of the devices the calling thread has flushed since its own last
/// fence on each: a fence orders only its own thread's flushes.  Kept by
/// every device, plain ones included, for settle_unwind().
thread_local std::vector<std::uint64_t> t_unfenced;

bool unfenced(std::uint64_t serial) {
  return std::find(t_unfenced.begin(), t_unfenced.end(), serial) !=
         t_unfenced.end();
}
}  // namespace

Device::Device(std::size_t capacity, bool crash_shadow)
    : capacity_(round_up(capacity, kPage)),
      data_(std::make_unique<std::byte[]>(capacity_)),
      crash_shadow_(crash_shadow),
      serial_(next_serial.fetch_add(1, std::memory_order_relaxed)),
      touched_(capacity_ / kPage, false) {
  if (crash_shadow_) model_ = std::make_unique<LineModel>(data_.get());
  if (checker_default_on()) enable_checker();
  // Env-driven transient-fault arming (ci.sh's fault smoke).  A
  // programmatic set_fault_plan() later overrides it.
  const double rate = env_double("PMEMCPY_FAULT_RATE", 0.0);
  if (rate > 0.0) {
    t_read_rate_ = t_write_rate_ = t_persist_rate_ = rate;
    if (const char* e = std::getenv("PMEMCPY_FAULT_SEED")) {
      fault_seed_ = std::strtoull(e, nullptr, 0);
    }
    transient_armed_.store(true, std::memory_order_relaxed);
  }
}

Device::~Device() {
  if (!checker_) return;
  const check::Report rep = checker_->report();
  if (!rep.ok()) {
    std::fprintf(stderr, "pmem::Device: unconsumed persistency violations:\n%s",
                 rep.to_string().c_str());
    if (checker_fatal_on() && std::uncaught_exceptions() == 0) {
      std::fprintf(stderr,
                   "pmem::Device: aborting (PMEMCPY_PERSIST_CHECK_FATAL)\n");
      std::abort();
    }
  }
}

void Device::enable_checker() {
  if (checker_) return;
  if (!model_) model_ = std::make_unique<LineModel>(data_.get());
  checker_ = std::make_unique<check::PersistChecker>(*model_);
}

check::Report Device::checker_report() const {
  return checker_ ? checker_->report() : check::Report{};
}

void Device::check_tx_begin(std::string_view name) {
  if (checker_ && !frozen()) checker_->tx_begin(name);
}

void Device::check_tx_commit() {
  if (!checker_ || frozen()) return;
  std::lock_guard lk(mu_);
  checker_->tx_commit(persist_ops());
}

void Device::check_tx_abort() {
  if (checker_ && !frozen()) checker_->tx_abort();
}

void Device::check_publish(std::size_t off, std::size_t len) {
  if (!checker_ || frozen() || len == 0) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  checker_->on_publish(first, last, persist_ops());
}

void Device::check_range(std::size_t off, std::size_t len) const {
  if (off > capacity_ || len > capacity_ - off) {
    throw std::out_of_range("pmem::Device: access [" + std::to_string(off) +
                            ", +" + std::to_string(len) + ") beyond capacity " +
                            std::to_string(capacity_));
  }
}

void Device::write(std::size_t off, const void* src, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: stores vanish
  note_write(off, len);
  std::memcpy(data_.get() + off, src, len);
  charge_store(len, 1.0);
}

void Device::read(std::size_t off, void* dst, std::size_t len) const {
  check_range(off, len);
  check_media(off, len);
  if (transient_armed_.load(std::memory_order_relaxed)) {
    run_retries(FaultOp::kRead, off, len);
  }
  std::memcpy(dst, data_.get() + off, len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(pm.read_latency + static_cast<double>(len) /
                                  c.shared_bw(pm.read_stream_bw,
                                              pm.read_total_bw),
            sim::Charge::kPmemRead);
  trace::count(trace::Counter::kBytesRead, len);
  bytes_read_.fetch_add(len, std::memory_order_relaxed);
}

void Device::fill(std::size_t off, std::size_t len, std::byte value) {
  check_range(off, len);
  if (frozen()) return;
  note_write(off, len);
  std::memset(data_.get() + off, std::to_integer<int>(value), len);
  charge_store(len, 1.0);
}

void Device::charge_store(std::size_t len, double bw_factor) {
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  const double bw =
      c.shared_bw(pm.write_stream_bw, pm.write_total_bw) * bw_factor;
  c.advance(pm.write_latency + static_cast<double>(len) / bw,
            sim::Charge::kPmemWrite);
  trace::count(trace::Counter::kBytesWritten, len);
  bytes_written_.fetch_add(len, std::memory_order_relaxed);
}

void Device::fault_gate(FaultOp op, std::size_t off, std::size_t len) {
  if (!transient_armed_.load(std::memory_order_relaxed)) return;
  try {
    check_sticky(off, len);
    run_retries(op, off, len);
  } catch (const DeviceError&) {
    // A failed writeback never reached media: in-flight stores to these
    // lines are lost, exactly as on a crash.  Revert them to their last
    // durable image so the media state the caller recovers against matches
    // what the hardware would actually hold.  (A failed store never
    // happened, so it has nothing to revert.)  Either way, settle any
    // earlier unfenced flushes of the batch so the healing retry starts
    // from a clean ordering state.
    if (op == FaultOp::kPersist) revert_unpersisted(off, len);
    settle_unwind();
    throw;
  }
}

std::uint64_t Device::tick_persist_op() {
  const std::uint64_t op =
      persist_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op == crash_at_.load(std::memory_order_relaxed)) {
    // The scheduled crash point: power fails *before* this op takes effect,
    // so the lines it would write back or fence stay unpersisted and are
    // subject to the revert policy like any other in-flight store.
    {
      std::lock_guard lk(mu_);
      apply_crash_locked();
      frozen_.store(true, std::memory_order_relaxed);
    }
    throw CrashError(op);
  }
  return op;
}

void Device::persist(std::size_t off, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: nothing to make durable
  fault_gate(FaultOp::kPersist, off, len);
  const auto [first, last] = line_span(off, len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(static_cast<double>(last - first) * pm.persist_line_cost +
                pm.drain_cost,
            sim::Charge::kPmemPersist);
  const std::uint64_t op = tick_persist_op();
  trace::count(trace::Counter::kPersistOps);
  record_flush(first, last, op);
  record_fence(op, /*flushed=*/true);
}

void Device::flush(std::size_t off, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: nothing writes back
  fault_gate(FaultOp::kPersist, off, len);
  const auto [first, last] = line_span(off, len);
  auto& c = sim::ctx();
  c.advance(static_cast<double>(last - first) * c.model().pmem.persist_line_cost,
            sim::Charge::kPmemPersist);
  const std::uint64_t op = tick_persist_op();
  trace::count(trace::Counter::kPersistOps);
  const std::uint64_t serial = serial_.load(std::memory_order_relaxed);
  if (!unfenced(serial)) t_unfenced.push_back(serial);
  record_flush(first, last, op);
}

void Device::drain() {
  if (frozen()) return;
  auto& c = sim::ctx();
  c.advance(c.model().pmem.drain_cost, sim::Charge::kPmemPersist);
  const std::uint64_t op = tick_persist_op();
  trace::count(trace::Counter::kPersistOps);
  record_fence(op, /*flushed=*/false);
}

void Device::record_flush(std::size_t first, std::size_t last,
                          std::uint64_t op) {
  trace::count(trace::Counter::kFlushOps);
  trace::count(trace::Counter::kLinesFlushed, last - first);
  if (!model_) return;
  std::lock_guard lk(mu_);
  if (checker_) checker_->on_flush(first, last, op);
  model_->flush(first, last);
}

void Device::record_fence(std::uint64_t op, bool flushed) {
  trace::count(trace::Counter::kFenceOps);
  const auto it = std::find(t_unfenced.begin(), t_unfenced.end(),
                            serial_.load(std::memory_order_relaxed));
  if (it != t_unfenced.end()) {
    *it = t_unfenced.back();
    t_unfenced.pop_back();
    flushed = true;
  }
  if (!model_) return;
  std::lock_guard lk(mu_);
  if (checker_) checker_->on_fence(op, flushed);
  model_->fence();
}

void Device::settle_unwind() {
  // Only the calling thread's own flushes count: another thread's fence
  // ordered none of them.  A real sfence: earlier CLWBs in the aborted batch
  // become durable, which is exactly what hardware would eventually do
  // anyway.  drain() performs no fault injection, so this cannot recurse.
  if (unfenced(serial_.load(std::memory_order_relaxed))) drain();
}

void Device::revert_unpersisted(std::size_t off, std::size_t len) {
  if (!crash_shadow_) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  model_->revert(first, last);
}

void Device::note_write(std::size_t off, std::size_t len) {
  if (len == 0 || frozen()) return;
  check_range(off, len);
  // Every store path (checked writes, DAX spans, pool metadata) announces
  // itself here before mutating, so this is the one store-side fault point:
  // a throw below means the store never happened.
  fault_gate(FaultOp::kWrite, off, len);
  trace::count(trace::Counter::kStoreOps);
  if (!model_) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  // The checker judges the store against the state before it.
  if (checker_) checker_->on_store(first, last);
  model_->store(first, last);
}

std::size_t Device::claim_new_pages(std::size_t off, std::size_t len) {
  if (len == 0) return 0;
  const std::size_t first = off / kPage;
  const std::size_t last = (off + len + kPage - 1) / kPage;
  std::size_t fresh = 0;
  std::lock_guard lk(mu_);
  for (std::size_t p = first; p < last; ++p) {
    if (!touched_[p]) {
      touched_[p] = true;
      ++fresh;
    }
  }
  return fresh;
}

void Device::charge_dax_write(std::size_t off, std::size_t len,
                              bool map_sync) {
  check_range(off, len);
  if (frozen()) return;
  const std::size_t fresh = claim_new_pages(off, len);
  auto& c = sim::ctx();
  const auto& m = c.model();
  if (fresh > 0) {
    const double per_page = map_sync ? m.pmem.map_sync_page_cost
                                     : m.cpu.minor_fault_cost;
    c.advance(static_cast<double>(fresh) * per_page, sim::Charge::kPageFault);
  }
  charge_store(len, map_sync ? m.pmem.map_sync_write_bw_factor : 1.0);
}

void Device::charge_dax_read(std::size_t len, bool map_sync) const {
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  double bw = c.shared_bw(pm.read_stream_bw, pm.read_total_bw);
  if (map_sync) bw *= pm.map_sync_read_bw_factor;
  c.advance(pm.read_latency + static_cast<double>(len) / bw,
            sim::Charge::kPmemRead);
  trace::count(trace::Counter::kBytesRead, len);
  bytes_read_.fetch_add(len, std::memory_order_relaxed);
}

void Device::reset_page_touches() {
  std::lock_guard lk(mu_);
  touched_.assign(touched_.size(), false);
}

bool Device::torn_reverts(std::size_t line) const noexcept {
  // Deterministic coin flip per (seed, line): about half the in-flight
  // lines reach media before the power dies, the rest are lost.
  return (mix64(torn_seed_ ^ static_cast<std::uint64_t>(line)) & 1u) != 0;
}

void Device::apply_crash_locked() {
  model_->crash(
      [this](std::size_t line) { return torn_writes_ && !torn_reverts(line); });
  if (checker_) checker_->on_crash();
  trace::on_crash();
}

void Device::simulate_crash() {
  if (!crash_shadow_) {
    throw std::logic_error(
        "pmem::Device::simulate_crash requires crash_shadow mode");
  }
  std::lock_guard lk(mu_);
  apply_crash_locked();
}

std::size_t Device::unpersisted_lines() const {
  std::lock_guard lk(mu_);
  return model_ ? model_->unpersisted() : 0;
}

void Device::set_fault_plan(const FaultPlan& plan) {
  if (plan.crash_at_persist != 0 && !crash_shadow_) {
    throw std::logic_error(
        "pmem::Device: scheduling a crash point requires crash_shadow mode");
  }
  std::lock_guard lk(mu_);
  torn_writes_ = plan.torn_writes;
  torn_seed_ = plan.torn_seed;
  crash_at_.store(plan.crash_at_persist, std::memory_order_relaxed);
  // Programmatic transient plans override the env arming (a plan with all
  // rates zero disables injection).  The coin sequence restarts so the same
  // plan replays the same fault schedule.
  t_read_rate_ = plan.transient_read_rate;
  t_write_rate_ = plan.transient_write_rate;
  t_persist_rate_ = plan.transient_persist_rate;
  sticky_rate_ = plan.sticky_rate;
  fault_seed_ = plan.fault_seed;
  fault_seq_ = 0;
  transient_armed_.store(plan.transient_armed(), std::memory_order_relaxed);
}

void Device::revive() {
  std::lock_guard lk(mu_);
  crash_at_.store(0, std::memory_order_relaxed);
  frozen_.store(false, std::memory_order_relaxed);
  torn_writes_ = false;
  if (model_) model_->clear();
  // A fresh serial forgets every thread's unfenced flushes here.
  serial_.store(next_serial.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_relaxed);
}

void Device::inject_read_error(std::size_t off, std::size_t len) {
  check_range(off, len);
  std::lock_guard lk(mu_);
  bad_media_.emplace_back(off, len);
}

void Device::clear_read_errors() {
  std::lock_guard lk(mu_);
  bad_media_.clear();
}

void Device::check_media(std::size_t off, std::size_t len) const {
  std::lock_guard lk(mu_);
  if (bad_media_.empty()) return;
  for (const auto& [boff, blen] : bad_media_) {
    if (off < boff + blen && boff < off + len) {
      throw DeviceError(DeviceError::Kind::kMediaRead, off, len,
                        "pmem::Device: media read error in " +
                            range_str(boff, blen));
    }
  }
}

// ---------------------------------------------------------------------------
// Transient faults, sticky media and retries
// ---------------------------------------------------------------------------

void Device::set_retry_policy(const ft::RetryPolicy& policy) noexcept {
  std::lock_guard lk(mu_);
  retry_ = policy;
}

void Device::inject_sticky_range(std::size_t off, std::size_t len) {
  check_range(off, len);
  const std::size_t first = off / kCacheLine * kCacheLine;
  const std::size_t last =
      (off + len + kCacheLine - 1) / kCacheLine * kCacheLine;
  {
    std::lock_guard lk(mu_);
    sticky_bad_.emplace_back(first, last - first);
  }
  trace::count(trace::Counter::kFtStickyRanges);
  // Sticky checks only run while injection is armed; an explicit injection
  // must bite even without a transient plan.
  transient_armed_.store(true, std::memory_order_relaxed);
}

std::vector<std::pair<std::size_t, std::size_t>> Device::sticky_ranges()
    const {
  std::lock_guard lk(mu_);
  return sticky_bad_;
}

bool Device::media_failing(std::size_t off, std::size_t len) const {
  std::lock_guard lk(mu_);
  for (const auto& [soff, slen] : sticky_bad_) {
    if (off < soff + slen && soff < off + len) return true;
  }
  return false;
}

void Device::check_sticky(std::size_t off, std::size_t len) const {
  std::lock_guard lk(mu_);
  if (sticky_bad_.empty()) return;
  for (const auto& [soff, slen] : sticky_bad_) {
    if (off < soff + slen && soff < off + len) {
      // Report the *bad range*, not the op range: that is what a caller
      // should quarantine before relocating.
      throw DeviceError(DeviceError::Kind::kMediaWrite, soff, slen,
                        "pmem::Device: store to sticky-bad media " +
                            range_str(soff, slen));
    }
  }
}

Device::Attempt Device::fault_attempt(
    FaultOp op, std::size_t off, std::size_t len,
    std::pair<std::size_t, std::size_t>* sticky) const {
  std::lock_guard lk(mu_);
  double rate = 0.0;
  switch (op) {
    case FaultOp::kRead: rate = t_read_rate_; break;
    case FaultOp::kWrite: rate = t_write_rate_; break;
    case FaultOp::kPersist: rate = t_persist_rate_; break;
  }
  if (rate <= 0.0) return Attempt::kOk;
  if (unit_interval(mix64(fault_seed_ ^ ++fault_seq_)) >= rate) {
    return Attempt::kOk;
  }
  if (op != FaultOp::kRead && sticky_rate_ > 0.0 &&
      unit_interval(mix64(fault_seed_ ^ ++fault_seq_)) < sticky_rate_) {
    // Escalation: the media under this op is now failing for good.  Mark
    // whole cachelines so relocation and allocator avoidance reason in the
    // same units as flushes.
    const std::size_t first = off / kCacheLine * kCacheLine;
    const std::size_t last =
        (off + len + kCacheLine - 1) / kCacheLine * kCacheLine;
    *sticky = sticky_bad_.emplace_back(first, last - first);
    return Attempt::kSticky;
  }
  return Attempt::kTransient;
}

void Device::run_retries(FaultOp op, std::size_t off, std::size_t len) const {
  for (int attempt = 1;; ++attempt) {
    std::pair<std::size_t, std::size_t> sticky{0, 0};
    const Attempt a = fault_attempt(op, off, len, &sticky);
    if (a == Attempt::kOk) return;
    trace::count(trace::Counter::kFtTransientFaults);
    if (a == Attempt::kSticky) {
      trace::count(trace::Counter::kFtStickyRanges);
      throw DeviceError(DeviceError::Kind::kMediaWrite, sticky.first,
                        sticky.second,
                        "pmem::Device: media failed (sticky) at " +
                            range_str(sticky.first, sticky.second));
    }
    if (attempt >= retry_.max_attempts) {
      throw DeviceError(DeviceError::Kind::kTransient, off, len,
                        "pmem::Device: transient fault at " +
                            range_str(off, len) + " persisted past " +
                            std::to_string(attempt) + " attempts");
    }
    // The wait between attempts is simulated time like any other cost, so
    // retries show up in span charge breakdowns and bench numbers.
    sim::ctx().advance(ft::RetryPolicy::backoff_for(attempt),
                       sim::Charge::kRetryBackoff);
    trace::count(trace::Counter::kFtRetries);
  }
}

}  // namespace pmemcpy::pmem
