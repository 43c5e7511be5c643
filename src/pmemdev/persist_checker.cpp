#include <pmemcpy/check/persist_checker.hpp>

#include <pmemcpy/pmem/device.hpp>  // kCacheLine
#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <sstream>

namespace pmemcpy::check {

namespace {
constexpr std::size_t kMaxFindings = 256;

using pmem::kCacheLine;

std::pair<std::size_t, std::size_t> line_span(std::size_t off,
                                              std::size_t len) {
  return {off / kCacheLine, (off + len + kCacheLine - 1) / kCacheLine};
}
}  // namespace

const char* violation_name(Violation v) noexcept {
  switch (v) {
    case Violation::kDirtyAtCommit: return "dirty-at-commit";
    case Violation::kUnpersistedPublish: return "unpersisted-publish";
    case Violation::kStoreAfterFlush: return "store-after-flush";
    case Violation::kCleanFlush: return "clean-flush";
    case Violation::kDuplicateFlush: return "duplicate-flush";
    case Violation::kEmptyFence: return "empty-fence";
  }
  return "unknown";
}

bool violation_is_correctness(Violation v) noexcept {
  switch (v) {
    case Violation::kDirtyAtCommit:
    case Violation::kUnpersistedPublish:
    case Violation::kStoreAfterFlush:
      return true;
    default:
      return false;
  }
}

std::uint64_t Report::count(Violation v) const noexcept {
  std::uint64_t n = 0;
  for (const auto& f : findings) {
    if (f.kind == v) ++n;
  }
  return n;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok() ? "true" : "false")
     << ",\"store_ops\":" << store_ops << ",\"flush_ops\":" << flush_ops
     << ",\"lines_flushed\":" << lines_flushed
     << ",\"fence_ops\":" << fence_ops
     << ",\"scopes_committed\":" << scopes_committed
     << ",\"publishes\":" << publishes
     << ",\"correctness_violations\":" << correctness_violations
     << ",\"efficiency_violations\":" << efficiency_violations
     << ",\"clean_flushes\":" << clean_flushes
     << ",\"duplicate_flushes\":" << duplicate_flushes
     << ",\"empty_fences\":" << empty_fences
     << ",\"dropped_findings\":" << dropped_findings << ",\"findings\":[";
  bool first = true;
  for (const auto& f : findings) {
    if (!first) os << ',';
    first = false;
    os << "{\"kind\":\"" << violation_name(f.kind) << "\",\"line\":" << f.line
       << ",\"offset\":" << f.line * kCacheLine
       << ",\"persist_op\":" << f.persist_op << ",\"scope\":\"" << f.scope
       << "\",\"detail\":\"" << f.detail << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "persist-check: " << (ok() ? "OK" : "VIOLATIONS") << " — "
     << correctness_violations << " correctness, " << efficiency_violations
     << " efficiency (store_ops=" << store_ops << " flush_ops=" << flush_ops
     << " lines_flushed=" << lines_flushed << " fence_ops=" << fence_ops
     << ")\n";
  for (const auto& f : findings) {
    os << "  [" << (violation_is_correctness(f.kind) ? "BUG " : "LINT")
       << "] " << violation_name(f.kind) << " line=" << f.line << " (off="
       << f.line * kCacheLine << ") persist_op=" << f.persist_op;
    if (!f.scope.empty()) os << " scope=" << f.scope;
    if (!f.detail.empty()) os << " — " << f.detail;
    os << '\n';
  }
  if (dropped_findings > 0) {
    os << "  ... " << dropped_findings << " further findings dropped\n";
  }
  return os.str();
}

PersistChecker::PersistChecker() = default;
PersistChecker::~PersistChecker() = default;

PersistChecker::ThreadState& PersistChecker::self_locked() {
  auto [it, inserted] = threads_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.slot = next_slot_++;
  return it->second;
}

std::uint64_t PersistChecker::epoch_of_locked(ThreadState& ts) const {
  return ts.scopes.empty() ? fence_epoch_ : ts.scopes.back().epoch;
}

void PersistChecker::record_locked(Violation v, std::size_t line,
                                   std::uint64_t op, const std::string& scope,
                                   std::string detail) {
  // Each tally reaches its trace counter as it is recorded, so the trace
  // registry matches report() at any instant, take_report() included.
  if (violation_is_correctness(v)) {
    ++rep_.correctness_violations;
    trace::count(trace::Counter::kCorrectnessViolations);
  } else {
    ++rep_.efficiency_violations;
    switch (v) {
      case Violation::kCleanFlush:
        ++rep_.clean_flushes;
        trace::count(trace::Counter::kCleanFlushes);
        break;
      case Violation::kDuplicateFlush:
        ++rep_.duplicate_flushes;
        trace::count(trace::Counter::kDuplicateFlushes);
        break;
      case Violation::kEmptyFence:
        ++rep_.empty_fences;
        trace::count(trace::Counter::kEmptyFences);
        break;
      default: break;
    }
  }
  if (rep_.findings.size() >= kMaxFindings) {
    ++rep_.dropped_findings;
    return;
  }
  rep_.findings.push_back(Finding{v, line, op, scope, std::move(detail)});
}

void PersistChecker::on_store(std::size_t off, std::size_t len) {
  if (len == 0) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  ++rep_.store_ops;
  ThreadState& ts = self_locked();
  Scope* scope = ts.scopes.empty() ? nullptr : &ts.scopes.back();
  for (std::size_t line = first; line < last; ++line) {
    Line& ln = lines_[line];
    if (ln.state == Line::kFlushPending && !ln.store_after_flush_reported) {
      ln.store_after_flush_reported = true;
      record_locked(Violation::kStoreAfterFlush, line, 0,
                    scope ? scope->name : std::string{},
                    "store to a flushed-but-unfenced line (durability of the "
                    "store is undefined until the next flush)");
    }
    ln.state = Line::kDirty;
    ln.satisfied.clear();  // past flush coverage no longer applies
    if (std::find(ln.writers.begin(), ln.writers.end(), ts.slot) ==
        ln.writers.end()) {
      ln.writers.push_back(ts.slot);
    }
    if (scope != nullptr) scope->dirtied.push_back(line);
  }
}

void PersistChecker::on_flush(std::size_t off, std::size_t len,
                              std::uint64_t persist_op) {
  if (len == 0) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  ++rep_.flush_ops;
  rep_.lines_flushed += last - first;
  ThreadState& ts = self_locked();
  ++ts.flushes_since_fence;
  const std::uint64_t ep = epoch_of_locked(ts);
  const std::string scope_name =
      ts.scopes.empty() ? std::string{} : ts.scopes.back().name;
  for (std::size_t line = first; line < last; ++line) {
    Line& ln = lines_[line];
    if (ln.state == Line::kDirty) {
      // Legitimate flush of new stores.  Other threads whose stores ride
      // along are "satisfied": their own upcoming flush of this (then clean)
      // line is not a redundancy bug.
      for (std::uint32_t w : ln.writers) {
        if (w == ts.slot) continue;
        if (std::find(ln.satisfied.begin(), ln.satisfied.end(), w) ==
            ln.satisfied.end()) {
          ln.satisfied.push_back(w);
        }
      }
      ln.writers.clear();
    } else {
      // Clean or flush-pending: this CLWB writes back nothing new.
      auto sat = std::find(ln.satisfied.begin(), ln.satisfied.end(), ts.slot);
      if (sat != ln.satisfied.end()) {
        ln.satisfied.erase(sat);  // cross-thread coverage: suppress once
      } else if (ln.last_flush_epoch == ep) {
        record_locked(Violation::kDuplicateFlush, line, persist_op, scope_name,
                      "line already flushed in this epoch with no store in "
                      "between");
      } else {
        record_locked(Violation::kCleanFlush, line, persist_op, scope_name,
                      "flush of a line with no unflushed stores");
      }
    }
    if (ln.state != Line::kFlushPending) pending_lines_.push_back(line);
    ln.state = Line::kFlushPending;
    ln.store_after_flush_reported = false;
    ln.last_flush_epoch = ep;
    ln.last_flush_op = persist_op;
  }
}

void PersistChecker::on_fence(std::uint64_t persist_op) {
  std::lock_guard lk(mu_);
  ++rep_.fence_ops;
  ThreadState& ts = self_locked();
  // Lint only when this thread also flushed nothing since its own last
  // fence: a concurrent fence may have consumed our pending lines, but our
  // fence was still justified when issued.
  if (pending_lines_.empty() && ts.flushes_since_fence == 0) {
    record_locked(Violation::kEmptyFence, 0, persist_op,
                  ts.scopes.empty() ? std::string{} : ts.scopes.back().name,
                  "fence with no flushed lines pending: orders nothing");
  }
  ts.flushes_since_fence = 0;
  for (std::size_t line : pending_lines_) {
    auto it = lines_.find(line);
    if (it != lines_.end() && it->second.state == Line::kFlushPending) {
      it->second.state = Line::kClean;
    }
  }
  pending_lines_.clear();
  fence_epoch_ = next_epoch_++;
}

void PersistChecker::on_crash() {
  std::lock_guard lk(mu_);
  // Power loss: caches are gone, so every line is (whatever the revert policy
  // made it) clean on media.  Open scopes died with the process image.
  lines_.clear();
  pending_lines_.clear();
  for (auto& [tid, ts] : threads_) {
    ts.scopes.clear();
    ts.flushes_since_fence = 0;
  }
  fence_epoch_ = next_epoch_++;
}

void PersistChecker::tx_begin(std::string_view name) {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  ts.scopes.push_back(Scope{std::string(name), next_epoch_++, {}});
}

void PersistChecker::tx_commit(std::uint64_t persist_op) {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  if (ts.scopes.empty()) return;  // unbalanced annotation; ignore
  Scope scope = std::move(ts.scopes.back());
  ts.scopes.pop_back();
  ++rep_.scopes_committed;
  std::sort(scope.dirtied.begin(), scope.dirtied.end());
  scope.dirtied.erase(std::unique(scope.dirtied.begin(), scope.dirtied.end()),
                      scope.dirtied.end());
  for (std::size_t line : scope.dirtied) {
    auto it = lines_.find(line);
    if (it == lines_.end()) continue;
    const Line& ln = it->second;
    if (ln.state == Line::kDirty) {
      // Only flag the committer's own stores: another thread may have
      // legitimately re-dirtied a shared metadata line since we persisted it.
      if (std::find(ln.writers.begin(), ln.writers.end(), ts.slot) !=
          ln.writers.end()) {
        record_locked(Violation::kDirtyAtCommit, line, persist_op, scope.name,
                      "line stored in this scope is still dirty at commit");
      }
    } else if (ln.state == Line::kFlushPending) {
      record_locked(Violation::kDirtyAtCommit, line, persist_op, scope.name,
                    "line flushed but not fenced at commit");
    }
  }
  // Lines this scope dirtied bubble up to the enclosing scope (an outer
  // commit must still find them persisted).
  if (!ts.scopes.empty()) {
    auto& outer = ts.scopes.back().dirtied;
    outer.insert(outer.end(), scope.dirtied.begin(), scope.dirtied.end());
  }
}

void PersistChecker::tx_abort() {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  if (!ts.scopes.empty()) ts.scopes.pop_back();
}

void PersistChecker::on_publish(std::size_t off, std::size_t len,
                                std::uint64_t persist_op) {
  if (len == 0) return;
  const auto [first, last] = line_span(off, len);
  std::lock_guard lk(mu_);
  ++rep_.publishes;
  ThreadState& ts = self_locked();
  const std::string scope_name =
      ts.scopes.empty() ? std::string{} : ts.scopes.back().name;
  for (std::size_t line = first; line < last; ++line) {
    auto it = lines_.find(line);
    if (it == lines_.end()) continue;  // never stored: trivially durable
    const Line& ln = it->second;
    if (ln.state == Line::kFlushPending) {
      record_locked(Violation::kUnpersistedPublish, line, persist_op,
                    scope_name, "published line flushed but not fenced");
    } else if (ln.state == Line::kDirty &&
               std::find(ln.writers.begin(), ln.writers.end(), ts.slot) !=
                   ln.writers.end()) {
      record_locked(Violation::kUnpersistedPublish, line, persist_op,
                    scope_name, "published line has unflushed stores");
    }
  }
}

Report PersistChecker::report() const {
  std::lock_guard lk(mu_);
  return rep_;
}

Report PersistChecker::take_report() {
  std::lock_guard lk(mu_);
  Report out = std::move(rep_);
  rep_ = Report{};
  // Traffic counters keep accumulating across take_report(), as their
  // trace counters do.
  rep_.store_ops = out.store_ops;
  rep_.flush_ops = out.flush_ops;
  rep_.lines_flushed = out.lines_flushed;
  rep_.fence_ops = out.fence_ops;
  rep_.scopes_committed = out.scopes_committed;
  rep_.publishes = out.publishes;
  return out;
}

bool PersistChecker::clean() const {
  std::lock_guard lk(mu_);
  return rep_.ok();
}

bool PersistChecker::has_pending_flushes() const {
  std::lock_guard lk(mu_);
  return !pending_lines_.empty();
}

}  // namespace pmemcpy::check
