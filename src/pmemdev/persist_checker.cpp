#include <pmemcpy/check/persist_checker.hpp>

#include "line_model.hpp"

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <sstream>

namespace pmemcpy::check {

namespace {
constexpr std::size_t kMaxFindings = 256;

using pmem::kCacheLine;
using pmem::LineModel;

/// The calling thread's record on @p ln (null when it has none).
const LineModel::Own* own(const LineModel::Line* ln) {
  return ln == nullptr ? nullptr : ln->find(std::this_thread::get_id());
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
     << " efficiency (scopes_committed=" << scopes_committed
     << " publishes=" << publishes << ")\n";
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

PersistChecker::PersistChecker(const LineModel& model) : model_(model) {}
PersistChecker::~PersistChecker() = default;

PersistChecker::ThreadState& PersistChecker::self_locked() {
  return threads_[std::this_thread::get_id()];
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

void PersistChecker::on_store(std::size_t first, std::size_t last) {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  Scope* scope = ts.scopes.empty() ? nullptr : &ts.scopes.back();
  for (std::size_t line = first; line < last; ++line) {
    // The thread's first store since its own flush, which it has not fenced.
    const LineModel::Own* o = own(model_.find(line));
    if (o != nullptr && o->pending && o->stored <= o->flushed) {
      record_locked(Violation::kStoreAfterFlush, line, 0,
                    scope ? scope->name : std::string{},
                    "store to a line this thread flushed and has not fenced "
                    "(durability of the store is undefined until the next "
                    "flush)");
    }
    if (scope != nullptr) scope->dirtied.push_back(line);
  }
}

void PersistChecker::on_flush(std::size_t first, std::size_t last,
                              std::uint64_t persist_op) {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  std::vector<Span>& epoch =
      ts.scopes.empty() ? ts.flushed : ts.scopes.back().flushed;
  const std::string scope_name =
      ts.scopes.empty() ? std::string{} : ts.scopes.back().name;
  for (std::size_t line = first; line < last; ++line) {
    // A flush writes back a store no flush covered yet, or one of this
    // thread's own that only another thread's flush covered: two threads
    // persisting their own stores to a shared line is not redundant.
    const LineModel::Line* ln = model_.find(line);
    const LineModel::Own* o = own(ln);
    if ((ln != nullptr && ln->unflushed()) ||
        (o != nullptr && o->stored > o->flushed)) {
      continue;
    }
    const bool again =
        std::any_of(epoch.begin(), epoch.end(), [line](const Span& s) {
          return s.first <= line && line < s.last;
        });
    if (again) {
      record_locked(Violation::kDuplicateFlush, line, persist_op, scope_name,
                    "line already flushed in this epoch with no store in "
                    "between");
    } else {
      record_locked(Violation::kCleanFlush, line, persist_op, scope_name,
                    "flush of a line with no unflushed stores");
    }
  }
  epoch.push_back(Span{first, last});
}

void PersistChecker::on_fence(std::uint64_t persist_op, bool flushed) {
  std::lock_guard lk(mu_);
  ThreadState& ts = self_locked();
  if (!flushed) {
    record_locked(Violation::kEmptyFence, 0, persist_op,
                  ts.scopes.empty() ? std::string{} : ts.scopes.back().name,
                  "fence with none of this thread's flushes pending: orders "
                  "nothing");
  }
  ts.flushed.clear();
}

void PersistChecker::on_crash() {
  std::lock_guard lk(mu_);
  // Open scopes and epochs died with the process image.
  threads_.clear();
}

void PersistChecker::tx_begin(std::string_view name) {
  std::lock_guard lk(mu_);
  self_locked().scopes.push_back(Scope{std::string(name), {}, {}});
}

void PersistChecker::check_durable_locked(Violation v, std::size_t line,
                                          std::uint64_t op,
                                          const std::string& scope,
                                          const char* when) {
  const LineModel::Line* ln = model_.find(line);
  const LineModel::Own* o = own(ln);
  // Another thread's later stores and unfenced flushes are its own to judge.
  if (o == nullptr || o->stored <= ln->durable_seq) return;
  record_locked(v, line, op, scope,
                std::string(o->flushed >= o->stored
                                ? "this thread's store is flushed but not "
                                  "fenced "
                                : "this thread's store is not flushed ") +
                    when);
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
    check_durable_locked(Violation::kDirtyAtCommit, line, persist_op,
                         scope.name, "at commit");
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

void PersistChecker::on_publish(std::size_t first, std::size_t last,
                                std::uint64_t persist_op) {
  std::lock_guard lk(mu_);
  ++rep_.publishes;
  ThreadState& ts = self_locked();
  const std::string scope_name =
      ts.scopes.empty() ? std::string{} : ts.scopes.back().name;
  for (std::size_t line = first; line < last; ++line) {
    check_durable_locked(Violation::kUnpersistedPublish, line, persist_op,
                         scope_name, "at publish");
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
  // Annotation counters keep accumulating across take_report().
  rep_.scopes_committed = out.scopes_committed;
  rep_.publishes = out.publishes;
  return out;
}

}  // namespace pmemcpy::check
