// Persistency-order checker: rules over the device's cache-line model
// (src/pmemdev/line_model.hpp, DESIGN.md §7).
//
// The device calls the hooks below under its lock, before the model applies
// each store, flush or fence, and every rule is a predicate over the acting
// thread's own view of that state: its newest store to a line, its last
// flush of it and whether it has fenced that flush.  A fence makes only the
// fencing thread's flushes durable, as on x86.  Annotation hooks
// (tx_begin/tx_commit/publish) from the object store and core layers add
// scopes.  The checker is a pure observer: it never charges simulated time
// and never mutates device contents, so enabling it cannot change behavior —
// only report it.  (In the spirit of pmemcheck/Jaaru.)
//
// Violation taxonomy:
//   correctness
//     kDirtyAtCommit      — the committing thread's own newest store to a
//                           line its scope stored is not durable.
//     kUnpersistedPublish — the same for a line publish(off,len) covers:
//                           readers see the range while a crash would still
//                           tear it.
//     kStoreAfterFlush    — a thread stores to a line it flushed and has not
//                           fenced: the store races its own writeback.
//   efficiency lints, for a flush that writes back no store (none newer
//   than every flush of the line, and none of the flushing thread's own
//   that it has not flushed itself)
//     kCleanFlush         — of a line the thread has not flushed this
//                           epoch: a wasted CLWB.
//     kDuplicateFlush     — the thread already flushed the line this epoch.
//     kEmptyFence         — a fence with none of the fencing thread's own
//                           flushes pending: it orders nothing.
//
// Epochs are per thread: a tx_begin..tx_commit scope, or outside any scope
// the span up to the thread's own next fence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pmemcpy::pmem {
class LineModel;
}  // namespace pmemcpy::pmem

namespace pmemcpy::check {

enum class Violation : std::uint8_t {
  // correctness
  kDirtyAtCommit,
  kUnpersistedPublish,
  kStoreAfterFlush,
  // efficiency lints
  kCleanFlush,
  kDuplicateFlush,
  kEmptyFence,
};

[[nodiscard]] const char* violation_name(Violation v) noexcept;
[[nodiscard]] bool violation_is_correctness(Violation v) noexcept;

/// One detected violation, with backtrace-free provenance: the device
/// persist-op number at detection and the innermost annotation scope.
struct Finding {
  Violation kind;
  std::size_t line;        ///< cacheline index (byte offset = line * 64)
  std::uint64_t persist_op;///< device persist-op counter at detection (0 = store path)
  std::string scope;       ///< owning annotation scope, "" when outside any
  std::string detail;
};

/// Machine-readable snapshot of the checker state.
struct Report {
  std::vector<Finding> findings;  ///< capped; see dropped_findings
  std::uint64_t dropped_findings = 0;

  // Annotation traffic.  The device's store/flush/fence traffic is counted
  // by the trace registry (trace::Counter::kStoreOps..kFenceOps).
  std::uint64_t scopes_committed = 0;
  std::uint64_t publishes = 0;

  // Violation tallies (also counted past the findings cap).
  std::uint64_t correctness_violations = 0;
  std::uint64_t efficiency_violations = 0;
  std::uint64_t clean_flushes = 0;
  std::uint64_t duplicate_flushes = 0;
  std::uint64_t empty_fences = 0;

  [[nodiscard]] bool ok() const noexcept {
    return correctness_violations == 0 && efficiency_violations == 0;
  }
  [[nodiscard]] std::uint64_t count(Violation v) const noexcept;
  /// One-object JSON rendering (machine-readable CI artifact).
  [[nodiscard]] std::string to_json() const;
  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

class PersistChecker {
 public:
  /// Judges the device's @p model, which must outlive the checker.
  explicit PersistChecker(const pmem::LineModel& model);
  ~PersistChecker();

  PersistChecker(const PersistChecker&) = delete;
  PersistChecker& operator=(const PersistChecker&) = delete;

  // --- device hooks: cache lines [first, last); called under the device
  // lock, before the model applies the event -------------------------------
  void on_store(std::size_t first, std::size_t last);
  void on_flush(std::size_t first, std::size_t last, std::uint64_t persist_op);
  /// @p flushed: the calling thread flushed since its own last fence.
  void on_fence(std::uint64_t persist_op, bool flushed);
  /// Power loss: drop open scopes and epochs.  Findings and counters
  /// survive.
  void on_crash();

  // --- annotation hooks (commit and publish under the device lock) ---------
  void tx_begin(std::string_view name);
  void tx_commit(std::uint64_t persist_op);
  void tx_abort();
  void on_publish(std::size_t first, std::size_t last,
                  std::uint64_t persist_op);

  // --- reporting ------------------------------------------------------------
  [[nodiscard]] Report report() const;
  /// Snapshot and reset findings + violation tallies (annotation counters
  /// keep accumulating).  Used by mutation tests that plant violations on
  /// purpose.
  Report take_report();

 private:
  /// Cache lines [first, last) one flush call covered.
  struct Span {
    std::size_t first;
    std::size_t last;
  };
  struct Scope {
    std::string name;
    std::vector<std::size_t> dirtied;  ///< lines stored while innermost
    std::vector<Span> flushed;         ///< flushes while innermost
  };
  struct ThreadState {
    std::vector<Scope> scopes;
    std::vector<Span> flushed;  ///< flushes outside scopes since own fence
  };

  ThreadState& self_locked();
  void record_locked(Violation v, std::size_t line, std::uint64_t op,
                     const std::string& scope, std::string detail);
  /// dirty-at-commit and unpersisted-publish: the calling thread's own
  /// newest store to @p line is not durable.
  void check_durable_locked(Violation v, std::size_t line, std::uint64_t op,
                            const std::string& scope, const char* when);

  const pmem::LineModel& model_;
  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, ThreadState> threads_;
  Report rep_;
};

}  // namespace pmemcpy::check
