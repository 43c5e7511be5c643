// Persistency-order checker: a shadow-state machine over device cachelines.
//
// Every cacheline moves through
//
//     clean  --store-->  dirty  --flush-->  flush-pending  --fence-->  clean
//
// driven by the device hooks on_store()/on_flush()/on_fence().  On top of the
// per-line state machine sits an epoch/ordering layer fed by annotation hooks
// (tx_begin/tx_commit/publish) called from the object store and core layers.
// The checker is a pure observer: it never charges simulated time and never
// mutates device contents, so enabling it cannot change behavior — only
// report it.  (In the spirit of pmemcheck/Jaaru, applied to the emulator.)
//
// Violation taxonomy:
//   correctness
//     kDirtyAtCommit      — a line stored inside an annotation scope is still
//                           dirty (or flushed-but-unfenced) when the scope
//                           commits: the "transaction" is not durable.
//     kUnpersistedPublish — publish(off,len) covers a line that has not been
//                           flushed+fenced: readers can see the range while a
//                           crash would still tear it.
//     kStoreAfterFlush    — a store lands on a line that was flushed but not
//                           yet fenced: the store races the writeback, so its
//                           durability is undefined (classic CLWB/SFENCE
//                           reordering window).
//   efficiency lints
//     kCleanFlush         — flush of a line with no stores since it was last
//                           made durable (in an earlier epoch): wasted CLWB.
//     kDuplicateFlush     — flush of a line already flushed in the *same*
//                           epoch with no intervening store: the second CLWB
//                           (and its fence) bought nothing.
//     kEmptyFence         — a fence with no flushed lines pending: ordering
//                           point that orders nothing.
//
// Epochs: inside a tx_begin..tx_commit scope the scope itself is the epoch
// (one per scope instance, per thread).  Outside any scope, epochs are
// fence-delimited.  Flushes of *dirty* lines are never flagged — a line that
// was re-stored legitimately needs another flush, and ordering-required
// re-flushes (e.g. consecutive undo-log entries sharing a tail line) must not
// false-positive.
//
// Multi-thread soundness: each line remembers which threads stored to it
// since its last flush.  When thread A's flush covers thread B's store, B is
// marked "satisfied" for that line and B's next flush of the (now clean)
// line is suppressed once instead of flagged — two threads persisting their
// own stores to a shared metadata line is not a redundancy bug.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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

  // Traffic counters (efficiency accounting for benches / EXPERIMENTS.md).
  std::uint64_t store_ops = 0;
  std::uint64_t flush_ops = 0;       ///< flush/persist calls
  std::uint64_t lines_flushed = 0;   ///< cachelines covered by those calls
  std::uint64_t fence_ops = 0;
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
  PersistChecker();
  ~PersistChecker();

  PersistChecker(const PersistChecker&) = delete;
  PersistChecker& operator=(const PersistChecker&) = delete;

  // --- device hooks (called with the device lock NOT held) -----------------
  void on_store(std::size_t off, std::size_t len);
  void on_flush(std::size_t off, std::size_t len, std::uint64_t persist_op);
  void on_fence(std::uint64_t persist_op);
  /// Power loss: cached (non-durable) state is gone; reset every line to
  /// clean and drop open scopes.  Findings and counters survive.
  void on_crash();

  // --- annotation hooks ----------------------------------------------------
  void tx_begin(std::string_view name);
  void tx_commit(std::uint64_t persist_op);
  void tx_abort();
  void on_publish(std::size_t off, std::size_t len, std::uint64_t persist_op);

  // --- reporting ------------------------------------------------------------
  [[nodiscard]] Report report() const;
  /// Snapshot and reset findings + violation tallies (traffic counters keep
  /// accumulating).  Used by mutation tests that plant violations on purpose.
  Report take_report();
  /// True iff no violations have been recorded (and not yet taken).
  [[nodiscard]] bool clean() const;

 private:
  struct Line {
    enum State : std::uint8_t { kClean = 0, kDirty, kFlushPending };
    State state = kClean;
    std::uint64_t last_flush_epoch = 0;
    std::uint64_t last_flush_op = 0;
    bool store_after_flush_reported = false;
    std::vector<std::uint32_t> writers;    ///< slots with stores since last flush
    std::vector<std::uint32_t> satisfied;  ///< slots covered by another's flush
  };
  struct Scope {
    std::string name;
    std::uint64_t epoch;
    std::vector<std::size_t> dirtied;  ///< lines stored while innermost
  };
  struct ThreadState {
    std::uint32_t slot;
    std::vector<Scope> scopes;
    /// Flush calls this thread issued since its last fence.  The empty-fence
    /// lint requires BOTH this and the global pending set to be empty, so a
    /// concurrent thread's fence consuming our flushed lines cannot make our
    /// own (justified) fence look empty.
    std::uint64_t flushes_since_fence = 0;
  };

  ThreadState& self_locked();
  std::uint64_t epoch_of_locked(ThreadState& ts) const;
  void record_locked(Violation v, std::size_t line, std::uint64_t op,
                     const std::string& scope, std::string detail);

  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Line> lines_;
  std::unordered_map<std::thread::id, ThreadState> threads_;
  std::uint32_t next_slot_ = 0;
  std::uint64_t next_epoch_ = 2;  // 1 is the initial fence epoch
  std::uint64_t fence_epoch_ = 1;
  std::vector<std::size_t> pending_lines_;  ///< flushed since last fence
  Report rep_;
};

}  // namespace pmemcpy::check
