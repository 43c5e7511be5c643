// PMDK-like persistent object store ("libpmemobj-lite").
//
// A Pool lives inside a region of an emulated PMEM device and provides:
//   * pool-relative offsets that stay valid across re-opens,
//   * a crash-safe allocator (size-class free lists + bump arena; every
//     multi-store metadata mutation is made atomic by the allocator undo
//     lane, so a crash at any persist boundary rolls the whole allocation,
//     free or batch refill back; optional per-rank magazines serve the
//     common case without the lock — DESIGN.md §14),
//   * a root object offset for bootstrapping data structures,
//   * CRC32C checksums on the pool header and every chunk header, plus an
//     offline integrity verifier (check()) that walks the arena, the free
//     lists and the undo lane.
//
// The allocator undo lane is the pool's only undo log; open() rolls back
// whatever a crash left in it.  Structures built on the pool publish with
// single 8-byte stores instead: the hashtable swaps in a rebuilt bucket
// array by storing its offset (DESIGN.md §8).
//
// All stores go through write()/set()/persist() so they are visible to the
// device's crash tracking and charged on the simulated clock.  The pool can
// be opened with MAP_SYNC semantics, which makes every DAX store pay the
// synchronous page-fault penalty the paper evaluates as "PMCPY-B".
#pragma once

#include <pmemcpy/ft/ft.hpp>
#include <pmemcpy/pmem/device.hpp>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmemcpy::obj {

struct PoolOptions {
  /// Charge MAP_SYNC synchronous-fault semantics on every DAX store.
  bool map_sync = false;
};

/// Thrown when open() finds no valid pool, or create() lacks space.
struct PoolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Result of the offline integrity verifier, Pool::check().
struct CheckReport {
  /// Human-readable descriptions of every invariant violation found.
  std::vector<std::string> issues;
  /// Chunks visited by the heap walk (allocated + free).
  std::size_t chunks_walked = 0;
  /// Chunks found on the size-class and large free lists.
  std::size_t free_chunks = 0;
  /// Chunks durably marked magazine-owned (owned-but-unpublished; counted
  /// as in-use and never expected on a free list — recovery sweeps them).
  std::size_t magazine_chunks = 0;
  /// bytes_in_use recomputed from the heap walk (compare to the stored
  /// counter; a mismatch is also reported as an issue).
  std::uint64_t bytes_in_use = 0;

  [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
};

class Pool {
 public:
  /// Hard cap on the magazine refill batch (bounded by what the allocator
  /// undo lane can pre-image in a single batch).
  static constexpr int kMaxMagazineSize = 64;

  /// Deliberate-bug knobs for validating the crash harness (mutation
  /// testing): re-introduce a known durability bug and assert the crash
  /// matrix catches it.  Never enable outside tests.
  struct TestFaults {
    /// Skip persisting the undo lane's retire zero in aundo_commit() — the
    /// classic undo-log bug where a crash right after commit re-exposes the
    /// stale pre-images and recovery rolls a *committed* allocator
    /// operation back.
    bool skip_undo_retire_persist = false;
  };

  /// Format a fresh pool over device bytes [base, base+size).
  static Pool create(pmem::Device& dev, std::size_t base, std::size_t size,
                     PoolOptions opts = {});
  /// Open an existing pool at @p base; runs undo-log recovery.
  static Pool open(pmem::Device& dev, std::size_t base, PoolOptions opts = {});

  Pool(Pool&&) noexcept;
  Pool& operator=(Pool&&) noexcept = delete;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool();

  [[nodiscard]] pmem::Device& device() noexcept { return *dev_; }
  [[nodiscard]] bool map_sync() const noexcept { return opts_.map_sync; }
  void set_map_sync(bool on) noexcept { opts_.map_sync = on; }
  [[nodiscard]] TestFaults& test_faults() noexcept { return test_faults_; }

  // --- root object ----------------------------------------------------------

  [[nodiscard]] std::uint64_t root() const;
  void set_root(std::uint64_t off);

  // --- allocation ------------------------------------------------------------

  /// Allocate @p bytes of persistent memory; returns a pool-relative offset.
  /// Throws std::bad_alloc when the pool is exhausted.  Crash-atomic: a
  /// crash at any internal persist boundary rolls the allocation back.
  std::uint64_t alloc(std::size_t bytes);
  /// Return an allocation to the pool.  Crash-atomic like alloc().
  void free(std::uint64_t off);

  /// Expected number of ranks/threads concurrently hammering this pool's
  /// serialized metadata path (allocator lock, undo lane).  A pure
  /// simulation knob: every locked alloc()/free() charges a queueing delay
  /// of (n-1) * PmemModel::pool_op_queue_cost.  Engines set it to the rank
  /// count at open; the default of 1 charges nothing, so serial code is
  /// unaffected.
  void set_expected_contenders(int n) noexcept { contenders_ = n < 1 ? 1 : n; }

  /// Per-rank magazine capacity: the refill batch K.  0 (the default for a
  /// raw pool) disables magazines entirely — every alloc/free takes the
  /// classic locked path.  Engines arm K = 8 unless told otherwise.
  /// Clamped to [0, kMaxMagazineSize].
  void set_magazine_size(int k) noexcept {
    mag_size_ = k < 0 ? 0 : (k > kMaxMagazineSize ? kMaxMagazineSize : k);
  }
  [[nodiscard]] int magazine_size() const noexcept { return mag_size_; }

  /// No-op, kept only so perfbench/src/replay.cpp still compiles: the pool
  /// has one free-list block and one allocator undo lane, so there is no
  /// metadata stripe count to choose.
  void set_alloc_stripes(int /*n*/) noexcept {}

  /// Flush every magazine-held chunk back to the persistent free lists.
  /// For tests and orderly teardown only: the caller must guarantee no
  /// concurrent alloc()/free() (magazines are single-owner caches).
  void drain_magazines();
  /// Usable payload size of an allocation.
  [[nodiscard]] std::size_t usable_size(std::uint64_t off) const;
  /// Bytes currently handed out (payload, excluding headers).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept;

  // --- integrity --------------------------------------------------------------

  /// Offline integrity verifier: validates the pool-header checksum, walks
  /// the arena chunk by chunk (header checksums, overlap), the size-class
  /// and large free lists (cycles, class mismatches, double-listing), the
  /// allocator undo lane (structural validity) and the quarantine table,
  /// and recomputes bytes_in_use.  Read-only; safe on a just-opened pool.
  [[nodiscard]] CheckReport check() const;

  // --- quarantine (self-healing data path, DESIGN.md §10) --------------------

  /// Slots in the persistent quarantine table (it lives in the metadata gap
  /// between the pool header and the allocator state).
  static constexpr std::size_t kQuarantineCapacity = 128;

  /// Record [off, off+len) — pool-relative, rounded out to cachelines — in
  /// the persistent quarantine table: the allocator never hands any part of
  /// it out again, and free() leaks chunks that landed on it instead of
  /// linking through failing media.  Crash-atomic (the new entry is durable
  /// before the single-store count/crc header swing makes it visible) and
  /// idempotent for already-covered ranges.  Returns kQuarantineFull when
  /// the table is out of slots.
  ft::Status quarantine(std::uint64_t off, std::size_t len);
  /// True when [off, off+len) intersects a quarantined range.
  [[nodiscard]] bool is_quarantined(std::uint64_t off, std::size_t len) const;
  /// Snapshot of the quarantine table as (off, len) pairs, in table order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  quarantined() const;

  /// Throw pmem::DeviceError if [off, off+len) intersects injected bad
  /// media, without reading it (for zero-copy consumers of direct()).
  void verify_media(std::uint64_t off, std::size_t len) const;

  // --- charged data access ----------------------------------------------------

  /// memcpy @p len bytes into the pool at @p off (DAX store: charged, crash-
  /// tracked, NOT yet persisted — call persist()).
  void write(std::uint64_t off, const void* src, std::size_t len);
  /// memcpy @p len bytes out of the pool (DAX load: charged).  Throws
  /// pmem::DeviceError on injected media errors.
  void read(std::uint64_t off, void* dst, std::size_t len) const;
  /// Store a trivially-copyable value and persist it (one metadata store).
  template <typename T>
  void set(std::uint64_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(off, &v, sizeof(T));
    persist(off, sizeof(T));
  }
  /// Load a trivially-copyable value (charged as a small DAX read).
  template <typename T>
  [[nodiscard]] T get(std::uint64_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read(off, &v, sizeof(T));
    return v;
  }
  /// Flush + fence a pool range.
  void persist(std::uint64_t off, std::size_t len);
  /// Flush only (CLWB, no fence); durable after the next drain().  Batch
  /// several flushes under one drain to pay a single fence.
  void flush(std::uint64_t off, std::size_t len);
  /// One range [off, off+len) of a batched flush (or an undo pre-image).
  struct Range {
    std::uint64_t off;
    std::uint64_t len;
  };
  /// Flush the distinct cachelines covering @p ranges as contiguous runs,
  /// without the fence: a line shared by several ranges is written back
  /// once, and the caller drains once for the whole set.
  void flush_ranges(std::span<const Range> ranges);
  /// Fence: make every previously flushed range durable.
  void drain() { dev_->drain(); }
  /// Persistency-checker annotation: declare a pool range as becoming
  /// reachable/visible (it must be flushed + fenced by now).  No-op without
  /// an attached checker.
  void check_publish(std::uint64_t off, std::size_t len) {
    dev_->check_publish(base_ + off, len);
  }

  /// Zero-copy pointer to pool memory.  Mutating through it requires a prior
  /// note_write()/charge via write(); prefer write().  Reading through it is
  /// free of charge — use charge_read() to account a bulk DAX read.
  [[nodiscard]] std::byte* direct(std::uint64_t off) noexcept {
    return dev_->raw(base_ + off);
  }
  [[nodiscard]] const std::byte* direct(std::uint64_t off) const noexcept {
    return dev_->raw(base_ + off);
  }
  /// Writable span over an allocation's payload, with the store charged and
  /// crash-tracked but not persisted (the direct-serialization sink).
  [[nodiscard]] std::span<std::byte> direct_write_span(std::uint64_t off,
                                                       std::size_t len);
  /// Account a bulk zero-copy read of @p len bytes.
  void charge_read(std::size_t len) const {
    dev_->charge_dax_read(len, opts_.map_sync);
  }

  /// Device offset of the pool base (for diagnostics).
  [[nodiscard]] std::size_t base() const noexcept { return base_; }
  /// Total pool size in bytes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  Pool(pmem::Device& dev, std::size_t base, std::size_t size, PoolOptions opts);

  struct Layout;  // offsets of persistent control structures
  struct Magazine;      // per-thread size-class chunk cache
  struct AllocRuntime;  // DRAM-side magazine table + quarantine-active flag
  void format();
  void recover();
  void check_off(std::uint64_t off, std::size_t len) const;

  /// Rebuild the DRAM quarantine cache from the persistent table (open()).
  void load_quarantine();
  /// Intersection test against the cache; callers hold alloc_mu_.
  [[nodiscard]] bool quar_hit(std::uint64_t off, std::size_t len) const;

  std::uint64_t alloc_locked(std::size_t bytes);

  // --- magazines (DESIGN.md §14) -------------------------------------------
  /// This thread's magazine (created on first use).
  [[nodiscard]] Magazine& magazine();
  /// True when sticky media covers the free-list block: unlinking a chunk
  /// would fault, so the class lists keep their chunks linked in place.
  [[nodiscard]] bool free_lists_failing() const;
  /// Refill @p m's class-@p cls stack with up to K chunks under one lock
  /// acquisition and one undo transaction; returns how many were obtained.
  std::size_t refill_magazine(Magazine& m, std::size_t cls);
  std::size_t refill_locked(Magazine& m, std::size_t cls);
  /// Return all but @p keep of @p m's class-@p cls chunks to the persistent
  /// free lists in one batch.
  void flush_back(Magazine& m, std::size_t cls, std::size_t keep);
  /// Unflag the magazine chunks @p out and push them onto the class-@p cls
  /// list: the mutation of one undo transaction.  The open-time sweep pushes
  /// each reclaimed chunk as a batch of one.
  void flush_back_locked(const std::vector<std::uint64_t>& out,
                         std::size_t cls);
  /// Durably mark a chunk owned-but-unpublished (header rewritten with the
  /// magazine flag; persistence deferred to the caller's batch flush).
  void mag_mark_owned(std::uint64_t chunk, std::uint64_t payload,
                      std::uint32_t cls);
  /// Reclaim chunks left magazine-flagged by a crash back to the free
  /// lists (open(), after undo-log recovery and quarantine load).
  void sweep_magazines();

  // Allocator undo lane: pre-image logging that makes the multi-store
  // allocator mutations atomic across crashes.  A whole batch of entries is
  // persisted with one coalesced flush+fence and published by a single
  // durable `used` bump.
  void aundo_log_batch(const std::vector<Range>& ranges);
  void aundo_commit();
  /// Coalesce @p ranges to distinct cachelines, flush them, fence once.
  void persist_ranges(const std::vector<Range>& ranges);
  /// Roll back the undo lane (newest entry first) and retire it.  Shared by
  /// open-time recovery and undo_tx()'s live rollback.
  void rollback_log();

  /// Take alloc_mu_ for one serialized metadata operation and charge the
  /// modelled queueing delay of the ranks contending for it.
  [[nodiscard]] std::unique_lock<std::mutex> lock_allocator();
  /// Run @p mutate as one allocator undo transaction, inside the
  /// persistency-checker scope @p scope.  A fault rolls the lane back before
  /// it propagates.
  template <typename Mutate>
  void undo_tx(const char* scope, Mutate&& mutate);

  pmem::Device* dev_;
  std::size_t base_;
  std::size_t size_;
  PoolOptions opts_;
  TestFaults test_faults_;
  int contenders_ = 1;
  int mag_size_ = 0;  ///< refill batch K; 0 = magazines off

  /// DRAM cache of the persistent quarantine table, in table order.
  /// Guarded by alloc_mu_ (the allocator consults it on every path).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> quar_;

  std::unique_ptr<AllocRuntime> art_;
  std::unique_ptr<std::mutex> alloc_mu_ = std::make_unique<std::mutex>();
};

}  // namespace pmemcpy::obj
