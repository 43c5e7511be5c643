// Persistent hashtable with chaining — the flat-namespace metadata store the
// paper's Data Layout section describes ("metadata is stored in a flat
// namespace using a hashtable with chaining").
//
// Keys are strings stored inline in chain nodes; values are separately
// allocated blobs referenced by (offset, size) plus a 64-bit caller-defined
// meta word (pMEMCPY uses it for the serializer/type code).
//
// Crash-consistency discipline:
//   * insert  — node and blob are fully written and persisted *before* the
//     single 8-byte bucket-head store links them in (reserve/publish).  A
//     single publish() and a publish_group() run the same protocol: one
//     fence makes the entries durable, a second makes them reachable.
//   * replace — the new node is linked at the chain head.  When the old node
//     is the head, that store swaps old for new atomically; otherwise the
//     old node is unlinked afterwards, and a crash in between leaves a benign
//     shadowed duplicate (the head entry wins) that the next put/erase of
//     the key sweeps, deepest-first, before it links anything.
//   * erase/unlink — one 8-byte pointer store.
//   * rehash  — links the existing nodes into a new bucket array in place:
//     each node has one next word per bucket-array generation, the array
//     records which one its chains follow, and the rebuild writes only the
//     other one, so the live chains never change.  The array carries its
//     own bucket count and generation, so one 8-byte store of its offset
//     into the header swaps it in; a crash before that store only leaks the
//     new array.
//
// Read path: the persistent header and the bucket heads are mirrored in
// DRAM (loaded at construction, updated only once the matching persistent
// store is durable), and each chain node's fixed header, which carries its
// key's hash, is fetched with one PMEM read — the key bytes with a second
// read only when the hash and the key length match (DESIGN.md §8,
// "Hashtable read path").
//
// Thread-safety: operations take one of 64 stripe locks chosen by bucket
// index, so every key of a chain shares one lock while ranks writing
// different variables proceed in parallel (the paper's "metadata updates
// were parallelized").  One HashTable instance must be shared by all threads
// operating on the same persistent table, and it must be the only one in
// use: another instance's mirror would not see this one's head changes or
// growth.
#pragma once

#include <pmemcpy/obj/pool.hpp>

#include <array>
#include <atomic>
#include <functional>
#include <optional>
#include <span>
#include <string_view>

namespace pmemcpy::obj {

/// Reference to a stored value.
struct ValueRef {
  std::uint64_t node_off = 0;
  std::uint64_t val_off = 0;
  std::uint64_t val_size = 0;
  std::uint64_t meta = 0;
};

class HashTable {
 public:
  /// Allocate a new table (header + zeroed bucket array) in @p pool.
  static HashTable create(Pool& pool, std::size_t nbuckets);
  /// Bind to an existing table whose header lives at @p header_off.
  static HashTable open(Pool& pool, std::uint64_t header_off);

  HashTable(HashTable&&) noexcept = default;
  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;
  HashTable& operator=(HashTable&&) = delete;

  /// Pool offset of the persistent header (store it as the pool root).
  [[nodiscard]] std::uint64_t header_off() const noexcept { return hoff_; }

  /// Two-phase insert: the value span can be filled (e.g. serialized into)
  /// in place; nothing is visible until publish().  An unpublished Inserter
  /// frees its allocations on destruction.
  class Inserter {
   public:
    ~Inserter();
    Inserter(Inserter&& o) noexcept;
    Inserter(const Inserter&) = delete;
    Inserter& operator=(const Inserter&) = delete;
    Inserter& operator=(Inserter&&) = delete;

    /// Charged, crash-tracked writable span over the reserved blob.
    [[nodiscard]] std::span<std::byte> value();
    /// Overwrite the high 32 bits of the entry's meta word (the blob
    /// checksum slot) before publishing.
    void set_meta_high(std::uint32_t hi);
    /// Persist the blob + node and link the entry (replacing any existing
    /// entry with the same key): a publish_group() of one, traced as
    /// ht.publish, whose checker scope commits once the publish is done.
    /// With @p keep_existing an existing entry wins instead and the
    /// reservation is discarded; returns whether this entry was linked.
    bool publish(bool keep_existing = false);

    /// Close this reservation's persistency-checker scope early, for group
    /// staging.  The checker's scope stack is strictly LIFO per thread, but
    /// a batch stager interleaves reservations (across buckets) and
    /// publishes them in a different order — so each staged
    /// scope must be popped while it is still the innermost one, i.e. right
    /// after the value is serialized and before the next reservation.  The
    /// staged lines stay deliberately dirty; publish_group()'s coalesced
    /// flush pass cleans them and its check_publish() verifies that.
    void close_checker_scope();

   private:
    friend class HashTable;
    Inserter(HashTable& t, std::string_view key, std::uint64_t hash,
             std::uint64_t node_off, std::uint64_t val_off,
             std::uint64_t val_size, std::uint64_t meta);
    /// Free the never-linked reservation and disown it first, so a fault
    /// part-way cannot make the destructor free it a second time.
    void drop();
    HashTable* table_;
    std::string key_;
    std::uint64_t hash_;  ///< the key's hash, staged in the node header
    std::uint64_t node_off_;
    std::uint64_t val_off_;
    std::uint64_t val_size_;
    std::uint64_t meta_;  ///< the node's meta word, kept so it is never re-read
    bool published_ = false;
    bool scope_open_ = true;
  };

  /// Reserve an entry with a @p val_size-byte value blob.
  [[nodiscard]] Inserter reserve(std::string_view key, std::size_t val_size,
                                 std::uint64_t meta = 0);

  /// One member of a group publish: a staged reservation plus its
  /// keep-existing flag.  publish_group() sets @p linked to whether the
  /// entry went in (false = discarded: a duplicate within the batch, or
  /// keep_existing lost to an existing entry).
  struct GroupPut {
    Inserter* ins = nullptr;
    bool keep_existing = false;
    bool linked = false;
  };

  /// Group commit: make every staged reservation in @p puts durable and
  /// visible with two fences total, whatever the batch size (see link()).
  /// All Inserters must belong to this table; already-published ones are
  /// skipped, and the rest are consumed (linked or freed) unless a fault
  /// unwinds, which leaves the unreachable ones to their destructors.
  void publish_group(std::span<GroupPut> puts);
  /// One-shot insert/replace copying @p len bytes.
  void put(std::string_view key, const void* data, std::size_t len,
           std::uint64_t meta = 0);

  [[nodiscard]] std::optional<ValueRef> find(std::string_view key) const;
  /// Remove @p key; returns false if absent.
  bool erase(std::string_view key);

  /// Entry count and bucket count, from the DRAM header mirror (no PMEM
  /// read).
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t nbuckets() const;

  /// Rebuild with a new bucket count, relinking the nodes in place (see
  /// file comment).
  void rehash(std::size_t new_nbuckets);

  /// Enable automatic geometric growth: when the load factor exceeds 4 the
  /// table rehashes to 4x the buckets after the triggering insert.  The
  /// load factor is re-checked once every stripe is held, so concurrent
  /// publishers crossing the same threshold rebuild the table once.  Off by
  /// default so fixed-size tables stay fixed (e.g. for ablations).
  void set_auto_grow(bool on) noexcept {
    s_->auto_grow.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool auto_grow() const noexcept {
    return s_->auto_grow.load(std::memory_order_relaxed);
  }

  /// Iterate all entries (takes all stripe locks, released even if @p fn
  /// throws; don't mutate from @p fn).
  void for_each(
      const std::function<void(std::string_view, const ValueRef&)>& fn) const;
  /// Iterate entries whose key starts with @p prefix (same locking as
  /// for_each); a key shorter than the prefix is skipped on its node
  /// header, without reading the key.
  void for_each_prefix(
      std::string_view prefix,
      const std::function<void(std::string_view, const ValueRef&)>& fn) const;

 private:
  static constexpr std::size_t kStripes = 64;

  /// DRAM state shared by every thread using the table: the stripe locks
  /// and the mirror of the persistent header, the bucket count and the
  /// bucket heads.  The persistent image stays the source of truth; the
  /// mirror changes only after the corresponding store is durable (count, a
  /// head, or the rehash's swap of buckets_off, which brings the new array's
  /// nbuckets, gen and heads with it), or, when a publish's visibility step
  /// faults, to the heads and count the media then holds.
  struct Shared {
    std::array<std::mutex, kStripes> stripes;
    /// Serializes the count stores and each publish's visibility step
    /// (head and count stores through their drain); taken after stripes.
    std::mutex count_mu;
    /// Read without a lock to pick a stripe; written under every stripe.
    std::atomic<std::uint64_t> nbuckets{0};
    std::uint64_t buckets_off = 0;  ///< read under any stripe lock
    /// Which of a node's two next words the live chains follow; read under
    /// any stripe lock.
    std::uint64_t gen = 0;
    /// The bucket heads: heads[b] is read and written under bucket b's
    /// stripe, and the whole vector is replaced under every stripe.  A head
    /// whose line open() could not read is marked unread (see head()).
    std::vector<std::uint64_t> heads;
    std::atomic<std::uint64_t> count{0};
    /// Set by every rank's engine open while other ranks publish.
    std::atomic<bool> auto_grow{false};
  };

  /// One chain position matching a key, with the node's live next pointer
  /// and value offset as read during the walk.
  struct Match {
    std::uint64_t prev = 0;  ///< predecessor node, 0 = bucket head
    std::uint64_t node = 0;
    std::uint64_t next = 0;
    std::uint64_t val_off = 0;
    std::size_t depth = 0;  ///< chain position, 0 = bucket head
  };

  /// The bucket count is heads.size().
  HashTable(Pool& pool, std::uint64_t hoff, std::uint64_t buckets_off,
            std::uint64_t gen, std::uint64_t count,
            std::vector<std::uint64_t> heads);

  /// Pool offset of bucket @p b's head slot; read under any stripe lock.
  [[nodiscard]] std::uint64_t bucket_slot(std::uint64_t b) const;
  /// Bucket @p b's head, from the mirror; a head marked unread is read from
  /// media (pmem::DeviceError while its line still fails) and mirrored.
  /// Called under bucket b's stripe.
  [[nodiscard]] std::uint64_t head(std::uint64_t b) const;
  /// Lock the stripe guarding the chain of keys hashing to @p hash into
  /// @p lk and return the chain's bucket.
  std::uint64_t lock_bucket(std::uint64_t hash,
                            std::unique_lock<std::mutex>& lk) const;
  /// Every position of bucket @p b's chain holding @p key (hash @p hash),
  /// head-first.  More than one match is a crash leftover: an overwrite
  /// that published its new head but lost power before unlinking the
  /// superseded node.
  [[nodiscard]] std::vector<Match> find_chain(std::uint64_t b,
                                              std::string_view key,
                                              std::uint64_t hash) const;
  /// Unlink @p node (whose predecessor is @p prev, 0 = the head of bucket
  /// @p b) and free its storage.
  void unlink_free(std::uint64_t b, std::uint64_t prev, std::uint64_t node);
  /// The one publish protocol behind publish() and publish_group() (see
  /// DESIGN.md §8), for unpublished reservations of this table:
  ///   1. resolve within-batch duplicate keys (replace: last wins;
  ///      keep_existing: first wins) and take the winners' stripe locks;
  ///   2. walk each winner's chain once, recording every match of its key
  ///      and the match's predecessor.  Crash leftovers (a key matched more
  ///      than once) are swept deepest-first before anything is linked;
  ///   3. wire the winners into per-bucket shadow chains with plain stores
  ///      of their live next pointers.  A winner replacing the bucket head
  ///      points past it, so the head store swaps old for new atomically;
  ///   4. fence #1 — one coalesced flush of every blob + node (next pointers
  ///      included) and one drain.  Nothing is reachable yet;
  ///   5. fence #2 — the bucket-head stores and the count, one coalesced
  ///      flush and one drain, under count_mu;
  ///   6. unlink superseded mid-chain entries deepest-first, then free them
  ///      and the discarded reservations.
  /// A linked reservation is marked published as soon as its head store may
  /// be visible, so an unwinding fault never frees reachable storage; one
  /// whose head store never landed (or was reverted) stays unpublished for
  /// its destructor to free.  Returns the number of new keys.
  std::size_t link(std::span<GroupPut* const> puts);
  [[nodiscard]] bool over_load() const noexcept;
  void maybe_grow();
  /// Link every node into a new bucket array through its other next word
  /// and swap the array in; every stripe must be held.
  void rebuild(std::size_t new_nbuckets);
  void bump_count(std::int64_t delta);

  Pool* pool_;
  std::uint64_t hoff_;
  std::unique_ptr<Shared> s_ = std::make_unique<Shared>();
};

}  // namespace pmemcpy::obj
