#include <pmemcpy/obj/pool.hpp>

#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <new>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace pmemcpy::obj {

namespace {

constexpr std::uint64_t kMagic = 0x504d454d43505921ull;  // "PMEMCPY!"
// v2: allocator metadata split into AllocGlobal + 16 striped
// free-list states with one undo lane each (DESIGN.md §14).
// v3: the transaction lanes are gone; the heap starts right after the
// allocator undo lanes.
// v4: one free-list block and one allocator undo lane; the heap starts at
// 12 KiB.
// v5: a hashtable node carries one next word per bucket-array generation,
// and its bucket array records which one its chains follow.
// v6: a hashtable node header carries its key's hash (48 bytes).
constexpr std::uint32_t kVersion = 6;
constexpr std::size_t kChunkAlign = 64;
constexpr std::size_t kChunkHeader = 16;
/// Minimum remainder worth splitting off a large free chunk.
constexpr std::size_t kSplitMin = 4096;

/// Chunk sizes (header + payload) served from per-class free lists.
constexpr std::array<std::size_t, 11> kClassSizes = {
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
constexpr std::uint32_t kLargeClass = 0xFFFFFFFFu;
/// Seed of the chunk-header checksum; doubles as the old magic constant, so
/// the check word can only validate if it was produced by make_chunk().
constexpr std::uint32_t kChunkMagic = 0xA110C8EDu;

constexpr std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

/// Size class whose chunk (header + payload) covers @p need total bytes;
/// kLargeClass when none does.
constexpr std::uint32_t class_for(std::size_t need) {
  for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
    if (kClassSizes[c] >= need) return static_cast<std::uint32_t>(c);
  }
  return kLargeClass;
}

struct PoolHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t pad;
  std::uint64_t size;
  std::uint64_t root;
  std::uint32_t crc;  // CRC32C over all preceding fields
  std::uint32_t pad2;
};
static_assert(sizeof(PoolHeader) == 40);
static_assert(offsetof(PoolHeader, crc) == 32);

std::uint32_t header_crc(const PoolHeader& h) {
  return crc32c(&h, offsetof(PoolHeader, crc));
}

/// Globally shared allocator state: the bump arena, the first-fit large
/// list and the in-use byte counter (magazine-held chunks count as in-use).
struct AllocGlobal {
  std::uint64_t arena_cursor;
  std::uint64_t arena_end;
  std::uint64_t bytes_in_use;
  std::uint64_t large_free_head;
};

/// The size-class free-list heads.
struct FreeLists {
  std::uint64_t free_head[kClassSizes.size()];
};
static_assert(sizeof(FreeLists) == 88);

/// Set in ChunkHeader::cls while a chunk is magazine-owned: carved out of
/// the free lists but not yet handed to a caller (owned-but-unpublished).
/// Recovery sweeps flagged chunks back to the free lists.  kLargeClass has
/// every bit set, so the flag alone is not enough — see is_magged().
constexpr std::uint32_t kMagFlag = 0x80000000u;

constexpr bool is_magged(std::uint32_t cls) {
  return cls != kLargeClass && (cls & kMagFlag) != 0;
}

constexpr std::uint32_t base_class(std::uint32_t cls) {
  return cls == kLargeClass ? cls : (cls & ~kMagFlag);
}

struct ChunkHeader {
  std::uint64_t payload_size;
  std::uint32_t cls;    // index into kClassSizes, or kLargeClass
  std::uint32_t check;  // CRC32C of the fields above, seeded with kChunkMagic
};
static_assert(sizeof(ChunkHeader) == kChunkHeader);

std::uint32_t chunk_check(const ChunkHeader& h) {
  return crc32c(&h, offsetof(ChunkHeader, check), kChunkMagic);
}

ChunkHeader make_chunk(std::uint64_t payload_size, std::uint32_t cls) {
  ChunkHeader h{payload_size, cls, 0};
  h.check = chunk_check(h);
  return h;
}

bool chunk_ok(const ChunkHeader& h) { return h.check == chunk_check(h); }

struct LogEntryHeader {
  std::uint64_t off;
  std::uint64_t len;
};

// Persistent quarantine table (DESIGN.md §10): a header whose count/crc pair
// fits one atomic 8-byte store, followed by (off, len) entries.  All-zero is
// the valid empty table, so a freshly formatted pool needs no extra stores.
struct QuarHeader {
  std::uint32_t count;
  std::uint32_t crc;  ///< CRC32C over the first `count` entries; 0 when empty
};
static_assert(sizeof(QuarHeader) == 8);

struct QuarEntry {
  std::uint64_t off;
  std::uint64_t len;
};
static_assert(sizeof(QuarEntry) == 16);

std::uint32_t quar_table_crc(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& q) {
  std::vector<QuarEntry> ents;
  ents.reserve(q.size());
  for (const auto& [off, len] : q) ents.push_back({off, len});
  return ents.empty() ? 0u
                      : crc32c(ents.data(), ents.size() * sizeof(QuarEntry));
}

/// The lowest-starting quarantined range overlapping [at, at+len), or
/// nullptr: the one skip rule of every arena walk (the bump allocator hops
/// past it, and the heap walk does the same where no filler header sits).
const std::pair<std::uint64_t, std::uint64_t>* lowest_overlap(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& quar,
    std::uint64_t at, std::uint64_t len) {
  const std::pair<std::uint64_t, std::uint64_t>* hit = nullptr;
  for (const auto& q : quar) {
    if (q.first < at + len && at < q.first + q.second &&
        (hit == nullptr || q.first < hit->first)) {
      hit = &q;
    }
  }
  return hit;
}

/// The bump arena lies in [heap0, size) with a 64-byte-aligned cursor.
bool arena_ok(const AllocGlobal& ag, std::uint64_t heap0, std::uint64_t size) {
  return ag.arena_cursor >= heap0 && ag.arena_cursor <= ag.arena_end &&
         ag.arena_end <= size && ag.arena_cursor % kChunkAlign == 0;
}

std::string list_name(std::uint32_t cls) {
  return cls == kLargeClass
             ? std::string("large free list")
             : "free list[" + std::to_string(kClassSizes[cls]) + "]";
}

}  // namespace

struct Pool::Layout {
  static constexpr std::uint64_t kHeaderOff = 64;
  /// Quarantine table: header at kQuarOff, entries right behind it, all in
  /// the metadata gap between the pool header and the allocator state.
  static constexpr std::uint64_t kQuarOff = 128;
  static constexpr std::uint64_t kQuarEntries = kQuarOff + sizeof(QuarHeader);
  static constexpr std::uint64_t kAllocOff = 4096;
  static constexpr std::uint64_t kFreeListsOff = 4224;
  /// The allocator undo lane: [u64 used][pre-image entries].  The pool's
  /// only undo log: it makes the multi-store free-list/arena mutations
  /// crash-atomic.  alloc_mu_ admits one allocator batch at a time, so one
  /// lane is all the concurrency the host has.
  static constexpr std::uint64_t kUndoOff = 8192;
  static constexpr std::uint64_t kUndoBytes = 4096 - 8;
  static constexpr std::uint64_t heap_start() {
    return kUndoOff + 8 + kUndoBytes;
  }
  static_assert(kHeaderOff + sizeof(PoolHeader) <= kQuarOff,
                "pool header must not overlap the quarantine table");
  static_assert(kQuarEntries + Pool::kQuarantineCapacity * sizeof(QuarEntry) <=
                    kAllocOff,
                "quarantine table must not overlap the allocator state");
  static_assert(kAllocOff + sizeof(AllocGlobal) <= kFreeListsOff,
                "global alloc state must not overlap the free lists");
  static_assert(kFreeListsOff + sizeof(FreeLists) <= kUndoOff,
                "free lists must not overlap the allocator undo lane");
  static constexpr std::uint64_t head_off(std::size_t cls) {
    return kFreeListsOff + offsetof(FreeLists, free_head) + cls * 8;
  }
};

/// Per-thread cache of pre-carved chunks, one stack per size class.  A
/// magazine is owned by exactly one thread; only its refill/flush-back
/// batches touch shared state (under alloc_mu_).
struct Pool::Magazine {
  std::array<std::vector<std::uint64_t>, kClassSizes.size()> chunks;
};

/// DRAM-side allocator runtime.  Heap-allocated so Pool stays movable;
/// keyed by std::thread::id (not rank) so raw-thread tests that share a
/// rank still get private magazines.
struct Pool::AllocRuntime {
  std::mutex mu;  ///< guards mags (lookup/insert only; magazines themselves
                  ///< are single-owner)
  std::unordered_map<std::thread::id, std::unique_ptr<Magazine>> mags;
  /// Nonempty quarantine table: the pool is degrading, every fast path is
  /// disabled and allocation falls back to the fully validated classic
  /// path.  Read unlocked by the fast paths, written under alloc_mu_.
  std::atomic<bool> quar_active{false};
  std::atomic<bool> map_sync{false};
  std::atomic<int> contenders{1};
  std::atomic<int> mag_size{0};  ///< refill batch K; 0 = magazines off
};

Pool::Pool(pmem::Device& dev, std::size_t base, std::size_t size,
           PoolOptions opts)
    : dev_(&dev),
      base_(base),
      size_(size),
      art_(std::make_unique<AllocRuntime>()) {
  set_map_sync(opts.map_sync);
}

Pool::Pool(Pool&&) noexcept = default;

Pool::~Pool() = default;

Pool Pool::create(pmem::Device& dev, std::size_t base, std::size_t size,
                  PoolOptions opts) {
  if (base + size > dev.capacity()) {
    throw PoolError("Pool::create: region exceeds device capacity");
  }
  if (size < Layout::heap_start() + 64 * 1024) {
    throw PoolError("Pool::create: pool too small");
  }
  Pool p(dev, base, size, opts);
  p.format();
  return p;
}

Pool Pool::open(pmem::Device& dev, std::size_t base, PoolOptions opts) {
  if (base + sizeof(PoolHeader) + Layout::kHeaderOff > dev.capacity()) {
    throw PoolError("Pool::open: region beyond device capacity");
  }
  Pool p(dev, base, /*size=*/dev.capacity() - base, opts);
  const auto hdr = p.get<PoolHeader>(Layout::kHeaderOff);
  if (hdr.magic != kMagic) throw PoolError("Pool::open: bad magic");
  if (hdr.version != kVersion) throw PoolError("Pool::open: bad version");
  if (hdr.crc != header_crc(hdr)) {
    throw PoolError("Pool::open: pool header checksum mismatch");
  }
  if (hdr.size > dev.capacity() - base || hdr.size < Layout::heap_start()) {
    throw PoolError("Pool::open: header size outside the device");
  }
  p.size_ = hdr.size;
  p.recover();
  p.quar_ = p.decode_quarantine(Load::kPeek);
  p.art_->quar_active.store(!p.quar_.empty(), std::memory_order_release);
  // After rollbacks and with the quarantine known: reclaim chunks a crash
  // left magazine-flagged (owned-but-unpublished) back to the free lists.
  p.sweep_magazines();
  return p;
}

void Pool::format() {
  // A re-created pool must not inherit a previous life's quarantine table.
  // Peeked uncharged and only cleared when stale state is actually present,
  // so formatting fresh media issues exactly the same store/flush sequence
  // as before the table existed (the audit baseline).
  const auto stale = load<QuarHeader>(Layout::kQuarOff, Load::kPeek);
  if (stale.count != 0 || stale.crc != 0) {
    set(Layout::kQuarOff, QuarHeader{0, 0});
  }

  // The free lists and the allocator undo lane are likewise only cleared
  // when a previous pool life actually left stale bytes behind: all-zero is
  // the valid empty form, so formatting fresh media stays cheap.
  const auto stale_fl = load<FreeLists>(Layout::kFreeListsOff, Load::kPeek);
  if (std::any_of(std::begin(stale_fl.free_head), std::end(stale_fl.free_head),
                  [](std::uint64_t h) { return h != 0; })) {
    set(Layout::kFreeListsOff, FreeLists{});
  }
  if (load<std::uint64_t>(Layout::kUndoOff, Load::kPeek) != 0) {
    set<std::uint64_t>(Layout::kUndoOff, 0);
  }

  AllocGlobal ag{};
  ag.arena_cursor = Layout::heap_start();
  ag.arena_end = size_;
  ag.bytes_in_use = 0;
  ag.large_free_head = 0;
  set(Layout::kAllocOff, ag);

  // Header goes last: a crash mid-format leaves an unopenable (unformatted)
  // pool rather than a corrupt one.
  PoolHeader hdr{};
  hdr.magic = kMagic;
  hdr.version = kVersion;
  hdr.size = size_;
  hdr.root = 0;
  hdr.crc = header_crc(hdr);
  set(Layout::kHeaderOff, hdr);
}

bool Pool::map_sync() const noexcept {
  return art_->map_sync.load(std::memory_order_relaxed);
}

void Pool::set_map_sync(bool on) noexcept {
  art_->map_sync.store(on, std::memory_order_relaxed);
}

void Pool::set_expected_contenders(int n) noexcept {
  art_->contenders.store(std::max(n, 1), std::memory_order_relaxed);
}

void Pool::set_magazine_size(int k) noexcept {
  art_->mag_size.store(std::clamp(k, 0, kMaxMagazineSize),
                       std::memory_order_relaxed);
}

int Pool::magazine_size() const noexcept {
  return art_->mag_size.load(std::memory_order_relaxed);
}

void Pool::check_off(std::uint64_t off, std::size_t len) const {
  if (off > size_ || len > size_ - off) {
    throw std::out_of_range("Pool: access beyond pool size");
  }
}

void Pool::write(std::uint64_t off, const void* src, std::size_t len) {
  check_off(off, len);
  dev_->store(base_ + off, src, len, map_sync());
}

void Pool::read(std::uint64_t off, void* dst, std::size_t len) const {
  check_off(off, len);
  dev_->load(base_ + off, dst, len, map_sync());
}

void Pool::persist(std::uint64_t off, std::size_t len) {
  check_off(off, len);
  dev_->persist(base_ + off, len);
}

void Pool::flush(std::uint64_t off, std::size_t len) {
  check_off(off, len);
  dev_->flush(base_ + off, len);
}

std::span<std::byte> Pool::direct_write_span(std::uint64_t off,
                                             std::size_t len) {
  check_off(off, len);
  return dev_->store_span(base_ + off, len, map_sync());
}

std::span<const std::byte> Pool::direct_read_span(std::uint64_t off,
                                                  std::size_t len) const {
  check_off(off, len);
  return dev_->load_span(base_ + off, len);
}

std::uint64_t Pool::root() const {
  return get<PoolHeader>(Layout::kHeaderOff).root;
}

void Pool::set_root(std::uint64_t off) {
  // Rewrite the whole header so the checksum stays valid.  40 bytes within
  // one cacheline: atomic under the crash model.
  auto hdr = get<PoolHeader>(Layout::kHeaderOff);
  hdr.root = off;
  hdr.crc = header_crc(hdr);
  set(Layout::kHeaderOff, hdr);
}

// ---------------------------------------------------------------------------
// On-media decoders (DESIGN.md §6)
// ---------------------------------------------------------------------------

void Pool::load(std::uint64_t off, void* dst, std::size_t len,
                Load how) const {
  if (how == Load::kCharged) {
    read(off, dst, len);
    return;
  }
  check_off(off, len);
  std::memcpy(dst, dev_->raw(base_ + off), len);
}

Pool::Quarantine Pool::decode_quarantine(Load how) const {
  const auto qh = load<QuarHeader>(Layout::kQuarOff, how);
  if (qh.count == 0) {
    if (qh.crc != 0) {
      throw PoolError("quarantine table: checksum without entries");
    }
    return {};
  }
  if (qh.count > kQuarantineCapacity) {
    throw PoolError("quarantine table: count " + std::to_string(qh.count) +
                    " exceeds capacity");
  }
  std::vector<QuarEntry> ents(qh.count);
  load(Layout::kQuarEntries, ents.data(), ents.size() * sizeof(QuarEntry),
       how);
  if (crc32c(ents.data(), ents.size() * sizeof(QuarEntry)) != qh.crc) {
    throw PoolError("quarantine table: checksum mismatch");
  }
  Quarantine quar;
  for (const auto& e : ents) {
    if (e.len == 0 || e.off % pmem::kCacheLine != 0 ||
        e.len % pmem::kCacheLine != 0 || e.off > size_ ||
        e.len > size_ - e.off) {
      throw PoolError("quarantine table: entry (" + std::to_string(e.off) +
                      ", " + std::to_string(e.len) + ") corrupt");
    }
    quar.emplace_back(e.off, e.len);
  }
  return quar;
}

template <typename Fn>
void Pool::walk_heap(std::uint64_t cursor, const Quarantine& quar, Load how,
                     Fn&& fn) const {
  for (std::uint64_t pos = Layout::heap_start(); pos < cursor;) {
    const auto ch = load<ChunkHeader>(pos, how);
    if (!chunk_ok(ch)) {
      // The allocator hops quarantined media without writing a filler
      // header when the quarantined range covers the header spot itself.
      if (const auto* hit = lowest_overlap(quar, pos, kChunkHeader)) {
        pos = round_up(hit->first + hit->second, kChunkAlign);
        continue;
      }
      throw PoolError("heap walk: corrupt chunk header at " +
                      std::to_string(pos));
    }
    const std::uint64_t room = cursor - pos;
    const std::uint64_t adv =
        ch.payload_size < room ? kChunkHeader + ch.payload_size : 0;
    if (adv < kChunkAlign || adv > room || adv % kChunkAlign != 0) {
      throw PoolError("heap walk: chunk at " + std::to_string(pos) +
                      " overruns the arena (overlap or corrupt size)");
    }
    fn(pos, ch);
    pos += adv;
  }
}

template <typename Fn>
void Pool::walk_free_list(std::uint32_t cls, std::uint64_t head,
                          std::uint64_t cursor, Fn&& fn) const {
  const std::uint64_t heap0 = Layout::heap_start();
  std::uint64_t hops = 0;
  for (std::uint64_t cur = head; cur != 0;) {
    if (cur < heap0 || cur >= cursor || cursor - cur < kChunkAlign ||
        cur % kChunkAlign != 0) {
      throw PoolError(list_name(cls) + ": entry " + std::to_string(cur) +
                      " outside the heap");
    }
    // No legal list holds more entries than the arena holds chunks.
    if (++hops > (cursor - heap0) / kChunkAlign) {
      throw PoolError(list_name(cls) + ": cycle detected");
    }
    const auto next = get<std::uint64_t>(cur + kChunkHeader);
    if (!fn(cur, next)) return;
    cur = next;
  }
}

std::vector<std::uint64_t> Pool::undo_lane_entries() const {
  const std::string lane = "allocator undo lane: ";
  const auto used = get<std::uint64_t>(Layout::kUndoOff);
  if (used > Layout::kUndoBytes) {
    throw PoolError(lane + "used " + std::to_string(used) +
                    " exceeds capacity " + std::to_string(Layout::kUndoBytes));
  }
  std::vector<std::uint64_t> entries;
  const std::uint64_t end = Layout::kUndoOff + 8 + used;
  for (std::uint64_t pos = Layout::kUndoOff + 8; pos < end;) {
    const auto truncated = [&] {
      return PoolError(lane + "truncated entry at " + std::to_string(pos));
    };
    if (end - pos < sizeof(LogEntryHeader)) throw truncated();
    const auto eh = get<LogEntryHeader>(pos);
    if (eh.len > size_ || eh.off > size_ - eh.len) {
      throw PoolError(lane + "entry at " + std::to_string(pos) +
                      " targets a range beyond the pool");
    }
    const std::uint64_t adv = sizeof(LogEntryHeader) + round_up(eh.len, 8);
    if (adv > end - pos) throw truncated();
    entries.push_back(pos);
    pos += adv;
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Allocator
// ---------------------------------------------------------------------------

std::unique_lock<std::mutex> Pool::lock_allocator() {
  std::unique_lock lk(*alloc_mu_);
  trace::count(trace::Counter::kAllocLaneAcquisitions);
  // Deterministic stand-in for lock contention: rank clocks drift apart and
  // resynchronise only at collectives, so modelling an actual wait on
  // another rank's (possibly lagging) simulated clock would be unsound.
  // Instead every metadata op is charged the expected queueing share: one
  // slot per other contender, since every rank queues on this one lock.
  const int contenders = art_->contenders.load(std::memory_order_relaxed);
  if (contenders <= 1) return lk;
  auto& c = sim::ctx();
  const double delay =
      static_cast<double>(contenders - 1) * c.model().pmem.pool_op_queue_cost;
  c.advance(delay, sim::Charge::kOther);
  trace::observe(trace::Hist::kShardQueueDelay, delay);
  trace::count(trace::Counter::kAllocQueueCharges);
  return lk;
}

template <typename Mutate>
void Pool::undo_tx(const char* scope, Mutate&& mutate) {
  dev_->check_tx_begin(scope);
  try {
    mutate();
  } catch (...) {
    // A fault mid-mutation (e.g. sticky media surfacing under a store) exits
    // through here with the heap half-changed; the undo lane the mutation
    // pre-images through is designed for crash recovery but rolls the live
    // image back just as well.  Best effort: any other rollback failure is
    // dropped, so the original fault propagates.
    try {
      rollback_log();
    } catch (const pmem::DeviceError&) {
      // The media under the allocator state itself died mid-rollback: the
      // fault being unwound names a different range, so THIS error is the
      // one the healing path must see — quarantining the dead metadata
      // flips the allocator into its degraded mode and tells check() the
      // stored counters are scarred.  The half-rolled-back batch stays
      // pending in the durable undo lane for the next open to replay.
      dev_->check_tx_abort();
      throw;
    } catch (...) {
    }
    dev_->check_tx_abort();
    throw;
  }
  dev_->check_tx_commit();
}

bool Pool::free_lists_failing() const {
  return dev_->media_failing(base_ + Layout::kFreeListsOff, sizeof(FreeLists));
}

Pool::Magazine& Pool::magazine() {
  const auto id = std::this_thread::get_id();
  std::lock_guard lk(art_->mu);
  auto& slot = art_->mags[id];
  if (!slot) slot = std::make_unique<Magazine>();
  return *slot;
}

std::uint64_t Pool::alloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  trace::Span span("pool.alloc");
  trace::count(trace::Counter::kAllocOps);
  trace::count(trace::Counter::kAllocBytes, bytes);
  trace::observe(trace::Hist::kAllocSize, static_cast<double>(bytes));

  // Fast path: pop a pre-carved chunk from this thread's magazine.  No lock,
  // no queueing charge, no undo transaction — the chunk is already durably
  // flagged owned-but-unpublished, so the only persistent work is sealing
  // the header back to a normal allocation.  Disabled entirely while the
  // quarantine table is nonempty (a degrading pool takes the fully
  // validated classic path).
  const std::size_t need = round_up(bytes + kChunkHeader, kChunkAlign);
  const std::uint32_t cls = class_for(need);
  if (cls != kLargeClass && magazine_size() > 0 &&
      !art_->quar_active.load(std::memory_order_acquire)) {
    Magazine& m = magazine();
    auto& stack = m.chunks[cls];
    if (stack.empty() && refill_magazine(m, cls) == 0) throw std::bad_alloc{};
    const std::uint64_t chunk = stack.back();
    stack.pop_back();
    // Seal: rewrite the header unflagged — a plain store, no flush, no
    // fence.  The header shares its cacheline with the payload's first
    // bytes (kChunkHeader < one line), and every correct publisher writes
    // the payload from byte 0 and flushes + fences the content before the
    // store that makes the chunk reachable — that pass covers this line,
    // so the seal is durable before reachability.  (Flushing here instead
    // would leave a flushed-but-unfenced line the publisher's payload
    // stores then land on — a persistency-order violation.)  A crash
    // before the publisher's fence leaves the durable header flagged and
    // the chunk unreachable, so the recovery sweep reclaims it; a crash
    // after the flush but before publish leaves it unflagged-unreachable,
    // the same bounded leak the classic alloc already accepts.
    const ChunkHeader h = make_chunk(kClassSizes[cls] - kChunkHeader, cls);
    write(chunk, &h, sizeof(h));
    trace::count(trace::Counter::kAllocMagazineHits);
    return chunk + kChunkHeader;
  }

  const auto lk = lock_allocator();
  std::uint64_t off = 0;
  undo_tx("pool.alloc", [&] { off = alloc_locked(bytes); });
  return off;
}

std::uint64_t Pool::alloc_locked(std::size_t bytes) {
  const std::size_t need = round_up(bytes + kChunkHeader, kChunkAlign);
  const std::uint64_t as_off = Layout::kAllocOff;
  const auto as = get<AllocGlobal>(as_off);

  // Phase 1 — decide (reads only): pick the chunk and precompute every
  // mutation, so phase 2 can log pre-images before anything changes.
  const std::uint32_t cls = class_for(need);
  std::size_t chunk_size = cls != kLargeClass ? kClassSizes[cls] : 0;

  std::uint64_t chunk = 0;
  std::uint64_t lnext = 0;  // successor of the chosen free-list chunk
  std::uint64_t prev = 0;   // free-list predecessor of the choice (0 = head)
  std::uint64_t rest = 0;   // split remainder, if any
  std::uint64_t rest_payload = 0;
  bool from_class_list = false;
  bool from_large_list = false;

  // A free chunk is eligible only when it avoids quarantined media and its
  // unlink store (the predecessor's next pointer) lands on healthy media —
  // quarantined neighbours stay linked in place and are skipped forever.
  const auto linkable = [&](std::uint64_t p) {
    return p == 0 || !dev_->media_failing(base_ + p + kChunkHeader, 8);
  };

  // Unlinking a list head stores into the free-list block; with its media
  // dead the class lists keep their chunks linked in place (bounded leak,
  // same rule as quarantined chunks) and the arena serves instead.
  if (cls != kLargeClass && !free_lists_failing()) {
    std::uint64_t p = 0;
    const auto first_eligible = [&](std::uint64_t cur, std::uint64_t next) {
      if ((quar_.empty() || !quar_hit(cur, chunk_size)) && linkable(p)) {
        chunk = cur;
        lnext = next;
        prev = p;
        from_class_list = true;
        return false;
      }
      p = cur;
      return true;
    };
    walk_free_list(cls, get<FreeLists>(Layout::kFreeListsOff).free_head[cls],
                   as.arena_cursor, first_eligible);
  }
  if (cls == kLargeClass) {
    chunk_size = need;
    const auto first_fit = [&](std::uint64_t cur, std::uint64_t next) {
      const auto hdr = get<ChunkHeader>(cur);
      const std::size_t total = hdr.payload_size + kChunkHeader;
      if (total >= need && (quar_.empty() || !quar_hit(cur, total)) &&
          linkable(prev)) {
        chunk = cur;
        lnext = next;
        from_large_list = true;
        if (total - need >= kSplitMin) {
          rest = cur + need;
          rest_payload = total - need - kChunkHeader;
          chunk_size = need;
        } else {
          chunk_size = total;
        }
        return false;
      }
      prev = cur;
      return true;
    };
    walk_free_list(cls, as.large_free_head, as.arena_cursor, first_fit);
  }

  // Arena gaps hopped over quarantined media.  When the header spot is on
  // healthy media the gap is tiled with a checksummed filler chunk (kept
  // permanently in use); when the quarantined range covers the header spot
  // itself, nothing is written and check()'s heap walk skips the stretch via
  // the quarantine table.
  struct GapChunk {
    std::uint64_t at;
    std::uint64_t payload;
  };
  std::vector<GapChunk> gaps;

  if (chunk == 0) {
    // Bump arena.
    std::uint64_t at = round_up(as.arena_cursor, kChunkAlign);
    while (const auto* hit = lowest_overlap(quar_, at, chunk_size)) {
      const std::uint64_t skip_to =
          round_up(hit->first + hit->second, kChunkAlign);
      if (hit->first > at) gaps.push_back({at, skip_to - at - kChunkHeader});
      at = skip_to;
    }
    if (at + chunk_size > as.arena_end) throw std::bad_alloc{};
    chunk = at;
  }

  // Phase 2 — log pre-images in one batch: a crash anywhere below rolls the
  // whole allocation back on recovery, as if it never happened.  The batch
  // pays one coalesced flush+fence for all entries plus a single durable
  // `used` bump (vs one flush+fence pair per entry before).
  std::vector<Range> log;
  log.push_back({as_off, sizeof(AllocGlobal)});
  if (from_class_list) {
    log.push_back({Layout::kFreeListsOff, sizeof(FreeLists)});
  }
  if (from_class_list || from_large_list) log.push_back({chunk, kChunkHeader});
  if (prev != 0) log.push_back({prev + kChunkHeader, 8});
  // The split remainder's header + next pointer are carved out of the chosen
  // chunk's old payload; logging those bytes restores the unsplit chunk.
  if (rest != 0) log.push_back({rest, kChunkHeader + 8});
  for (const auto& g : gaps) log.push_back({g.at, kChunkHeader});
  aundo_log_batch(log);

  // Phase 3 — mutate.  Stores stay cached until one coalesced flush+fence
  // pass at the end; any prefix of them is undone by the log above, and
  // nothing becomes reachable before phase 4 retires that log.
  std::vector<Range> dirty;
  const auto put = [&](std::uint64_t off, const void* src, std::size_t len) {
    write(off, src, len);
    dirty.push_back({off, len});
  };
  const auto put_u64 = [&](std::uint64_t off, std::uint64_t v) {
    put(off, &v, sizeof(v));
  };
  std::uint64_t filler_payload = 0;
  for (const auto& g : gaps) {
    const ChunkHeader gh = make_chunk(g.payload, kLargeClass);
    put(g.at, &gh, sizeof(gh));
    filler_payload += g.payload;
  }
  if (from_class_list) {
    if (prev == 0) {
      put_u64(Layout::head_off(cls), lnext);
    } else {
      put_u64(prev + kChunkHeader, lnext);
    }
  } else if (from_large_list) {
    std::uint64_t new_head = as.large_free_head;
    if (prev == 0) {
      new_head = lnext;
    } else {
      put_u64(prev + kChunkHeader, lnext);
    }
    if (rest != 0) {
      const ChunkHeader rh = make_chunk(rest_payload, kLargeClass);
      put(rest, &rh, sizeof(rh));
      put_u64(rest + kChunkHeader, new_head);
      new_head = rest;
    }
    put_u64(as_off + offsetof(AllocGlobal, large_free_head), new_head);
  } else {
    put_u64(as_off + offsetof(AllocGlobal, arena_cursor), chunk + chunk_size);
  }
  const ChunkHeader ch = make_chunk(chunk_size - kChunkHeader, cls);
  put(chunk, &ch, sizeof(ch));
  put_u64(as_off + offsetof(AllocGlobal, bytes_in_use),
          as.bytes_in_use + filler_payload + (chunk_size - kChunkHeader));
  persist_ranges(dirty);

  // Phase 4 — commit: retire the undo log; the allocation now stands.
  aundo_commit();
  return chunk + kChunkHeader;
}

void Pool::free(std::uint64_t off) {
  if (off == 0) return;
  trace::Span span("pool.free");
  trace::count(trace::Counter::kFreeOps);
  const std::uint64_t chunk = off - kChunkHeader;
  const auto hdr = get<ChunkHeader>(chunk);
  if (!chunk_ok(hdr)) {
    throw PoolError("Pool::free: not an allocation");
  }
  if (is_magged(hdr.cls)) {
    // A magazine-owned chunk has no live owner to free it.
    throw PoolError("Pool::free: chunk is magazine-owned (double free?)");
  }
  if (hdr.cls != kLargeClass && hdr.cls >= kClassSizes.size()) {
    throw PoolError("Pool::free: corrupt chunk class");
  }

  // Fast path: flag the header magazine-owned and keep the chunk in this
  // thread's magazine — no lock, no queueing charge, no undo transaction.
  // The flag is fully persisted (flush + fence): frees run inside callers'
  // checker scopes (an overwrite frees the old value mid-ht.put), which
  // demand every store clean by commit, and the next pop stores to this
  // same line, which must not happen flushed-but-unfenced.  One fence here
  // still beats the classic path's two (undo-log persist + metadata
  // persist) plus the lock.  Overflow beyond 2K flushes a batch of K back.
  const int mag_size = magazine_size();
  if (hdr.cls != kLargeClass && mag_size > 0 &&
      !art_->quar_active.load(std::memory_order_acquire) &&
      !dev_->media_failing(base_ + chunk, kChunkHeader + 8)) {
    const ChunkHeader fh =
        make_chunk(hdr.payload_size, hdr.cls | kMagFlag);
    write(chunk, &fh, sizeof(fh));
    persist(chunk, sizeof(fh));
    trace::count(trace::Counter::kAllocMetadataPersists);
    trace::count(trace::Counter::kAllocMagazineFreeHits);
    Magazine& m = magazine();
    m.chunks[hdr.cls].push_back(chunk);
    const std::size_t cap = 2 * static_cast<std::size_t>(mag_size);
    if (m.chunks[hdr.cls].size() >= cap) {
      flush_back(m, hdr.cls, static_cast<std::size_t>(mag_size));
    }
    return;
  }

  const auto lk = lock_allocator();
  // Chunks on quarantined media are leaked in place: pushing one onto a
  // free list would store the next pointer into failing media, and the
  // allocator refuses to hand the space out again anyway.  The heap walk
  // keeps counting them as allocated, so bytes_in_use stays consistent.
  if (!quar_.empty() && quar_hit(chunk, hdr.payload_size + kChunkHeader)) {
    return;
  }
  if (dev_->media_failing(base_ + off, 8)) return;  // next-pointer word bad
  // Pre-images: allocator state + the payload word that becomes the free-
  // list next pointer.  A crash mid-free leaves the chunk allocated; a live
  // fault mid-free rolls back the same way.  Only the one head field is
  // logged, not the whole free-list block flush_back_locked() logs.
  undo_tx("pool.free", [&] {
    const std::uint64_t as_off = Layout::kAllocOff;
    const auto as = get<AllocGlobal>(as_off);
    std::uint64_t head_field;
    std::uint64_t old_head;
    if (hdr.cls == kLargeClass) {
      head_field = as_off + offsetof(AllocGlobal, large_free_head);
      old_head = as.large_free_head;
    } else {
      head_field = Layout::head_off(hdr.cls);
      old_head = get<FreeLists>(Layout::kFreeListsOff).free_head[hdr.cls];
    }
    aundo_log_batch({{as_off, sizeof(AllocGlobal)}, {head_field, 8}, {off, 8}});

    // Push: write the next pointer into the payload, then swing the head.
    std::vector<Range> dirty;
    write(off, &old_head, 8);
    dirty.push_back({off, 8});
    write(head_field, &chunk, 8);
    dirty.push_back({head_field, 8});
    const std::uint64_t in_use = as.bytes_in_use - hdr.payload_size;
    write(as_off + offsetof(AllocGlobal, bytes_in_use), &in_use, 8);
    dirty.push_back({as_off + offsetof(AllocGlobal, bytes_in_use), 8});
    persist_ranges(dirty);
    aundo_commit();
  });
}

std::size_t Pool::usable_size(std::uint64_t off) const {
  const auto hdr = get<ChunkHeader>(off - kChunkHeader);
  if (!chunk_ok(hdr)) {
    throw PoolError("Pool::usable_size: not an allocation");
  }
  return hdr.payload_size;
}

std::size_t Pool::bytes_in_use() const noexcept {
  // Uncharged stat read.
  std::uint64_t v;
  std::memcpy(&v,
              dev_->raw(base_ + Layout::kAllocOff +
                        offsetof(AllocGlobal, bytes_in_use)),
              sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Allocator undo lane
// ---------------------------------------------------------------------------

void Pool::aundo_log_batch(const std::vector<Range>& ranges) {
  if (ranges.empty()) return;
  const std::uint64_t uo = Layout::kUndoOff;
  const auto used = get<std::uint64_t>(uo);
  std::uint64_t pos = uo + 8 + used;
  const std::uint64_t start = pos;
  for (const auto& r : ranges) {
    const std::size_t entry = sizeof(LogEntryHeader) + round_up(r.len, 8);
    if ((pos - (uo + 8)) + entry > Layout::kUndoBytes) {
      // Static capacity: one batch logs a small bounded set of ranges.
      throw PoolError("Pool: allocator undo log overflow");
    }
    const LogEntryHeader eh{r.off, r.len};
    write(pos, &eh, sizeof(eh));
    std::vector<std::byte> image(r.len);
    read(r.off, image.data(), r.len);
    write(pos + sizeof(eh), image.data(), r.len);
    pos += entry;
  }
  // The whole contiguous entry block persists under one coalesced
  // flush+fence; only then does the single durable `used` bump publish
  // every entry at once.
  persist(start, pos - start);
  set<std::uint64_t>(uo, used + (pos - start));
  trace::count(trace::Counter::kAllocMetadataPersists, 2);
}

void Pool::aundo_commit() {
  // Retire the lane.  The zero MUST be persisted: if it only reached the
  // CPU cache, a crash would re-expose the stale pre-images and recovery
  // would roll this committed operation back (test_faults can skip the
  // persist to let the mutation tests demonstrate exactly that bug).
  const std::uint64_t zero = 0;
  write(Layout::kUndoOff, &zero, sizeof(zero));
  if (!test_faults_.skip_undo_retire_persist) {
    persist(Layout::kUndoOff, sizeof(zero));
  }
  trace::count(trace::Counter::kAllocMetadataPersists);
}

void Pool::flush_ranges(std::span<const Range> ranges) {
  // Each range's line interval [first, last); sorted, overlapping or
  // touching intervals merge into one maximal run, flushed once.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  runs.reserve(ranges.size());
  for (const auto& r : ranges) {
    const std::uint64_t first = r.off / pmem::kCacheLine;
    const std::uint64_t last =
        (r.off + r.len + pmem::kCacheLine - 1) / pmem::kCacheLine;
    if (first < last) runs.emplace_back(first, last);
  }
  std::sort(runs.begin(), runs.end());
  for (std::size_t i = 0; i < runs.size();) {
    auto [first, last] = runs[i];
    for (++i; i < runs.size() && runs[i].first <= last; ++i) {
      last = std::max(last, runs[i].second);
    }
    flush(first * pmem::kCacheLine, (last - first) * pmem::kCacheLine);
  }
}

void Pool::persist_ranges(const std::vector<Range>& ranges) {
  // Overlapping metadata stores pay one writeback, then one fence.
  if (ranges.empty()) return;
  flush_ranges(ranges);
  drain();
  trace::count(trace::Counter::kAllocMetadataPersists);
}

void Pool::rollback_log() {
  // Parse the whole lane before restoring a byte, then roll back
  // newest-first so overlapping snapshots leave the oldest pre-image in
  // place.
  const auto entry_pos = undo_lane_entries();
  if (entry_pos.empty()) return;
  for (auto it = entry_pos.rbegin(); it != entry_pos.rend(); ++it) {
    const auto eh = get<LogEntryHeader>(*it);
    std::vector<std::byte> image(eh.len);
    read(*it + sizeof(LogEntryHeader), image.data(), eh.len);
    // Skip already-clean targets: a store that faulted before mutating needs
    // no restore, and writing to its (possibly now sticky-bad) line would
    // fault the rollback itself.
    std::vector<std::byte> current(eh.len);
    read(eh.off, current.data(), eh.len);
    if (std::memcmp(current.data(), image.data(), eh.len) == 0) continue;
    write(eh.off, image.data(), eh.len);
    persist(eh.off, eh.len);
  }
  // Retire the log durably: if this zero stayed in cache across a crash, a
  // second recovery would replay stale pre-images over committed state.
  set<std::uint64_t>(Layout::kUndoOff, 0);
}

// ---------------------------------------------------------------------------
// Magazines (DESIGN.md §14)
// ---------------------------------------------------------------------------

std::size_t Pool::refill_magazine(Magazine& m, std::size_t cls) {
  trace::Span span("pool.refill");
  const auto lk = lock_allocator();
  std::size_t got = 0;
  undo_tx("pool.refill", [&] { got = refill_locked(m, cls); });
  if (got > 0) trace::count(trace::Counter::kAllocMagazineRefills);
  return got;
}

std::size_t Pool::refill_locked(Magazine& m, std::size_t cls) {
  // One undo transaction carves up to K chunks: pop a prefix of the class
  // free list, then batch-carve the remainder contiguously from the arena.
  // The amortisation is the whole point: one lock acquisition, one queueing
  // charge, one log batch and two coalesced flush+fence passes stand in for
  // K full allocations.  This path never runs with a nonempty quarantine
  // (fast paths are disabled), so no per-chunk avoidance checks are needed.
  const std::size_t k = static_cast<std::size_t>(magazine_size());
  const std::size_t csize = kClassSizes[cls];
  const auto ag = get<AllocGlobal>(Layout::kAllocOff);

  std::vector<std::uint64_t> taken;  // popped off the class list
  std::uint64_t new_head = 0;
  // Cutting the list writes its head field; with the free-list block on
  // dead media the chunks stay linked in place (see alloc_locked).
  if (!free_lists_failing()) {
    const auto cls32 = static_cast<std::uint32_t>(cls);
    const auto take = [&](std::uint64_t c, std::uint64_t next) {
      // A chunk met twice is a cycle on damaged media: taking it again
      // would hand one chunk out twice.
      if (std::find(taken.begin(), taken.end(), c) != taken.end()) {
        throw PoolError(list_name(cls32) + ": cycle detected");
      }
      taken.push_back(c);
      new_head = next;
      return taken.size() < k;
    };
    walk_free_list(cls32, get<FreeLists>(Layout::kFreeListsOff).free_head[cls],
                   ag.arena_cursor, take);
  }
  const std::uint64_t at = round_up(ag.arena_cursor, kChunkAlign);
  std::size_t carved = 0;
  while (taken.size() + carved < k &&
         at + (carved + 1) * csize <= ag.arena_end) {
    ++carved;
  }
  const std::size_t total = taken.size() + carved;
  if (total == 0) return 0;

  std::vector<Range> log;
  log.push_back({Layout::kAllocOff, sizeof(AllocGlobal)});
  if (!taken.empty()) {
    log.push_back({Layout::kFreeListsOff, sizeof(FreeLists)});
  }
  for (const auto c : taken) log.push_back({c, kChunkHeader});
  aundo_log_batch(log);

  // Each header is rewritten flagged magazine-owned; the one coalesced
  // flush+fence below makes the whole batch durable.
  const ChunkHeader owned = make_chunk(
      csize - kChunkHeader, static_cast<std::uint32_t>(cls) | kMagFlag);
  std::vector<Range> dirty;
  for (const auto c : taken) {
    write(c, &owned, sizeof(owned));
    dirty.push_back({c, kChunkHeader});
  }
  for (std::size_t i = 0; i < carved; ++i) {
    write(at + i * csize, &owned, sizeof(owned));
    dirty.push_back({at + i * csize, kChunkHeader});
  }
  if (!taken.empty()) {
    write(Layout::head_off(cls), &new_head, 8);
    dirty.push_back({Layout::head_off(cls), 8});
  }
  AllocGlobal nag = ag;
  if (carved > 0) nag.arena_cursor = at + carved * csize;
  nag.bytes_in_use += total * (csize - kChunkHeader);
  write(Layout::kAllocOff, &nag, sizeof(nag));
  dirty.push_back({Layout::kAllocOff, sizeof(nag)});
  persist_ranges(dirty);
  aundo_commit();

  // Only after the durable commit do the chunks enter the DRAM magazine.
  for (const auto c : taken) m.chunks[cls].push_back(c);
  for (std::size_t i = 0; i < carved; ++i) {
    m.chunks[cls].push_back(at + i * csize);
  }
  return total;
}

void Pool::flush_back(Magazine& m, std::size_t cls, std::size_t keep) {
  auto& stack = m.chunks[cls];
  if (stack.size() <= keep) return;
  const std::size_t n = stack.size() - keep;
  std::vector<std::uint64_t> out(stack.begin(),
                                 stack.begin() + static_cast<long>(n));
  trace::Span span("pool.flushback");
  const auto lk = lock_allocator();
  // Quarantined or media-failing chunks are leaked in place, still flagged
  // — the same leak-in-place rule classic free() applies.  The loss is
  // bounded by the magazine capacity at quarantine time.
  std::erase_if(out, [&](std::uint64_t c) {
    return (!quar_.empty() && quar_hit(c, kClassSizes[cls])) ||
           dev_->media_failing(base_ + c, kChunkHeader + 8);
  });
  stack.erase(stack.begin(), stack.begin() + static_cast<long>(n));
  if (out.empty()) return;
  undo_tx("pool.flushback", [&] { flush_back_locked(out, cls); });
  trace::count(trace::Counter::kAllocMagazineFlushbacks);
}

void Pool::flush_back_locked(const std::vector<std::uint64_t>& out,
                             std::size_t cls) {
  // Mirror image of refill_locked: unflag a batch of magazine chunks and
  // chain them onto the class list under one undo transaction.  Rolling
  // back restores the flagged headers (the scribbled next words are dead
  // payload bytes of magazine-owned chunks).
  const std::size_t csize = kClassSizes[cls];
  const auto ag = get<AllocGlobal>(Layout::kAllocOff);
  const auto fl = get<FreeLists>(Layout::kFreeListsOff);

  std::vector<Range> log;
  log.push_back({Layout::kAllocOff, sizeof(AllocGlobal)});
  log.push_back({Layout::kFreeListsOff, sizeof(FreeLists)});
  for (const auto c : out) log.push_back({c, kChunkHeader + 8});
  aundo_log_batch(log);

  std::vector<Range> dirty;
  std::uint64_t next = fl.free_head[cls];
  for (auto it = out.rbegin(); it != out.rend(); ++it) {
    const std::uint64_t c = *it;
    const ChunkHeader h =
        make_chunk(csize - kChunkHeader, static_cast<std::uint32_t>(cls));
    write(c, &h, sizeof(h));
    write(c + kChunkHeader, &next, 8);
    dirty.push_back({c, kChunkHeader + 8});
    next = c;
  }
  write(Layout::head_off(cls), &next, 8);
  dirty.push_back({Layout::head_off(cls), 8});
  const std::uint64_t in_use =
      ag.bytes_in_use - out.size() * (csize - kChunkHeader);
  write(Layout::kAllocOff + offsetof(AllocGlobal, bytes_in_use), &in_use, 8);
  dirty.push_back({Layout::kAllocOff + offsetof(AllocGlobal, bytes_in_use), 8});
  persist_ranges(dirty);
  aundo_commit();
}

void Pool::drain_magazines() {
  std::lock_guard lk(art_->mu);
  for (auto& [tid, mag] : art_->mags) {
    for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
      if (!mag->chunks[c].empty()) flush_back(*mag, c, 0);
    }
  }
}

void Pool::sweep_magazines() {
  // Walk the heap with uncharged peeks (recovery metadata, not workload
  // I/O), collecting every chunk a crash left magazine-flagged; then push
  // each back to a free list as a flush-back batch of one under its own
  // undo transaction, so a re-crash mid-sweep just leaves the remainder
  // flagged for the next open.  With the free-list block or the undo lane
  // on dead media every push would fault, so all of them stay flagged.
  if (free_lists_failing() ||
      dev_->media_failing(base_ + Layout::kUndoOff, 8 + Layout::kUndoBytes)) {
    return;
  }
  const auto ag = load<AllocGlobal>(Layout::kAllocOff, Load::kPeek);
  if (!arena_ok(ag, Layout::heap_start(), size_)) return;

  struct Flagged {
    std::uint64_t at;
    std::uint32_t cls;
  };
  std::vector<Flagged> flagged;
  const auto collect = [&](std::uint64_t pos, const ChunkHeader& ch) {
    const std::uint64_t adv = kChunkHeader + ch.payload_size;
    if (is_magged(ch.cls) && base_class(ch.cls) < kClassSizes.size() &&
        kClassSizes[base_class(ch.cls)] == adv &&
        (quar_.empty() || !quar_hit(pos, adv)) &&
        !dev_->media_failing(base_ + pos, kChunkHeader + 8)) {
      flagged.push_back({pos, base_class(ch.cls)});
    }
  };
  try {
    walk_heap(ag.arena_cursor, quar_, Load::kPeek, collect);
  } catch (const PoolError&) {
    // A damaged heap ends the sweep where the damage starts: check() owns
    // the diagnosis, not the sweep.
  }

  for (const auto& f : flagged) {
    try {
      undo_tx("pool.sweep", [&] { flush_back_locked({f.at}, f.cls); });
      trace::count(trace::Counter::kAllocMagazineSwept);
    } catch (...) {
      // Media died under the push: it was rolled back, and this chunk stays
      // leaked in place (still flagged); keep sweeping the rest.
    }
  }
}

// ---------------------------------------------------------------------------
// Quarantine table
// ---------------------------------------------------------------------------

bool Pool::quar_hit(std::uint64_t off, std::size_t len) const {
  return lowest_overlap(quar_, off, len) != nullptr;
}

ft::Status Pool::quarantine(std::uint64_t off, std::size_t len) {
  if (len == 0) return ft::Status::ok();
  check_off(off, len);
  const std::uint64_t first = off / pmem::kCacheLine * pmem::kCacheLine;
  const std::uint64_t last = round_up(off + len, pmem::kCacheLine);
  std::lock_guard lk(*alloc_mu_);
  for (const auto& [qo, ql] : quar_) {
    if (first >= qo && last <= qo + ql) return ft::Status::ok();  // covered
  }
  if (quar_.size() >= kQuarantineCapacity) {
    return ft::Status(ft::ErrorCode::kQuarantineFull,
                      "pool quarantine table full");
  }
  // The entry becomes durable first; only then does the single-store (one
  // cacheline, hence crash-atomic) count/crc header swing publish it.
  const QuarEntry e{first, last - first};
  const std::uint64_t pos =
      Layout::kQuarEntries + quar_.size() * sizeof(QuarEntry);
  try {
    write(pos, &e, sizeof(e));
    persist(pos, sizeof(e));
    quar_.emplace_back(e.off, e.len);
    QuarHeader qh{};
    qh.count = static_cast<std::uint32_t>(quar_.size());
    qh.crc = quar_table_crc(quar_);
    set(Layout::kQuarOff, qh);
  } catch (const pmem::DeviceError& de) {
    // The quarantine table itself sits on failing media: the pool has lost
    // its last-resort repair metadata and cannot promise relocated writes
    // stay off the bad range.  Surface a typed error (the healing layer
    // degrades the handle) instead of letting the device fault escape —
    // callers treat quarantine() as the end of the error-handling line.
    return ft::Status(ft::ErrorCode::kMediaFailed,
                      std::string("quarantine table media failed: ") +
                          de.what());
  }
  // Degrading pool: disable every allocator fast path.  Chunks already in
  // magazines stay there (their flagged headers keep the accounting
  // consistent) and are reclaimed at the next reopen's sweep.
  art_->quar_active.store(true, std::memory_order_release);
  trace::count(trace::Counter::kFtQuarantines);
  return ft::Status::ok();
}

bool Pool::is_quarantined(std::uint64_t off, std::size_t len) const {
  std::lock_guard lk(*alloc_mu_);
  return quar_hit(off, len);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Pool::quarantined()
    const {
  std::lock_guard lk(*alloc_mu_);
  return quar_;
}

// ---------------------------------------------------------------------------
// Integrity verifier
// ---------------------------------------------------------------------------

CheckReport Pool::check() const {
  CheckReport rep;
  auto issue = [&rep](std::string s) {
    if (rep.issues.size() < 64) rep.issues.push_back(std::move(s));
  };
  // Runs one section's decoder; its failure becomes the section's one issue
  // line (decoder messages already name their structure).
  const auto section = [&](const std::string& name, auto&& decode) {
    try {
      decode();
      return true;
    } catch (const PoolError& e) {
      issue(e.what());
    } catch (const pmem::DeviceError& e) {
      issue(name + ": " + e.what());
    }
    return false;
  };

  // --- pool header ---------------------------------------------------------
  PoolHeader hdr{};
  if (!section("pool header",
               [&] { hdr = get<PoolHeader>(Layout::kHeaderOff); })) {
    return rep;
  }
  if (hdr.magic != kMagic) {
    issue("pool header: bad magic");
    return rep;  // nothing downstream is trustworthy
  }
  if (hdr.version != kVersion) issue("pool header: bad version");
  if (hdr.crc != header_crc(hdr)) issue("pool header: checksum mismatch");
  if (hdr.size != size_) issue("pool header: size mismatch");

  // --- allocator state ------------------------------------------------------
  AllocGlobal as{};
  FreeLists fl{};
  if (!section("alloc state", [&] {
        as = get<AllocGlobal>(Layout::kAllocOff);
        fl = get<FreeLists>(Layout::kFreeListsOff);
      })) {
    return rep;
  }
  if (!arena_ok(as, Layout::heap_start(), size_)) {
    issue("alloc state: arena bounds corrupt (cursor " +
          std::to_string(as.arena_cursor) + ", end " +
          std::to_string(as.arena_end) + ")");
    return rep;  // heap walk bounds are meaningless
  }

  // --- quarantine table -----------------------------------------------------
  // Decoded from media (not the DRAM cache): the heap walk below needs it to
  // hop arena stretches the allocator left without a filler.
  Quarantine quar;
  section("quarantine table",
          [&] { quar = decode_quarantine(Load::kCharged); });

  // --- heap walk ------------------------------------------------------------
  // Every byte of [heap_start, arena_cursor) must be tiled by chunks with
  // valid checksums; a chunk overrunning the cursor means overlap.
  std::unordered_set<std::uint64_t> boundaries;
  std::uint64_t payload_total = 0;
  const auto tile = [&](std::uint64_t pos, const ChunkHeader& ch) {
    if (is_magged(ch.cls)) {
      // Magazine-owned: counted as in-use (never expected on a free list;
      // the class comparison below rejects a flagged list entry anyway).
      if (base_class(ch.cls) >= kClassSizes.size() ||
          kClassSizes[base_class(ch.cls)] != kChunkHeader + ch.payload_size) {
        throw PoolError("heap walk: magazine chunk at " + std::to_string(pos) +
                        " has class " + std::to_string(ch.cls) +
                        " inconsistent with its size");
      }
      ++rep.magazine_chunks;
    }
    boundaries.insert(pos);
    payload_total += ch.payload_size;
    ++rep.chunks_walked;
  };
  const bool walk_ok = section("heap walk", [&] {
    walk_heap(as.arena_cursor, quar, Load::kCharged, tile);
  });

  // --- free lists -----------------------------------------------------------
  std::unordered_set<std::uint64_t> free_seen;
  std::uint64_t free_payload = 0;
  const auto walk_free = [&](std::uint32_t cls, std::uint64_t head) {
    const std::string name = list_name(cls);
    const auto listed = [&](std::uint64_t cur, std::uint64_t) {
      const auto bad = [&](const std::string& what) {
        return PoolError(name + ": entry " + std::to_string(cur) + " " + what);
      };
      if (walk_ok && !boundaries.contains(cur)) {
        throw bad("not on a chunk boundary (overlap)");
      }
      if (!free_seen.insert(cur).second) throw bad("on multiple free lists");
      const auto ch = get<ChunkHeader>(cur);
      if (!chunk_ok(ch)) throw bad("has a corrupt chunk header");
      if (ch.cls != cls) {
        throw bad("has class " + std::to_string(ch.cls) + ", want " +
                  std::to_string(cls));
      }
      free_payload += ch.payload_size;
      ++rep.free_chunks;
      return true;
    };
    section(name, [&] { walk_free_list(cls, head, as.arena_cursor, listed); });
  };
  for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
    walk_free(static_cast<std::uint32_t>(c), fl.free_head[c]);
  }
  walk_free(kLargeClass, as.large_free_head);

  // --- accounting -----------------------------------------------------------
  if (walk_ok) {
    rep.bytes_in_use = payload_total - free_payload;
    // Quarantined allocator state is permanently unwritable media: the
    // stored counter can no longer track the heap (the pool is dead for
    // writes and headed for degraded read-only mode), so a mismatch there
    // is the expected scar of the media failure, not a structural bug.
    const bool alloc_state_dead =
        lowest_overlap(quar, Layout::kAllocOff,
                       Layout::kFreeListsOff + sizeof(FreeLists) -
                           Layout::kAllocOff) != nullptr;
    // A non-empty allocator undo lane means a tx is pending recovery: it
    // tore mid-mutation and even the live rollback could not finish (the
    // media under one of its pre-image targets died).  Until the lane
    // replays, the stored counter legitimately disagrees with the heap by
    // the torn tx's delta — the same reason the undo-lane section below
    // accepts a non-empty-but-well-formed lane.
    bool lane_pending = true;  // unreadable lane: assume pending
    try {
      lane_pending = get<std::uint64_t>(Layout::kUndoOff) != 0;
    } catch (const pmem::DeviceError&) {
    }
    if (!alloc_state_dead && !lane_pending &&
        rep.bytes_in_use != as.bytes_in_use) {
      issue("bytes_in_use mismatch: stored " +
            std::to_string(as.bytes_in_use) + ", recomputed " +
            std::to_string(rep.bytes_in_use));
    }
  }

  // --- undo lane ------------------------------------------------------------
  // Structural validity only: on a recovered pool the lane is empty; a
  // non-empty but well-formed lane is merely pending recovery.
  section("allocator undo lane", [&] { (void)undo_lane_entries(); });
  return rep;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void Pool::recover() {
  trace::Span span("pool.recover");
  trace::count(trace::Counter::kRecoveries);
  // An interrupted alloc/free/refill is rolled back before anything else
  // trusts the heap metadata.
  rollback_log();
}

}  // namespace pmemcpy::obj
