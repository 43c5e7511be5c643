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
// v2: allocator metadata split into AllocGlobal + kAllocStripes striped
// free-list states with one undo lane each (DESIGN.md §14).
// v3: the transaction lanes are gone; the heap starts right after the
// allocator undo lanes.
constexpr std::uint32_t kVersion = 3;
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

/// One metadata stripe: a full set of size-class free-list heads.  Ranks
/// map to stripes by rank hash; the slow path steals from every stripe, so
/// the active stripe count is a pure distribution knob.
struct StripeState {
  std::uint64_t free_head[kClassSizes.size()];
};
static_assert(sizeof(StripeState) == 88);

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

}  // namespace

struct Pool::Layout {
  static constexpr std::uint64_t kHeaderOff = 64;
  /// Quarantine table: header at kQuarOff, entries right behind it, all in
  /// the metadata gap between the pool header and the allocator state.
  static constexpr std::uint64_t kQuarOff = 128;
  static constexpr std::uint64_t kQuarEntries = kQuarOff + sizeof(QuarHeader);
  static constexpr std::uint64_t kAllocOff = 4096;
  /// Striped free-list states, one cacheline-padded slot per stripe.
  static constexpr std::uint64_t kStripeBase = 4224;
  static constexpr std::uint64_t kStripeStride = 128;
  /// Allocator undo lanes, one per stripe: [u64 used][pre-image entries].
  /// The pool's only undo log: they make the multi-store free-list/arena
  /// mutations crash-atomic.  The global mutex admits one uncommitted
  /// allocator batch at a time, so recovery order across lanes does not
  /// matter.
  static constexpr std::uint64_t kStripeUndoBase = 8192;
  static constexpr std::uint64_t kStripeUndoStride = 4096;
  static constexpr std::uint64_t kStripeUndoBytes = kStripeUndoStride - 8;
  static constexpr std::uint64_t heap_start() {
    return kStripeUndoBase + Pool::kAllocStripes * kStripeUndoStride;
  }
  static_assert(kHeaderOff + sizeof(PoolHeader) <= kQuarOff,
                "pool header must not overlap the quarantine table");
  static_assert(kQuarEntries + Pool::kQuarantineCapacity * sizeof(QuarEntry) <=
                    kAllocOff,
                "quarantine table must not overlap the allocator state");
  static_assert(kAllocOff + sizeof(AllocGlobal) <= kStripeBase,
                "global alloc state must not overlap the stripe states");
  static_assert(sizeof(StripeState) <= kStripeStride);
  static_assert(kStripeBase + Pool::kAllocStripes * kStripeStride <=
                    kStripeUndoBase,
                "stripe states must not overlap the allocator undo lanes");
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
};

Pool::Pool(pmem::Device& dev, std::size_t base, std::size_t size,
           PoolOptions opts)
    : dev_(&dev),
      base_(base),
      size_(size),
      opts_(opts),
      art_(std::make_unique<AllocRuntime>()) {}

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
  if (base + hdr.size > dev.capacity()) {
    throw PoolError("Pool::open: header size exceeds device");
  }
  p.size_ = hdr.size;
  p.recover();
  p.load_quarantine();
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
  QuarHeader stale;
  std::memcpy(&stale, dev_->raw(base_ + Layout::kQuarOff), sizeof(stale));
  if (stale.count != 0 || stale.crc != 0) {
    set(Layout::kQuarOff, QuarHeader{0, 0});
  }

  // Stripe states and allocator undo lanes are likewise only cleared when a
  // previous pool life actually left stale bytes behind: all-zero is the
  // valid empty form, so formatting fresh media stays cheap.
  for (std::size_t s = 0; s < kAllocStripes; ++s) {
    StripeState stale_ss;
    std::memcpy(&stale_ss,
                dev_->raw(base_ + Layout::kStripeBase + s * Layout::kStripeStride),
                sizeof(stale_ss));
    bool dirty = false;
    for (const auto h : stale_ss.free_head) dirty = dirty || h != 0;
    if (dirty) set(Layout::kStripeBase + s * Layout::kStripeStride, StripeState{});
    std::uint64_t stale_used;
    std::memcpy(&stale_used, dev_->raw(base_ + stripe_undo_off(static_cast<int>(s))),
                sizeof(stale_used));
    if (stale_used != 0) {
      set<std::uint64_t>(stripe_undo_off(static_cast<int>(s)), 0);
    }
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

void Pool::check_off(std::uint64_t off, std::size_t len) const {
  if (off > size_ || len > size_ - off) {
    throw std::out_of_range("Pool: access beyond pool size");
  }
}

void Pool::write(std::uint64_t off, const void* src, std::size_t len) {
  check_off(off, len);
  // The device cannot intercept stores made through raw pointers, so the
  // powered-off gate lives here too: post-crash unwind (destructor
  // rollbacks, frees) must not mutate the crash image.
  if (dev_->frozen()) return;
  dev_->note_write(base_ + off, len);
  std::memcpy(dev_->raw(base_ + off), src, len);
  dev_->charge_dax_write(base_ + off, len, opts_.map_sync);
}

void Pool::read(std::uint64_t off, void* dst, std::size_t len) const {
  check_off(off, len);
  dev_->check_media(base_ + off, len);
  std::memcpy(dst, dev_->raw(base_ + off), len);
  dev_->charge_dax_read(len, opts_.map_sync);
}

void Pool::persist(std::uint64_t off, std::size_t len) {
  check_off(off, len);
  dev_->persist(base_ + off, len);
}

void Pool::flush(std::uint64_t off, std::size_t len) {
  check_off(off, len);
  dev_->flush(base_ + off, len);
}

void Pool::verify_media(std::uint64_t off, std::size_t len) const {
  check_off(off, len);
  dev_->check_media(base_ + off, len);
}

std::span<std::byte> Pool::direct_write_span(std::uint64_t off,
                                             std::size_t len) {
  check_off(off, len);
  if (dev_->frozen()) {
    // Powered off: hand out scratch DRAM so the caller's stores vanish,
    // exactly like stores through a dead DIMM mapping.
    thread_local std::vector<std::byte> scratch;
    scratch.assign(len, std::byte{});
    return {scratch.data(), len};
  }
  dev_->note_write(base_ + off, len);
  dev_->charge_dax_write(base_ + off, len, opts_.map_sync);
  return {dev_->raw(base_ + off), len};
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
// Allocator
// ---------------------------------------------------------------------------

std::unique_lock<std::mutex> Pool::lock_allocator() {
  std::unique_lock lk(*alloc_mu_);
  trace::count(trace::Counter::kAllocLaneAcquisitions);
  // Deterministic stand-in for lock contention: rank clocks drift apart and
  // resynchronise only at collectives, so modelling an actual wait on
  // another rank's (possibly lagging) simulated clock would be unsound.
  // Instead every metadata op is charged the expected queueing share — the
  // per-stripe queue depth, since ranks hash across the active stripes and
  // only same-stripe traffic serialises in the modelled machine.
  const int depth = (contenders_ + stripes_ - 1) / stripes_;
  if (depth <= 1) return lk;
  auto& c = sim::ctx();
  const double delay =
      static_cast<double>(depth - 1) * c.model().pmem.pool_op_queue_cost;
  c.advance(delay, sim::Charge::kOther);
  trace::observe(trace::Hist::kShardQueueDelay, delay);
  trace::count(trace::Counter::kAllocQueueCharges);
  return lk;
}

template <typename Mutate>
void Pool::undo_tx(const char* scope, int stripe, Mutate&& mutate) {
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
      rollback_log(stripe);
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

int Pool::acting_stripe() const {
  const int n = stripes_ < 1 ? 1 : stripes_;
  const int home =
      static_cast<int>(static_cast<unsigned>(sim::ctx().rank()) %
                       static_cast<unsigned>(n));
  // Route around stripes whose metadata media died: a sticky line under a
  // stripe's state block or undo lane would fault every transaction bound
  // to it, so the rank slides to the next healthy stripe (its chunks stay
  // reachable — every probe loop scans all stripes).  With every stripe
  // dead the home stripe is returned and the caller's fault path owns it.
  for (int probe = 0; probe < n; ++probe) {
    const int s = (home + probe) % n;
    if (!stripe_failing(s)) return s;
  }
  return home;
}

bool Pool::stripe_failing(int stripe) const {
  return dev_->media_failing(base_ + stripe_state_off(stripe),
                             sizeof(StripeState)) ||
         dev_->media_failing(base_ + stripe_undo_off(stripe),
                             8 + Layout::kStripeUndoBytes);
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
  if (cls != kLargeClass && mag_size_ > 0 &&
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
  const int stripe = acting_stripe();
  std::uint64_t off = 0;
  undo_tx("pool.alloc", stripe, [&] { off = alloc_locked(bytes, stripe); });
  return off;
}

std::uint64_t Pool::alloc_locked(std::size_t bytes, int stripe) {
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
  int src_stripe = stripe;  // stripe whose class list served the chunk
  bool from_class_list = false;
  bool from_large_list = false;

  // A free chunk is eligible only when it avoids quarantined media and its
  // unlink store (the predecessor's next pointer) lands on healthy media —
  // quarantined neighbours stay linked in place and are skipped forever.
  const auto linkable = [&](std::uint64_t p) {
    return p == 0 || !dev_->media_failing(base_ + p + kChunkHeader, 8);
  };

  if (cls != kLargeClass) {
    // Probe the acting stripe first, then steal from the others: chunks may
    // sit on any stripe (frees and sweeps land by rank/offset hash), so a
    // reopen with a different active stripe count loses nothing.
    for (std::size_t probe = 0; probe < kAllocStripes && chunk == 0; ++probe) {
      const int s =
          static_cast<int>((static_cast<std::size_t>(stripe) + probe) %
                           kAllocStripes);
      // Unlinking a list head stores into the stripe's state block; a
      // stripe with dead metadata media keeps its chunks linked in place
      // (bounded leak, same rule as quarantined chunks).
      if (dev_->media_failing(base_ + stripe_state_off(s),
                              sizeof(StripeState))) {
        continue;
      }
      const auto ss = get<StripeState>(stripe_state_off(s));
      std::uint64_t cur = ss.free_head[cls];
      std::uint64_t p = 0;
      while (cur != 0) {
        const auto next = get<std::uint64_t>(cur + kChunkHeader);
        if ((quar_.empty() || !quar_hit(cur, chunk_size)) && linkable(p)) {
          chunk = cur;
          lnext = next;
          prev = p;
          src_stripe = s;
          from_class_list = true;
          break;
        }
        p = cur;
        cur = next;
      }
    }
  }
  if (cls == kLargeClass) {
    chunk_size = need;
    // First fit on the large free list.
    std::uint64_t cur = as.large_free_head;
    while (cur != 0) {
      const auto hdr = get<ChunkHeader>(cur);
      const std::size_t total = hdr.payload_size + kChunkHeader;
      const auto next = get<std::uint64_t>(cur + kChunkHeader);
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
        break;
      }
      prev = cur;
      cur = next;
    }
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
    if (!quar_.empty()) {
      for (;;) {
        const std::pair<std::uint64_t, std::uint64_t>* hit = nullptr;
        for (const auto& q : quar_) {
          if (q.first < at + chunk_size && at < q.first + q.second &&
              (hit == nullptr || q.first < hit->first)) {
            hit = &q;
          }
        }
        if (hit == nullptr) break;
        const std::uint64_t skip_to =
            round_up(hit->first + hit->second, kChunkAlign);
        if (hit->first > at) {
          gaps.push_back({at, skip_to - at - kChunkHeader});
        }
        at = skip_to;
      }
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
    log.push_back({stripe_state_off(src_stripe), sizeof(StripeState)});
  }
  if (from_class_list || from_large_list) log.push_back({chunk, kChunkHeader});
  if (prev != 0) log.push_back({prev + kChunkHeader, 8});
  // The split remainder's header + next pointer are carved out of the chosen
  // chunk's old payload; logging those bytes restores the unsplit chunk.
  if (rest != 0) log.push_back({rest, kChunkHeader + 8});
  for (const auto& g : gaps) log.push_back({g.at, kChunkHeader});
  aundo_log_batch(stripe, log);

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
      put_u64(stripe_state_off(src_stripe) + offsetof(StripeState, free_head) +
                  cls * 8,
              lnext);
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
  aundo_commit(stripe);
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
  if (hdr.cls != kLargeClass && mag_size_ > 0 &&
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
    const std::size_t cap = 2 * static_cast<std::size_t>(mag_size_);
    if (m.chunks[hdr.cls].size() >= cap) {
      flush_back(m, hdr.cls, static_cast<std::size_t>(mag_size_));
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
  const int stripe = acting_stripe();
  // Pre-images: allocator state + the payload word that becomes the free-
  // list next pointer.  A crash mid-free leaves the chunk allocated; a live
  // fault mid-free rolls back the same way.  Only the one head field is
  // logged, not the whole stripe state flush_back_locked() logs.
  undo_tx("pool.free", stripe, [&] {
    const std::uint64_t as_off = Layout::kAllocOff;
    const auto as = get<AllocGlobal>(as_off);
    std::uint64_t head_field;
    std::uint64_t old_head;
    if (hdr.cls == kLargeClass) {
      head_field = as_off + offsetof(AllocGlobal, large_free_head);
      old_head = as.large_free_head;
    } else {
      const auto ss = get<StripeState>(stripe_state_off(stripe));
      head_field = stripe_state_off(stripe) +
                   offsetof(StripeState, free_head) + hdr.cls * 8;
      old_head = ss.free_head[hdr.cls];
    }
    aundo_log_batch(stripe, {{as_off, sizeof(AllocGlobal)},
                             {head_field, 8},
                             {off, 8}});

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
    aundo_commit(stripe);
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
// Allocator undo lanes (one per metadata stripe)
// ---------------------------------------------------------------------------

std::uint64_t Pool::stripe_undo_off(int stripe) const {
  return Layout::kStripeUndoBase +
         static_cast<std::uint64_t>(stripe) * Layout::kStripeUndoStride;
}

std::uint64_t Pool::stripe_state_off(int stripe) const {
  return Layout::kStripeBase +
         static_cast<std::uint64_t>(stripe) * Layout::kStripeStride;
}

void Pool::aundo_log_batch(int stripe, const std::vector<Range>& ranges) {
  if (ranges.empty()) return;
  const std::uint64_t uo = stripe_undo_off(stripe);
  const auto used = get<std::uint64_t>(uo);
  std::uint64_t pos = uo + 8 + used;
  const std::uint64_t start = pos;
  for (const auto& r : ranges) {
    const std::size_t entry = sizeof(LogEntryHeader) + round_up(r.len, 8);
    if ((pos - (uo + 8)) + entry > Layout::kStripeUndoBytes) {
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

void Pool::aundo_commit(int stripe) {
  // Retire the lane.  The zero MUST be persisted: if it only reached the
  // CPU cache, a crash would re-expose the stale pre-images and recovery
  // would roll this committed operation back (test_faults can skip the
  // persist to let the mutation tests demonstrate exactly that bug).
  const std::uint64_t zero = 0;
  write(stripe_undo_off(stripe), &zero, sizeof(zero));
  if (!test_faults_.skip_undo_retire_persist) {
    persist(stripe_undo_off(stripe), sizeof(zero));
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

void Pool::rollback_log(int stripe) {
  const std::uint64_t header_off = stripe_undo_off(stripe);
  const std::uint64_t payload_off = header_off + 8;
  const auto used = get<std::uint64_t>(header_off);
  if (used == 0) return;
  if (used > Layout::kStripeUndoBytes) {
    throw PoolError("Pool: undo log header corrupt");
  }
  // Collect entries, then roll back newest-first so overlapping snapshots
  // leave the oldest pre-image in place.
  std::vector<std::uint64_t> entry_pos;
  std::uint64_t pos = payload_off;
  const std::uint64_t end = payload_off + used;
  while (pos < end) {
    const auto eh = get<LogEntryHeader>(pos);
    if (eh.len > size_ || eh.off > size_ - eh.len) {
      throw PoolError("Pool: undo log entry corrupt");
    }
    entry_pos.push_back(pos);
    pos += sizeof(LogEntryHeader) + round_up(eh.len, 8);
  }
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
  set<std::uint64_t>(header_off, 0);
}

// ---------------------------------------------------------------------------
// Magazines (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Pool::mag_mark_owned(std::uint64_t chunk, std::uint64_t payload,
                          std::uint32_t cls) {
  // Deferred-persist primitive: rewrites a chunk header with the magazine
  // flag as a raw tracked store.  Callers (refill/sweep batches) cover it
  // with their one coalesced flush+fence pass, so this helper deliberately
  // returns with the store unpersisted — pmemlint knows it by name.
  check_off(chunk, kChunkHeader);
  if (dev_->frozen()) return;
  const ChunkHeader h = make_chunk(payload, cls | kMagFlag);
  dev_->note_write(base_ + chunk, sizeof(h));
  std::memcpy(dev_->raw(base_ + chunk), &h, sizeof(h));
  dev_->charge_dax_write(base_ + chunk, sizeof(h), opts_.map_sync);
}

std::size_t Pool::refill_magazine(Magazine& m, std::size_t cls) {
  trace::Span span("pool.refill");
  const auto lk = lock_allocator();
  const int stripe = acting_stripe();
  std::size_t got = 0;
  undo_tx("pool.refill", stripe, [&] { got = refill_locked(m, cls, stripe); });
  if (got > 0) trace::count(trace::Counter::kAllocMagazineRefills);
  return got;
}

std::size_t Pool::refill_locked(Magazine& m, std::size_t cls, int stripe) {
  // One undo transaction carves up to K chunks: pop prefixes of the class
  // free lists (acting stripe first, then stealing), then batch-carve the
  // remainder contiguously from the arena.  The amortisation is the whole
  // point: one lock acquisition, one queueing charge, one log batch and two
  // coalesced flush+fence passes stand in for K full allocations.  This
  // path never runs with a nonempty quarantine (fast paths are disabled),
  // so no per-chunk avoidance checks are needed.
  const std::size_t k = static_cast<std::size_t>(mag_size_);
  const std::size_t csize = kClassSizes[cls];
  const auto ag = get<AllocGlobal>(Layout::kAllocOff);

  std::vector<std::uint64_t> taken;  // popped off free lists
  struct ListCut {
    int stripe;
    std::uint64_t new_head;
  };
  std::vector<ListCut> cuts;
  for (std::size_t probe = 0; probe < kAllocStripes && taken.size() < k;
       ++probe) {
    const int s = static_cast<int>(
        (static_cast<std::size_t>(stripe) + probe) % kAllocStripes);
    // Cutting a list writes the stripe's head field; dead-media stripes
    // keep their chunks linked in place (see alloc_locked).
    if (dev_->media_failing(base_ + stripe_state_off(s),
                            sizeof(StripeState))) {
      continue;
    }
    std::uint64_t cur = get<StripeState>(stripe_state_off(s)).free_head[cls];
    const std::size_t before = taken.size();
    while (cur != 0 && taken.size() < k) {
      taken.push_back(cur);
      cur = get<std::uint64_t>(cur + kChunkHeader);
    }
    if (taken.size() != before) cuts.push_back({s, cur});
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
  for (const auto& c : cuts) {
    log.push_back({stripe_state_off(c.stripe), sizeof(StripeState)});
  }
  for (const auto c : taken) log.push_back({c, kChunkHeader});
  aundo_log_batch(stripe, log);

  std::vector<Range> dirty;
  for (const auto c : taken) {
    mag_mark_owned(c, csize - kChunkHeader, static_cast<std::uint32_t>(cls));
    dirty.push_back({c, kChunkHeader});
  }
  for (std::size_t i = 0; i < carved; ++i) {
    mag_mark_owned(at + i * csize, csize - kChunkHeader,
                   static_cast<std::uint32_t>(cls));
    dirty.push_back({at + i * csize, kChunkHeader});
  }
  for (const auto& c : cuts) {
    const std::uint64_t field = stripe_state_off(c.stripe) +
                                offsetof(StripeState, free_head) + cls * 8;
    write(field, &c.new_head, 8);
    dirty.push_back({field, 8});
  }
  AllocGlobal nag = ag;
  if (carved > 0) nag.arena_cursor = at + carved * csize;
  nag.bytes_in_use += total * (csize - kChunkHeader);
  write(Layout::kAllocOff, &nag, sizeof(nag));
  dirty.push_back({Layout::kAllocOff, sizeof(nag)});
  persist_ranges(dirty);
  aundo_commit(stripe);

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
  const int stripe = acting_stripe();
  undo_tx("pool.flushback", stripe,
          [&] { flush_back_locked(out, cls, stripe); });
  trace::count(trace::Counter::kAllocMagazineFlushbacks);
}

void Pool::flush_back_locked(const std::vector<std::uint64_t>& out,
                             std::size_t cls, int stripe) {
  // Mirror image of refill_locked: unflag a batch of magazine chunks and
  // chain them onto the acting stripe's class list under one undo
  // transaction.  Rolling back restores the flagged headers (the scribbled
  // next words are dead payload bytes of magazine-owned chunks).
  const std::size_t csize = kClassSizes[cls];
  const auto ag = get<AllocGlobal>(Layout::kAllocOff);
  const auto ss = get<StripeState>(stripe_state_off(stripe));

  std::vector<Range> log;
  log.push_back({Layout::kAllocOff, sizeof(AllocGlobal)});
  log.push_back({stripe_state_off(stripe), sizeof(StripeState)});
  for (const auto c : out) log.push_back({c, kChunkHeader + 8});
  aundo_log_batch(stripe, log);

  std::vector<Range> dirty;
  std::uint64_t next = ss.free_head[cls];
  for (auto it = out.rbegin(); it != out.rend(); ++it) {
    const std::uint64_t c = *it;
    const ChunkHeader h =
        make_chunk(csize - kChunkHeader, static_cast<std::uint32_t>(cls));
    write(c, &h, sizeof(h));
    write(c + kChunkHeader, &next, 8);
    dirty.push_back({c, kChunkHeader + 8});
    next = c;
  }
  const std::uint64_t field =
      stripe_state_off(stripe) + offsetof(StripeState, free_head) + cls * 8;
  write(field, &next, 8);
  dirty.push_back({field, 8});
  const std::uint64_t in_use =
      ag.bytes_in_use - out.size() * (csize - kChunkHeader);
  write(Layout::kAllocOff + offsetof(AllocGlobal, bytes_in_use), &in_use, 8);
  dirty.push_back({Layout::kAllocOff + offsetof(AllocGlobal, bytes_in_use), 8});
  persist_ranges(dirty);
  aundo_commit(stripe);
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
  // Walk the heap with uncharged raw peeks (recovery metadata, not workload
  // I/O), collecting every chunk a crash left magazine-flagged; then push
  // each back to a free list as a flush-back batch of one under its own
  // undo transaction, so a re-crash mid-sweep just leaves the remainder
  // flagged for the next open.
  const auto peek = [&](std::uint64_t off, void* dst, std::size_t len) {
    std::memcpy(dst, dev_->raw(base_ + off), len);
  };
  AllocGlobal ag;
  peek(Layout::kAllocOff, &ag, sizeof(ag));
  const std::uint64_t heap0 = Layout::heap_start();
  if (ag.arena_cursor < heap0 || ag.arena_cursor > size_) return;

  struct Flagged {
    std::uint64_t at;
    std::uint32_t cls;
  };
  std::vector<Flagged> flagged;
  for (std::uint64_t pos = heap0; pos < ag.arena_cursor;) {
    ChunkHeader ch;
    peek(pos, &ch, sizeof(ch));
    if (!chunk_ok(ch)) {
      // Mirror check()'s rule: the allocator hops quarantined media without
      // writing a filler header when the range covers the header spot.
      const std::pair<std::uint64_t, std::uint64_t>* hit = nullptr;
      for (const auto& q : quar_) {
        if (q.first < pos + kChunkHeader && pos < q.first + q.second &&
            (hit == nullptr || q.first < hit->first)) {
          hit = &q;
        }
      }
      if (hit != nullptr) {
        pos = round_up(hit->first + hit->second, kChunkAlign);
        continue;
      }
      break;  // corrupt heap: check() owns the diagnosis, not the sweep
    }
    const std::uint64_t adv = kChunkHeader + ch.payload_size;
    if (adv % kChunkAlign != 0 || pos + adv > ag.arena_cursor) break;
    if (is_magged(ch.cls) && base_class(ch.cls) < kClassSizes.size() &&
        kClassSizes[base_class(ch.cls)] == adv &&
        (quar_.empty() || !quar_hit(pos, adv)) &&
        !dev_->media_failing(base_ + pos, kChunkHeader + 8)) {
      flagged.push_back({pos, base_class(ch.cls)});
    }
    pos += adv;
  }

  for (const auto& f : flagged) {
    // Spread reclaimed chunks deterministically by offset, independent of
    // the (not yet configured) active stripe count — the slow path steals
    // from every stripe anyway.  Slide past dead-media stripes; with all
    // of them dead the chunk stays flagged for a later open to sweep.
    int stripe = static_cast<int>((f.at / kChunkAlign) % kAllocStripes);
    int slid = 0;
    while (slid < static_cast<int>(kAllocStripes) && stripe_failing(stripe)) {
      stripe = (stripe + 1) % static_cast<int>(kAllocStripes);
      ++slid;
    }
    if (slid == static_cast<int>(kAllocStripes)) continue;
    try {
      undo_tx("pool.sweep", stripe,
              [&] { flush_back_locked({f.at}, f.cls, stripe); });
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

void Pool::load_quarantine() {
  // Uncharged peeks: recovery metadata, not workload I/O.
  QuarHeader qh;
  std::memcpy(&qh, dev_->raw(base_ + Layout::kQuarOff), sizeof(qh));
  quar_.clear();
  if (qh.count == 0) {
    if (qh.crc != 0) {
      throw PoolError("Pool: quarantine header corrupt (crc without entries)");
    }
    return;
  }
  if (qh.count > kQuarantineCapacity) {
    throw PoolError("Pool: quarantine count exceeds table capacity");
  }
  std::vector<QuarEntry> ents(qh.count);
  std::memcpy(ents.data(), dev_->raw(base_ + Layout::kQuarEntries),
              ents.size() * sizeof(QuarEntry));
  if (crc32c(ents.data(), ents.size() * sizeof(QuarEntry)) != qh.crc) {
    throw PoolError("Pool: quarantine table checksum mismatch");
  }
  for (const auto& e : ents) {
    if (e.len == 0 || e.off % pmem::kCacheLine != 0 ||
        e.len % pmem::kCacheLine != 0 || e.off > size_ ||
        e.len > size_ - e.off) {
      throw PoolError("Pool: quarantine entry corrupt");
    }
    quar_.emplace_back(e.off, e.len);
  }
  art_->quar_active.store(!quar_.empty(), std::memory_order_release);
}

bool Pool::quar_hit(std::uint64_t off, std::size_t len) const {
  for (const auto& [qo, ql] : quar_) {
    if (off < qo + ql && qo < off + len) return true;
  }
  return false;
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

  // --- pool header ---------------------------------------------------------
  PoolHeader hdr{};
  try {
    hdr = get<PoolHeader>(Layout::kHeaderOff);
  } catch (const pmem::DeviceError& e) {
    issue(std::string("pool header: ") + e.what());
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
  std::array<StripeState, kAllocStripes> stripes{};
  try {
    as = get<AllocGlobal>(Layout::kAllocOff);
    for (std::size_t s = 0; s < kAllocStripes; ++s) {
      stripes[s] = get<StripeState>(stripe_state_off(static_cast<int>(s)));
    }
  } catch (const pmem::DeviceError& e) {
    issue(std::string("alloc state: ") + e.what());
    return rep;
  }
  const std::uint64_t heap0 = Layout::heap_start();
  if (as.arena_cursor < heap0 || as.arena_cursor > as.arena_end ||
      as.arena_end > size_ || as.arena_cursor % kChunkAlign != 0) {
    issue("alloc state: arena bounds corrupt (cursor " +
          std::to_string(as.arena_cursor) + ", end " +
          std::to_string(as.arena_end) + ")");
    return rep;  // heap walk bounds are meaningless
  }

  // --- quarantine table -----------------------------------------------------
  // Validated from media (not the DRAM cache): the heap walk below needs it
  // to skip arena stretches the allocator hopped over without a filler.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> quar;
  {
    QuarHeader qh{};
    bool qh_ok = true;
    try {
      qh = get<QuarHeader>(Layout::kQuarOff);
    } catch (const pmem::DeviceError& e) {
      issue(std::string("quarantine table: ") + e.what());
      qh_ok = false;
    }
    if (qh_ok && qh.count > kQuarantineCapacity) {
      issue("quarantine table: count " + std::to_string(qh.count) +
            " exceeds capacity");
      qh_ok = false;
    }
    if (qh_ok && qh.count == 0 && qh.crc != 0) {
      issue("quarantine table: checksum without entries");
      qh_ok = false;
    }
    if (qh_ok && qh.count > 0) {
      std::vector<QuarEntry> ents(qh.count);
      try {
        read(Layout::kQuarEntries, ents.data(),
             ents.size() * sizeof(QuarEntry));
      } catch (const pmem::DeviceError& e) {
        issue(std::string("quarantine table: ") + e.what());
        qh_ok = false;
      }
      if (qh_ok &&
          crc32c(ents.data(), ents.size() * sizeof(QuarEntry)) != qh.crc) {
        issue("quarantine table: checksum mismatch");
        qh_ok = false;
      }
      if (qh_ok) {
        for (const auto& e : ents) {
          if (e.len == 0 || e.off % pmem::kCacheLine != 0 ||
              e.len % pmem::kCacheLine != 0 || e.off > size_ ||
              e.len > size_ - e.off) {
            issue("quarantine table: entry (" + std::to_string(e.off) + ", " +
                  std::to_string(e.len) + ") corrupt");
            qh_ok = false;
            break;
          }
          quar.emplace_back(e.off, e.len);
        }
        if (!qh_ok) quar.clear();
      }
    }
  }

  // --- heap walk ------------------------------------------------------------
  // Every byte of [heap_start, arena_cursor) must be tiled by chunks with
  // valid checksums; a chunk overrunning the cursor means overlap.
  std::unordered_set<std::uint64_t> boundaries;
  std::uint64_t payload_total = 0;
  bool walk_ok = true;
  for (std::uint64_t pos = heap0; pos < as.arena_cursor;) {
    ChunkHeader ch{};
    try {
      ch = get<ChunkHeader>(pos);
    } catch (const pmem::DeviceError& e) {
      issue(std::string("heap walk: ") + e.what());
      walk_ok = false;
      break;
    }
    if (!chunk_ok(ch)) {
      // The allocator hops over quarantined media without writing a filler
      // header when the quarantined range covers the header spot itself;
      // mirror that skip rule before calling the stretch corrupt.
      const std::pair<std::uint64_t, std::uint64_t>* hit = nullptr;
      for (const auto& q : quar) {
        if (q.first < pos + kChunkHeader && pos < q.first + q.second &&
            (hit == nullptr || q.first < hit->first)) {
          hit = &q;
        }
      }
      if (hit != nullptr) {
        pos = round_up(hit->first + hit->second, kChunkAlign);
        continue;
      }
      issue("heap walk: corrupt chunk header at " + std::to_string(pos));
      walk_ok = false;
      break;
    }
    const std::uint64_t adv = kChunkHeader + ch.payload_size;
    if (adv % kChunkAlign != 0 || pos + adv > as.arena_cursor) {
      issue("heap walk: chunk at " + std::to_string(pos) +
            " overruns the arena (overlap or corrupt size)");
      walk_ok = false;
      break;
    }
    if (is_magged(ch.cls)) {
      // Magazine-owned: counted as in-use (never expected on a free list;
      // the class comparison below rejects a flagged list entry anyway).
      if (base_class(ch.cls) >= kClassSizes.size() ||
          kClassSizes[base_class(ch.cls)] != adv) {
        issue("heap walk: magazine chunk at " + std::to_string(pos) +
              " has class " + std::to_string(ch.cls) +
              " inconsistent with its size");
        walk_ok = false;
        break;
      }
      ++rep.magazine_chunks;
    }
    boundaries.insert(pos);
    payload_total += ch.payload_size;
    ++rep.chunks_walked;
    pos += adv;
  }

  // --- free lists -----------------------------------------------------------
  std::unordered_set<std::uint64_t> free_seen;
  std::uint64_t free_payload = 0;
  // Cap generous enough for any legal list; only a cycle can exceed it.
  const std::size_t max_hops = (as.arena_cursor - heap0) / kChunkAlign + 2;
  auto walk_free = [&](std::uint64_t head, std::uint32_t want_cls,
                       const std::string& name) {
    std::uint64_t cur = head;
    std::size_t hops = 0;
    while (cur != 0) {
      if (++hops > max_hops) {
        issue(name + ": cycle detected");
        return;
      }
      if (cur < heap0 || cur + kChunkHeader > as.arena_cursor) {
        issue(name + ": entry " + std::to_string(cur) + " outside the heap");
        return;
      }
      if (walk_ok && !boundaries.contains(cur)) {
        issue(name + ": entry " + std::to_string(cur) +
              " not on a chunk boundary (overlap)");
        return;
      }
      if (!free_seen.insert(cur).second) {
        issue(name + ": entry " + std::to_string(cur) +
              " on multiple free lists");
        return;
      }
      ChunkHeader ch{};
      try {
        ch = get<ChunkHeader>(cur);
      } catch (const pmem::DeviceError& e) {
        issue(name + ": " + e.what());
        return;
      }
      if (!chunk_ok(ch)) {
        issue(name + ": corrupt chunk header at " + std::to_string(cur));
        return;
      }
      if (ch.cls != want_cls) {
        issue(name + ": entry " + std::to_string(cur) + " has class " +
              std::to_string(ch.cls) + ", want " + std::to_string(want_cls));
        return;
      }
      free_payload += ch.payload_size;
      ++rep.free_chunks;
      cur = get<std::uint64_t>(cur + kChunkHeader);
    }
  };
  for (std::size_t s = 0; s < kAllocStripes; ++s) {
    for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
      walk_free(stripes[s].free_head[c], static_cast<std::uint32_t>(c),
                "stripe " + std::to_string(s) + " free list[" +
                    std::to_string(kClassSizes[c]) + "]");
    }
  }
  walk_free(as.large_free_head, kLargeClass, "large free list");

  // --- accounting -----------------------------------------------------------
  if (walk_ok) {
    rep.bytes_in_use = payload_total - free_payload;
    // Quarantined allocator state is permanently unwritable media: the
    // stored counter can no longer track the heap (the pool is dead for
    // writes and headed for degraded read-only mode), so a mismatch there
    // is the expected scar of the media failure, not a structural bug.
    bool alloc_state_dead = false;
    for (const auto& q : quar) {
      if (q.first < Layout::kStripeBase + kAllocStripes * Layout::kStripeStride &&
          Layout::kAllocOff < q.first + q.second) {
        alloc_state_dead = true;
        break;
      }
    }
    // A non-empty allocator undo lane means a tx is pending recovery: it
    // tore mid-mutation and even the live rollback could not finish (the
    // media under one of its pre-image targets died).  Until the lane
    // replays, the stored counter legitimately disagrees with the heap by
    // the torn tx's delta — the same reason the undo-log section below
    // accepts non-empty-but-well-formed lanes.
    bool lanes_pending = false;
    for (std::size_t s = 0; s < kAllocStripes && !lanes_pending; ++s) {
      try {
        lanes_pending =
            get<std::uint64_t>(stripe_undo_off(static_cast<int>(s))) != 0;
      } catch (const pmem::DeviceError&) {
        lanes_pending = true;  // unreadable lane: assume pending
      }
    }
    if (!alloc_state_dead && !lanes_pending &&
        rep.bytes_in_use != as.bytes_in_use) {
      issue("bytes_in_use mismatch: stored " +
            std::to_string(as.bytes_in_use) + ", recomputed " +
            std::to_string(rep.bytes_in_use));
    }
  }

  // --- undo lanes -----------------------------------------------------------
  // Structural validity only: on a recovered pool every lane is empty; a
  // non-empty but well-formed lane is merely pending recovery.
  auto check_lane = [&](int stripe) {
    const std::string name = "allocator undo lane " + std::to_string(stripe);
    const std::uint64_t header_off = stripe_undo_off(stripe);
    std::uint64_t used = 0;
    try {
      used = get<std::uint64_t>(header_off);
    } catch (const pmem::DeviceError& e) {
      issue(name + ": " + e.what());
      return;
    }
    if (used > Layout::kStripeUndoBytes) {
      issue(name + ": used " + std::to_string(used) + " exceeds capacity " +
            std::to_string(Layout::kStripeUndoBytes));
      return;
    }
    std::uint64_t pos = header_off + 8;
    const std::uint64_t end = pos + used;
    while (pos < end) {
      const auto eh = get<LogEntryHeader>(pos);
      if (eh.len > size_ || eh.off > size_ - eh.len) {
        issue(name + ": entry at " + std::to_string(pos) +
              " targets a range beyond the pool");
        return;
      }
      const std::uint64_t adv = sizeof(LogEntryHeader) + round_up(eh.len, 8);
      if (pos + adv > end) {
        issue(name + ": truncated entry at " + std::to_string(pos));
        return;
      }
      pos += adv;
    }
  };
  for (std::size_t s = 0; s < kAllocStripes; ++s) {
    check_lane(static_cast<int>(s));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void Pool::recover() {
  trace::Span span("pool.recover");
  trace::count(trace::Counter::kRecoveries);
  // An interrupted alloc/free/refill is rolled back before anything else
  // trusts the heap metadata.  The global allocator mutex admits one
  // uncommitted batch at a time, so at most one lane has anything to do and
  // cross-lane order is irrelevant.
  for (std::size_t s = 0; s < kAllocStripes; ++s) {
    rollback_log(static_cast<int>(s));
  }
}

}  // namespace pmemcpy::obj
