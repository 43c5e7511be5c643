#include <pmemcpy/obj/hashtable.hpp>

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace pmemcpy::obj {

namespace {

struct TableHeader {
  std::uint64_t nbuckets;
  std::uint64_t buckets_off;
  std::uint64_t count;
};

/// Persistent node layout: this fixed header, then the key bytes.  Staged
/// with one store (reserve, rehash copies) and fetched with one load, so a
/// chain step costs one latency-bound PMEM read instead of one per field.
struct NodeHeaderImage {
  std::uint64_t next;
  std::uint64_t val_off;
  std::uint64_t val_size;
  std::uint64_t meta;
  std::uint32_t key_len;
  std::uint32_t pad;
};
constexpr std::uint64_t kNodeNext = offsetof(NodeHeaderImage, next);
constexpr std::uint64_t kNodeMeta = offsetof(NodeHeaderImage, meta);
constexpr std::uint64_t kNodeKey = sizeof(NodeHeaderImage);
static_assert(kNodeKey == 40);

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

NodeHeaderImage read_header(const Pool& pool, std::uint64_t node) {
  NodeHeaderImage h;
  pool.read(node, &h, sizeof(h));
  return h;
}

std::string read_key(const Pool& pool, std::uint64_t node,
                     const NodeHeaderImage& h) {
  std::string key(h.key_len, '\0');
  if (h.key_len != 0) pool.read(node + kNodeKey, key.data(), h.key_len);
  return key;
}

/// Whether @p node (header @p h) holds @p key.  The key bytes are read only
/// when the lengths match.
bool holds_key(const Pool& pool, std::uint64_t node, const NodeHeaderImage& h,
               std::string_view key) {
  return h.key_len == key.size() && read_key(pool, node, h) == key;
}

/// A set of stripe locks, taken in ascending order (the one order every
/// multi-stripe locker uses) and released in reverse — also when an
/// exception unwinds through the holder.
class StripeLocks {
 public:
  explicit StripeLocks(std::span<std::mutex> stripes) : stripes_(stripes) {}
  StripeLocks(const StripeLocks&) = delete;
  StripeLocks& operator=(const StripeLocks&) = delete;
  ~StripeLocks() { release(); }

  /// Release what is held, then lock @p ids (sorted, unique).
  void lock(std::vector<std::size_t> ids) {
    release();
    ids_ = std::move(ids);
    for (; held_ < ids_.size(); ++held_) stripes_[ids_[held_]].lock();
  }
  void lock_all() {
    std::vector<std::size_t> ids(stripes_.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    lock(std::move(ids));
  }
  void release() {
    while (held_ > 0) stripes_[ids_[--held_]].unlock();
  }

 private:
  std::span<std::mutex> stripes_;
  std::vector<std::size_t> ids_;
  std::size_t held_ = 0;
};

/// Flush the distinct cachelines covering a set of small ranges as
/// contiguous runs (the same coalescing Transaction::commit does), without
/// the fence — the caller drains once for the whole set.
void flush_coalesced(Pool& pool,
                     const std::vector<std::pair<std::uint64_t, std::size_t>>&
                         ranges) {
  std::vector<std::uint64_t> lines;
  for (const auto& [off, len] : ranges) {
    const std::uint64_t first = off / pmem::kCacheLine;
    const std::uint64_t last =
        (off + len + pmem::kCacheLine - 1) / pmem::kCacheLine;
    for (std::uint64_t l = first; l < last; ++l) lines.push_back(l);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (std::size_t i = 0; i < lines.size();) {
    std::size_t j = i + 1;
    while (j < lines.size() && lines[j] == lines[j - 1] + 1) ++j;
    pool.flush(lines[i] * pmem::kCacheLine,
               (lines[j - 1] - lines[i] + 1) * pmem::kCacheLine);
    i = j;
  }
}

/// Zero a pool range in bounded chunks.
void zero_range(Pool& pool, std::uint64_t off, std::size_t len) {
  static constexpr std::size_t kChunk = 64 * 1024;
  std::vector<std::byte> zeros(std::min(len, kChunk), std::byte{0});
  std::size_t done = 0;
  while (done < len) {
    const std::size_t n = std::min(len - done, kChunk);
    pool.write(off + done, zeros.data(), n);
    done += n;
  }
  pool.persist(off, len);
}

}  // namespace

HashTable::HashTable(Pool& pool, std::uint64_t hoff, std::uint64_t nbuckets,
                     std::uint64_t buckets_off, std::uint64_t count)
    : pool_(&pool), hoff_(hoff) {
  s_->nbuckets.store(nbuckets, std::memory_order_relaxed);
  s_->buckets_off = buckets_off;
  s_->count.store(count, std::memory_order_relaxed);
}

HashTable HashTable::create(Pool& pool, std::size_t nbuckets) {
  if (nbuckets == 0) nbuckets = 1;
  const std::uint64_t buckets = pool.alloc(nbuckets * 8);
  zero_range(pool, buckets, nbuckets * 8);
  const std::uint64_t hoff = pool.alloc(sizeof(TableHeader));
  const TableHeader hdr{nbuckets, buckets, 0};
  pool.set(hoff, hdr);
  return HashTable(pool, hoff, hdr.nbuckets, hdr.buckets_off, hdr.count);
}

HashTable HashTable::open(Pool& pool, std::uint64_t header_off) {
  const auto hdr = pool.get<TableHeader>(header_off);
  if (hdr.nbuckets == 0 || hdr.buckets_off == 0) {
    throw PoolError("HashTable::open: invalid header");
  }
  return HashTable(pool, header_off, hdr.nbuckets, hdr.buckets_off,
                   hdr.count);
}

std::uint64_t HashTable::lock_bucket(std::string_view key,
                                     std::unique_lock<std::mutex>& lk) const {
  const std::uint64_t h = fnv1a(key);
  for (;;) {
    const std::uint64_t nb = s_->nbuckets.load(std::memory_order_acquire);
    const std::uint64_t b = h % nb;
    std::unique_lock stripe(s_->stripes[b % kStripes]);
    // A rehash that committed between the load and the lock moved the key
    // to another bucket, and maybe under another stripe: drop this stripe
    // (holding it while taking another would break the ascending order
    // the every-stripe lockers rely on) and retry.
    if (s_->nbuckets.load(std::memory_order_relaxed) == nb) {
      lk = std::move(stripe);
      return s_->buckets_off + b * 8;
    }
  }
}

std::optional<ValueRef> HashTable::find(std::string_view key) const {
  std::unique_lock<std::mutex> lk;
  std::uint64_t node = pool_->get<std::uint64_t>(lock_bucket(key, lk));
  while (node != 0) {
    const auto h = read_header(*pool_, node);
    if (holds_key(*pool_, node, h, key)) {
      return ValueRef{node, h.val_off, h.val_size, h.meta};
    }
    node = h.next;
  }
  return std::nullopt;
}

HashTable::Inserter HashTable::reserve(std::string_view key,
                                       std::size_t val_size,
                                       std::uint64_t meta) {
  pool_->device().check_tx_begin("ht.put");
  const std::uint64_t val = val_size > 0 ? pool_->alloc(val_size) : 0;
  const std::uint64_t node = pool_->alloc(kNodeKey + key.size());
  // Stage header + key with plain stores; publish() makes the whole node
  // durable with one flush pass and a single fence.
  const NodeHeaderImage nh{0, val, val_size, meta,
                           static_cast<std::uint32_t>(key.size()), 0};
  pool_->write(node, &nh, sizeof(nh));
  if (!key.empty()) {
    pool_->write(node + kNodeKey, key.data(), key.size());
  }
  return Inserter(*this, key, node, val, val_size, meta);
}

void HashTable::put(std::string_view key, const void* data, std::size_t len,
                    std::uint64_t meta) {
  auto ins = reserve(key, len, meta);
  if (len > 0) {
    auto span = ins.value();
    std::memcpy(span.data(), data, len);
  }
  (void)ins.publish();  // replace mode: always links
}

std::vector<HashTable::Match> HashTable::find_chain(
    std::uint64_t slot, std::string_view key, std::uint64_t& head) const {
  std::vector<Match> matches;
  head = pool_->get<std::uint64_t>(slot);
  std::uint64_t prev = 0;
  for (std::uint64_t node = head; node != 0;) {
    const auto h = read_header(*pool_, node);
    if (holds_key(*pool_, node, h, key)) {
      matches.push_back({prev, node, h.next, h.val_off});
    }
    prev = node;
    node = h.next;
  }
  return matches;
}

void HashTable::unlink_free(std::uint64_t slot, std::uint64_t prev,
                            std::uint64_t node) {
  const auto h = read_header(*pool_, node);
  pool_->set<std::uint64_t>(prev == 0 ? slot : prev + kNodeNext, h.next);
  pool_->free(node);
  if (h.val_off != 0) pool_->free(h.val_off);
}

bool HashTable::link_replace(const Inserter& ins, bool keep_existing,
                             bool* linked_out) {
  std::unique_lock<std::mutex> lk;
  const std::uint64_t slot = lock_bucket(ins.key_, lk);
  std::uint64_t head = 0;
  auto matches = find_chain(slot, ins.key_, head);

  if (!matches.empty() && keep_existing) {
    // First writer won: discard this reservation.
    pool_->free(ins.node_off_);
    if (ins.val_off_ != 0) pool_->free(ins.val_off_);
    return false;
  }

  // Crash leftovers first: an overwrite interrupted between its head
  // publish and its unlink leaves a stale duplicate shadowed behind the
  // live (first) match.  Readers never see those, so sweeping them
  // deepest-first is invisible at every intermediate crash point.  The
  // sweep never touches the bucket head (every swept node sits behind the
  // live match), but it may relink the live match's next pointer.
  const bool swept = matches.size() > 1;
  while (matches.size() > 1) {
    unlink_free(slot, matches.back().prev, matches.back().node);
    matches.pop_back();
  }

  const std::uint64_t node_off = ins.node_off_;
  if (matches.empty()) {
    // Fresh key: the head store is the atomic publish.
    pool_->set<std::uint64_t>(node_off + kNodeNext, head);
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
    bump_count(+1);
    return true;
  }

  Match old = matches.front();
  if (swept) old.next = read_header(*pool_, old.node).next;
  if (old.prev == 0) {
    // The superseded entry IS the head: point the new node past it first,
    // so the single head store atomically swaps old for new.  No crash
    // point can see both versions chained.
    pool_->set<std::uint64_t>(node_off + kNodeNext, old.next);
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
  } else {
    // Mid-chain: publish the new head first (the stale entry is shadowed
    // behind it for every reader), then unlink it.  A crash in between
    // leaves exactly the shadowed duplicate the sweeps collect.
    pool_->set<std::uint64_t>(node_off + kNodeNext, head);
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
    pool_->set<std::uint64_t>(old.prev + kNodeNext, old.next);
  }
  pool_->free(old.node);
  if (old.val_off != 0) pool_->free(old.val_off);
  return true;
}

bool HashTable::erase(std::string_view key) {
  std::unique_lock<std::mutex> lk;
  const std::uint64_t slot = lock_bucket(key, lk);
  std::uint64_t head = 0;
  auto matches = find_chain(slot, key, head);
  if (matches.empty()) return false;
  // Deepest-first: shadowed crash-leftover duplicates go before the live
  // head entry, so every intermediate crash point still reads exactly the
  // live value; the final unlink completes the erase.  The old head-first
  // single unlink was the resurrection bug the property fuzzer caught — it
  // re-exposed a stale duplicate as the live value.
  while (!matches.empty()) {
    unlink_free(slot, matches.back().prev, matches.back().node);
    matches.pop_back();
  }
  bump_count(-1);
  return true;
}

void HashTable::read_value(const ValueRef& ref, void* dst) const {
  pool_->read(ref.val_off, dst, ref.val_size);
}

const std::byte* HashTable::value_direct(const ValueRef& ref) const {
  pool_->charge_read(ref.val_size);
  return pool_->direct(ref.val_off);
}

std::size_t HashTable::count() const {
  return s_->count.load(std::memory_order_relaxed);
}

std::size_t HashTable::nbuckets() const {
  return s_->nbuckets.load(std::memory_order_relaxed);
}

void HashTable::bump_count(std::int64_t delta) {
  std::lock_guard lk(s_->count_mu);
  const auto count = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(s_->count.load(std::memory_order_relaxed)) +
      delta);
  pool_->set<std::uint64_t>(hoff_ + offsetof(TableHeader, count), count);
  s_->count.store(count, std::memory_order_relaxed);  // durable now
}

void HashTable::for_each(
    const std::function<void(std::string_view, const ValueRef&)>& fn) const {
  // Hold every stripe so the view is consistent.
  StripeLocks all(s_->stripes);
  all.lock_all();
  // Scan the bucket array with one bulk read (a sequential-streaming
  // access), not one charged random read per slot.
  std::vector<std::uint64_t> heads(
      s_->nbuckets.load(std::memory_order_relaxed));
  pool_->read(s_->buckets_off, heads.data(), heads.size() * 8);
  for (std::uint64_t node : heads) {
    while (node != 0) {
      const auto h = read_header(*pool_, node);
      fn(read_key(*pool_, node, h),
         ValueRef{node, h.val_off, h.val_size, h.meta});
      node = h.next;
    }
  }
}

void HashTable::for_each_prefix(
    std::string_view prefix,
    const std::function<void(std::string_view, const ValueRef&)>& fn) const {
  for_each([&](std::string_view key, const ValueRef& ref) {
    if (key.size() >= prefix.size() &&
        key.compare(0, prefix.size(), prefix) == 0) {
      fn(key, ref);
    }
  });
}

void HashTable::rehash(std::size_t new_nbuckets) {
  StripeLocks all(s_->stripes);
  all.lock_all();
  rebuild(new_nbuckets == 0 ? 1 : new_nbuckets);
}

bool HashTable::over_load() const noexcept {
  return s_->count.load(std::memory_order_relaxed) >
         s_->nbuckets.load(std::memory_order_relaxed) * 4;
}

void HashTable::maybe_grow() {
  if (!auto_grow_ || !over_load()) return;
  StripeLocks all(s_->stripes);
  all.lock_all();
  // Every publisher that crossed the threshold gets here; the first to hold
  // the stripes grows the table and the rest find it already grown.
  if (over_load()) rebuild(s_->nbuckets.load(std::memory_order_relaxed) * 4);
}

void HashTable::rebuild(std::size_t new_nbuckets) {
  trace::Span span("ht.rehash");
  std::vector<std::uint64_t> old_heads(
      s_->nbuckets.load(std::memory_order_relaxed));
  const std::uint64_t old_off = s_->buckets_off;
  pool_->read(old_off, old_heads.data(), old_heads.size() * 8);

  // Build a complete replacement: new array + copied nodes sharing the old
  // value blobs.  Nothing existing is mutated until the header swap.  Each
  // copy is written back as it is made and the new heads collect in DRAM;
  // one drain after the array store makes all of it durable at once.
  const std::uint64_t new_off = pool_->alloc(new_nbuckets * 8);
  std::vector<std::uint64_t> heads(new_nbuckets, 0);
  std::vector<std::uint64_t> old_nodes;
  std::vector<std::uint64_t> dup_vals;
  std::vector<std::byte> image;
  for (std::uint64_t node : old_heads) {
    std::set<std::string> seen;  // keys copied from this chain
    while (node != 0) {
      old_nodes.push_back(node);
      const auto h = read_header(*pool_, node);
      const std::string key = read_key(*pool_, node, h);
      if (!seen.insert(key).second) {
        // Shadowed crash-leftover duplicate (see link_replace): copying it
        // would RE-ORDER it above the live entry, because this loop
        // prepends while walking head-to-tail.  Drop it instead; its value
        // blob is freed with the other retired storage after the swap.
        dup_vals.push_back(h.val_off);
        node = h.next;
        continue;
      }
      const std::uint64_t copy = pool_->alloc(kNodeKey + key.size());
      std::uint64_t& head = heads[fnv1a(key) % new_nbuckets];
      const NodeHeaderImage nh{head, h.val_off, h.val_size, h.meta,
                               h.key_len, 0};
      image.resize(kNodeKey + key.size());
      std::memcpy(image.data(), &nh, sizeof(nh));
      std::memcpy(image.data() + kNodeKey, key.data(), key.size());
      pool_->write(copy, image.data(), image.size());
      pool_->flush(copy, image.size());
      head = copy;
      node = h.next;
    }
  }
  pool_->write(new_off, heads.data(), heads.size() * 8);
  pool_->flush(new_off, heads.size() * 8);
  pool_->drain();

  {
    Transaction tx(*pool_);
    tx.snapshot(hoff_, sizeof(TableHeader));
    // Plain stores inside the transaction: commit() flushes the snapshotted
    // range once (a per-field set() here paid an extra flush+fence each and
    // made commit's own flush a checker-flagged duplicate).
    const std::uint64_t nb = new_nbuckets;
    pool_->write(hoff_ + offsetof(TableHeader, nbuckets), &nb, sizeof(nb));
    pool_->write(hoff_ + offsetof(TableHeader, buckets_off), &new_off,
                 sizeof(new_off));
    tx.commit();
  }
  // The swap is durable: move the mirror over before retiring the old
  // storage (a fault while freeing must not leave it pointing back).
  s_->buckets_off = new_off;
  s_->nbuckets.store(new_nbuckets, std::memory_order_release);

  for (std::uint64_t node : old_nodes) pool_->free(node);
  for (std::uint64_t val : dup_vals) {
    if (val != 0) pool_->free(val);
  }
  pool_->free(old_off);
}

// ---------------------------------------------------------------------------
// Inserter
// ---------------------------------------------------------------------------

HashTable::Inserter::Inserter(HashTable& t, std::string_view key,
                              std::uint64_t node_off, std::uint64_t val_off,
                              std::uint64_t val_size, std::uint64_t meta)
    : table_(&t),
      key_(key),
      node_off_(node_off),
      val_off_(val_off),
      val_size_(val_size),
      meta_(meta) {}

HashTable::Inserter::Inserter(Inserter&& o) noexcept
    : table_(o.table_),
      key_(std::move(o.key_)),
      node_off_(o.node_off_),
      val_off_(o.val_off_),
      val_size_(o.val_size_),
      meta_(o.meta_),
      published_(o.published_),
      scope_open_(o.scope_open_) {
  o.published_ = true;  // the moved-from shell owns nothing
  o.scope_open_ = false;
  o.node_off_ = 0;
}

HashTable::Inserter::~Inserter() {
  if (published_ || node_off_ == 0) {
    if (scope_open_) table_->pool_->device().check_tx_abort();
    return;
  }
  try {
    table_->pool_->free(node_off_);
    if (val_off_ != 0) table_->pool_->free(val_off_);
  } catch (...) {
    // Reached during exception unwind (e.g. a scheduled crash fired before
    // publish).  Crash-point exceptions must not escape a destructor; the
    // allocator undo log reconciles interrupted frees on reopen.
  }
  if (scope_open_) {
    scope_open_ = false;
    table_->pool_->device().check_tx_abort();  // abandoned reservation
  }
}

void HashTable::Inserter::close_checker_scope() {
  if (!scope_open_) return;
  scope_open_ = false;
  table_->pool_->device().check_tx_abort();
}

void HashTable::Inserter::set_meta_high(std::uint32_t hi) {
  meta_ = (meta_ & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(hi) << 32);
  if (published_) {
    table_->pool_->set<std::uint64_t>(node_off_ + kNodeMeta, meta_);
  } else {
    // Still staged: publish() persists the whole header in one flush.
    table_->pool_->write(node_off_ + kNodeMeta, &meta_, sizeof(meta_));
  }
}

std::span<std::byte> HashTable::Inserter::value() {
  return table_->pool_->direct_write_span(val_off_, val_size_);
}

bool HashTable::Inserter::publish(bool keep_existing) {
  if (published_) return false;
  trace::Span span("ht.publish");
  // Make the entry durable before it becomes reachable: one CLWB pass over
  // the value blob and the node (header + key), then a single fence.
  if (val_size_ > 0) table_->pool_->flush(val_off_, val_size_);
  table_->pool_->flush(node_off_, kNodeKey + key_.size());
  table_->pool_->drain();
  if (val_size_ > 0) table_->pool_->check_publish(val_off_, val_size_);
  table_->pool_->check_publish(node_off_, kNodeKey + key_.size());
  bool head_linked = false;
  bool linked;
  try {
    linked = table_->link_replace(*this, keep_existing, &head_linked);
  } catch (...) {
    // A fault in the post-publish tail (count bump, stale-entry unlink or
    // free) unwinds through here with the entry already durably reachable.
    // Marking it published keeps the destructor from freeing live storage —
    // the healing retry then supersedes the entry as a normal overwrite.
    if (head_linked) {
      published_ = true;
      if (scope_open_) {
        // Abort (not commit) the checker scope: the faulted tail may have
        // left a stored-but-reverted line the checker still sees as dirty,
        // and tx_commit would flag that as a violation of ours.
        scope_open_ = false;
        table_->pool_->device().check_tx_abort();
      }
    }
    throw;
  }
  published_ = true;  // either linked or already freed by link_replace
  if (scope_open_) {
    scope_open_ = false;
    table_->pool_->device().check_tx_commit();
  }
  if (linked) table_->maybe_grow();
  return linked;
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

void HashTable::publish_group(std::span<GroupPut> puts) {
  trace::Span span("ht.publish_group");
  // Live = staged reservations this call actually owns (skip moved-from
  // shells and anything already published).
  std::vector<GroupPut*> live;
  for (auto& p : puts) {
    if (p.ins == nullptr || p.ins->published_ || p.ins->node_off_ == 0) {
      continue;
    }
    if (p.ins->table_ != this) {
      throw PoolError("publish_group: Inserter from another table");
    }
    p.linked = false;
    live.push_back(&p);
  }
  if (live.empty()) return;

  // A batch stager closes each reservation's checker scope at stage time
  // (close_checker_scope()), because the scope stack is strictly LIFO and
  // this function publishes in an order unrelated to staging.  Direct
  // callers that skipped that get a fallback here: pop the still-open
  // scopes innermost-first (reverse staging order) before any publishing
  // work.  The staged lines stay dirty on purpose; check_publish() after
  // fence #1 verifies their durability instead.
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    (*it)->ins->close_checker_scope();
  }

  // Resolve duplicate keys within the batch before touching any chain:
  // replace-mode the last staged entry wins, keep_existing the first.
  // Losers are discarded without ever being linked — linking both copies
  // would leave which one a later erase/replace removes undefined.
  std::unordered_map<std::string_view, std::size_t> winner;
  std::vector<bool> discard(live.size(), false);
  for (std::size_t i = 0; i < live.size(); ++i) {
    auto [it, first] = winner.try_emplace(live[i]->ins->key_, i);
    if (!first) {
      if (live[i]->keep_existing) {
        discard[i] = true;
      } else {
        discard[it->second] = true;
        it->second = i;
      }
    }
  }

  // Lock the stripes of every winning key's bucket, so the persistent
  // chains are stable below us.  The stripes follow the bucket count, which
  // is re-checked once they are held in case a rehash committed in between.
  // RAII so a crash-point exception thrown below cannot leak the locks;
  // released explicitly before maybe_grow(), which takes every stripe.
  std::vector<std::uint64_t> hash(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    hash[i] = fnv1a(live[i]->ins->key_);
  }
  StripeLocks stripe_locks(s_->stripes);
  std::uint64_t nb = 0;
  do {
    nb = s_->nbuckets.load(std::memory_order_acquire);
    std::vector<std::size_t> stripe_ids;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (!discard[i]) stripe_ids.push_back(hash[i] % nb % kStripes);
    }
    std::sort(stripe_ids.begin(), stripe_ids.end());
    stripe_ids.erase(std::unique(stripe_ids.begin(), stripe_ids.end()),
                     stripe_ids.end());
    stripe_locks.lock(std::move(stripe_ids));
  } while (s_->nbuckets.load(std::memory_order_relaxed) != nb);

  // Wire the winners into per-bucket shadow chains: each new node's next
  // pointer is a plain store that rides along in the phase-A flush of the
  // node itself.  keep_existing winners defer to an entry already in the
  // persistent chain and are discarded instead.
  struct Replace {
    std::uint64_t slot;
    std::uint64_t old_node;
  };
  std::map<std::uint64_t, std::uint64_t> orig_head;    // slot -> old head
  std::map<std::uint64_t, std::uint64_t> shadow_head;  // slot -> new head
  std::vector<Replace> replaces;
  std::vector<std::pair<std::uint64_t, std::size_t>> durable;
  std::int64_t fresh_links = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (discard[i]) continue;
    Inserter& ins = *live[i]->ins;
    const std::uint64_t slot = s_->buckets_off + (hash[i] % nb) * 8;
    auto oh = orig_head.find(slot);
    if (oh == orig_head.end()) {
      const auto head = pool_->get<std::uint64_t>(slot);
      oh = orig_head.emplace(slot, head).first;
      shadow_head.emplace(slot, head);
    }
    std::uint64_t old = oh->second;
    while (old != 0) {
      const auto h = read_header(*pool_, old);
      if (holds_key(*pool_, old, h, ins.key_)) break;
      old = h.next;
    }
    if (old != 0 && live[i]->keep_existing) {
      discard[i] = true;
      continue;
    }
    std::uint64_t& head = shadow_head[slot];
    pool_->write(ins.node_off_ + kNodeNext, &head, sizeof(head));
    head = ins.node_off_;
    live[i]->linked = true;
    if (ins.val_size_ > 0) durable.emplace_back(ins.val_off_, ins.val_size_);
    durable.emplace_back(ins.node_off_, kNodeKey + ins.key_.size());
    if (old != 0) {
      replaces.push_back({slot, old});
    } else {
      ++fresh_links;
    }
  }

  if (!durable.empty()) {
    // Fence #1 — durability: every staged blob + node (including the next
    // pointers just written) becomes persistent under one coalesced CLWB
    // pass and a single drain.  Nothing is reachable yet, so a crash here
    // publishes nothing; the orphan chunks are mere leaks.
    {
      Transaction tx(*pool_);
      for (const auto& [off, len] : durable) tx.reserve(off, len);
      tx.commit();
    }
    for (auto* p : live) {
      if (!p->linked) continue;
      if (p->ins->val_size_ > 0) {
        pool_->check_publish(p->ins->val_off_, p->ins->val_size_);
      }
      pool_->check_publish(p->ins->node_off_,
                           kNodeKey + p->ins->key_.size());
    }

    // Fence #2 — visibility: one 8-byte head store per touched bucket plus
    // the count bump, all flushed together under a second single drain.
    // The count store stays under count_mu until it is durable, so no other
    // publisher stores to its line in between and the mirror follows it.
    std::vector<std::pair<std::uint64_t, std::size_t>> vis;
    for (const auto& [slot, head] : shadow_head) {
      if (head == orig_head.find(slot)->second) continue;  // all discarded
      pool_->write(slot, &head, sizeof(head));
      vis.emplace_back(slot, sizeof(head));
    }
    std::unique_lock clk(s_->count_mu, std::defer_lock);
    std::uint64_t count = 0;
    if (fresh_links != 0) {
      clk.lock();
      count = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(s_->count.load(std::memory_order_relaxed)) +
          fresh_links);
      pool_->write(hoff_ + offsetof(TableHeader, count), &count,
                   sizeof(count));
      vis.emplace_back(hoff_ + offsetof(TableHeader, count), sizeof(count));
    }
    flush_coalesced(*pool_, vis);
    pool_->drain();
    if (clk.owns_lock()) {
      s_->count.store(count, std::memory_order_relaxed);
      clk.unlock();
    }

    // The new chains are durable and visible; unlink the superseded
    // duplicates they shadow (same discipline as single publish(): a crash
    // in between leaves a benign shadowed duplicate the head entry wins).
    for (const auto& r : replaces) {
      std::uint64_t prev = 0;
      std::uint64_t cur = pool_->get<std::uint64_t>(r.slot);
      NodeHeaderImage h{};
      while (cur != 0) {
        h = read_header(*pool_, cur);
        if (cur == r.old_node) break;
        prev = cur;
        cur = h.next;
      }
      if (cur == 0) continue;
      pool_->set<std::uint64_t>(prev == 0 ? r.slot : prev + kNodeNext, h.next);
      pool_->free(r.old_node);
      if (h.val_off != 0) pool_->free(h.val_off);
    }
  }

  // Discarded reservations were never linked: plain frees suffice.
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!discard[i]) continue;
    Inserter& ins = *live[i]->ins;
    pool_->free(ins.node_off_);
    if (ins.val_off_ != 0) pool_->free(ins.val_off_);
  }

  stripe_locks.release();

  // Checker scopes were already closed (at stage time or by the fallback
  // above); only mark the reservations consumed so their destructors
  // neither free nor pop anything.
  for (auto* p : live) p->ins->published_ = true;

  if (fresh_links > 0) maybe_grow();
}

}  // namespace pmemcpy::obj
