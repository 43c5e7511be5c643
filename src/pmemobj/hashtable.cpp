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
#include <utility>
#include <vector>

namespace pmemcpy::obj {

namespace {

/// Persistent table header.  The bucket array carries its own bucket count,
/// so a rehash publishes a rebuilt array with one 8-byte store of
/// buckets_off.
struct TableHeader {
  std::uint64_t buckets_off;
  std::uint64_t count;
};

/// Bucket array layout: the bucket count in word 0, the chain heads from
/// kHeadsOff on.  The prefix is a whole cacheline, so every head sits on the
/// line it would occupy in a bare array of heads.
constexpr std::uint64_t kHeadsOff = 64;

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

/// DRAM image of an empty bucket array of @p nbuckets buckets.
std::vector<std::uint64_t> empty_array(std::uint64_t nbuckets) {
  std::vector<std::uint64_t> image(kHeadsOff / 8 + nbuckets, 0);
  image[0] = nbuckets;
  return image;
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
  // Count and heads persist together: the header store below makes the
  // whole array reachable.
  const auto image = empty_array(nbuckets);
  const std::uint64_t buckets = pool.alloc(image.size() * 8);
  pool.write(buckets, image.data(), image.size() * 8);
  pool.persist(buckets, image.size() * 8);
  const std::uint64_t hoff = pool.alloc(sizeof(TableHeader));
  const TableHeader hdr{buckets, 0};
  pool.set(hoff, hdr);
  return HashTable(pool, hoff, nbuckets, hdr.buckets_off, hdr.count);
}

HashTable HashTable::open(Pool& pool, std::uint64_t header_off) {
  const auto hdr = pool.get<TableHeader>(header_off);
  if (hdr.buckets_off < kHeadsOff ||
      hdr.buckets_off > pool.size() - kHeadsOff) {
    throw PoolError("HashTable::open: bucket array outside the pool");
  }
  // usable_size() throws PoolError when no valid chunk holds the array.
  const std::uint64_t cap = pool.usable_size(hdr.buckets_off);
  const auto nbuckets = pool.get<std::uint64_t>(hdr.buckets_off);
  if (nbuckets == 0 || cap < kHeadsOff || nbuckets > (cap - kHeadsOff) / 8) {
    throw PoolError("HashTable::open: bucket count " +
                    std::to_string(nbuckets) + " does not fit its array");
  }
  return HashTable(pool, header_off, nbuckets, hdr.buckets_off, hdr.count);
}

std::uint64_t HashTable::bucket_slot(std::uint64_t b) const {
  return s_->buckets_off + kHeadsOff + b * 8;
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
      return bucket_slot(b);
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
  std::size_t depth = 0;
  for (std::uint64_t node = head; node != 0; ++depth) {
    const auto h = read_header(*pool_, node);
    if (holds_key(*pool_, node, h, key)) {
      matches.push_back({prev, node, h.next, h.val_off, depth});
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
  pool_->read(bucket_slot(0), heads.data(), heads.size() * 8);
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
  pool_->read(bucket_slot(0), old_heads.data(), old_heads.size() * 8);

  // Build a complete replacement: new array + copied nodes sharing the old
  // value blobs.  Nothing existing is mutated until the header swap.  Each
  // copy is written back as it is made and the new array's image collects
  // in DRAM; one drain after the array store makes all of it durable at
  // once.
  auto new_array = empty_array(new_nbuckets);
  const std::size_t array_bytes = new_array.size() * 8;
  const std::uint64_t new_off = pool_->alloc(array_bytes);
  const std::span<std::uint64_t> heads(new_array.data() + kHeadsOff / 8,
                                       new_nbuckets);
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
        // Shadowed crash-leftover duplicate (see link()): copying it
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
  pool_->write(new_off, new_array.data(), array_bytes);
  pool_->flush(new_off, array_bytes);
  pool_->drain();

  // The swap: one 8-byte store, crash-atomic on its own, publishes the new
  // array together with the bucket count it carries.
  pool_->set<std::uint64_t>(hoff_ + offsetof(TableHeader, buckets_off),
                            new_off);
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
  if (!published_ && node_off_ != 0) {
    try {
      drop();
    } catch (...) {
      // Reached during exception unwind (e.g. a scheduled crash fired before
      // publish).  Crash-point exceptions must not escape a destructor; the
      // allocator undo log reconciles interrupted frees on reopen.
    }
  }
  close_checker_scope();  // abandoned reservation
}

void HashTable::Inserter::drop() {
  const std::uint64_t node = std::exchange(node_off_, 0);
  published_ = true;
  table_->pool_->free(node);
  if (val_off_ != 0) table_->pool_->free(val_off_);
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
  GroupPut put{this, keep_existing, false};
  GroupPut* const one = &put;
  std::size_t fresh = 0;
  try {
    fresh = table_->link({&one, 1});
  } catch (...) {
    // A fault after the head store unwinds with the entry reachable, and
    // link() marked it published so the destructor keeps its storage.
    // Abort (not commit) the checker scope: the faulted tail may have left a
    // stored-but-reverted line the checker still sees as dirty, and
    // tx_commit would flag that as a violation of ours.
    if (published_) close_checker_scope();
    throw;
  }
  if (put.linked && scope_open_) {
    scope_open_ = false;
    table_->pool_->device().check_tx_commit();
  }
  close_checker_scope();  // discarded: freed without ever being flushed
  if (fresh > 0) table_->maybe_grow();
  return put.linked;
}

// ---------------------------------------------------------------------------
// Publish protocol
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
  if (link(live) > 0) maybe_grow();
}

std::size_t HashTable::link(std::span<GroupPut* const> puts) {
  // Resolve duplicate keys within the batch before touching any chain:
  // replace-mode the last staged entry wins, keep_existing the first.
  // Losers are discarded without ever being linked — linking both copies
  // would leave which one a later erase/replace removes undefined.
  std::vector<bool> discard(puts.size(), false);
  if (puts.size() > 1) {
    std::unordered_map<std::string_view, std::size_t> winner;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      auto [it, first] = winner.try_emplace(puts[i]->ins->key_, i);
      if (first) continue;
      if (puts[i]->keep_existing) {
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
  // RAII so a crash-point exception thrown below cannot leak the locks.
  std::vector<std::uint64_t> hash(puts.size());
  for (std::size_t i = 0; i < puts.size(); ++i) {
    hash[i] = fnv1a(puts[i]->ins->key_);
  }
  StripeLocks stripe_locks(s_->stripes);
  std::uint64_t nb = 0;
  do {
    nb = s_->nbuckets.load(std::memory_order_acquire);
    std::vector<std::size_t> stripe_ids;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      if (!discard[i]) stripe_ids.push_back(hash[i] % nb % kStripes);
    }
    std::sort(stripe_ids.begin(), stripe_ids.end());
    stripe_ids.erase(std::unique(stripe_ids.begin(), stripe_ids.end()),
                     stripe_ids.end());
    stripe_locks.lock(std::move(stripe_ids));
  } while (s_->nbuckets.load(std::memory_order_relaxed) != nb);

  // Walk each winner's chain once, remembering the entry it supersedes and
  // that entry's predecessor.  A key matched more than once is a crash
  // leftover: an overwrite that stored its new head but lost power before
  // unlinking the old node.  Readers only ever see the first match, so the
  // others are swept deepest-first — invisible at every crash point — before
  // anything links; a sweep moves the chains, so the walk then restarts.
  // keep_existing winners defer to an entry already in the chain.
  struct Link {
    GroupPut* put;
    std::uint64_t slot;
    std::uint64_t head;  ///< bucket head when the chain was walked
    Match old;           ///< superseded entry; node 0 = a new key
  };
  std::vector<Link> links;
  for (bool swept = true; swept;) {
    swept = false;
    links.clear();
    for (std::size_t i = 0; i < puts.size() && !swept; ++i) {
      if (discard[i]) continue;
      const std::uint64_t slot = bucket_slot(hash[i] % nb);
      std::uint64_t head = 0;
      auto matches = find_chain(slot, puts[i]->ins->key_, head);
      if (!matches.empty() && puts[i]->keep_existing) {
        discard[i] = true;
        continue;
      }
      swept = matches.size() > 1;
      while (matches.size() > 1) {
        unlink_free(slot, matches.back().prev, matches.back().node);
        matches.pop_back();
      }
      links.push_back(
          {puts[i], slot, head, matches.empty() ? Match{} : matches.front()});
    }
  }

  // Wire the winners into per-bucket shadow chains: each new node's next
  // pointer is a plain store that fence #1 flushes with the node itself.  A
  // bucket's first winner points at the old head — or past it when a winner
  // replaces the head, so the head store swaps old for new and no crash
  // point sees both versions chained.
  struct Bucket {
    std::uint64_t old_head;
    std::uint64_t top;  ///< what the next winner links in front of
    bool head_replaced = false;
    /// The first winner linked: the new predecessor of the old chain.
    std::uint64_t first = 0;
  };
  std::map<std::uint64_t, Bucket> buckets;  // by slot
  for (const Link& l : links) {
    Bucket& b = buckets.try_emplace(l.slot, Bucket{l.head, l.head})
                    .first->second;
    if (l.old.node != 0 && l.old.prev == 0) {
      b.top = l.old.next;
      b.head_replaced = true;
    }
  }
  std::vector<Pool::Range> durable;
  durable.reserve(2 * links.size());
  std::size_t fresh = 0;
  for (const Link& l : links) {
    const Inserter& ins = *l.put->ins;
    Bucket& b = buckets.find(l.slot)->second;
    pool_->write(ins.node_off_ + kNodeNext, &b.top, sizeof(b.top));
    b.top = ins.node_off_;
    if (b.first == 0) b.first = ins.node_off_;
    if (ins.val_size_ > 0) durable.push_back({ins.val_off_, ins.val_size_});
    durable.push_back({ins.node_off_, kNodeKey + ins.key_.size()});
    if (l.old.node == 0) ++fresh;
  }

  if (!links.empty()) {
    // Fence #1 — durability: every staged blob + node (including the next
    // pointers just written) becomes persistent under one coalesced CLWB
    // pass and a single drain.  Nothing is reachable yet, so a crash here
    // publishes nothing; the orphan chunks are mere leaks.
    pool_->flush_ranges(durable);
    pool_->drain();
    for (const Link& l : links) {
      const Inserter& ins = *l.put->ins;
      if (ins.val_size_ > 0) pool_->check_publish(ins.val_off_, ins.val_size_);
      pool_->check_publish(ins.node_off_, kNodeKey + ins.key_.size());
    }

    // Fence #2 — visibility: one 8-byte head store per touched bucket plus
    // the count bump, all flushed together under a second single drain.
    // The whole step runs under count_mu, so no other publisher stores to
    // a head or count line between this flush and its drain (bucket slots
    // of different stripes share lines), and the mirror follows the count.
    std::vector<Pool::Range> vis;
    vis.reserve(buckets.size() + 1);
    std::unique_lock clk(s_->count_mu);
    std::uint64_t count = 0;
    try {
      for (const auto& [slot, b] : buckets) {
        pool_->write(slot, &b.top, sizeof(b.top));
        vis.push_back({slot, sizeof(b.top)});
      }
      if (fresh != 0) {
        count = s_->count.load(std::memory_order_relaxed) + fresh;
        pool_->write(hoff_ + offsetof(TableHeader, count), &count,
                     sizeof(count));
        vis.push_back({hoff_ + offsetof(TableHeader, count), sizeof(count)});
      }
      pool_->flush_ranges(vis);
      pool_->drain();
    } catch (...) {
      // A fault after a head store: that bucket's winners may be reachable
      // already, and freeing them would hand live storage to the next
      // alloc.  A head store that never landed, or whose line the fault
      // reverted, left its winners unreachable; their destructors free them.
      for (const Link& l : links) {
        std::uint64_t head = 0;
        std::memcpy(&head, pool_->direct(l.slot), sizeof(head));
        if (head == buckets.find(l.slot)->second.top) {
          l.put->ins->published_ = true;
          l.put->linked = true;
        }
      }
      throw;
    }
    if (fresh != 0) s_->count.store(count, std::memory_order_relaxed);
    clk.unlock();
    for (const Link& l : links) {
      l.put->ins->published_ = true;
      l.put->linked = true;
    }
  }

  // The new chains are durable and visible.  Unlink the superseded
  // mid-chain entries they shadow, deepest-first so each predecessor is
  // still chained when it is relinked; a crash in between leaves benign
  // shadowed duplicates for the next put or erase of the key to sweep.
  std::vector<const Link*> replaced;
  for (const Link& l : links) {
    if (l.old.node != 0) replaced.push_back(&l);
  }
  std::sort(replaced.begin(), replaced.end(),
            [](const Link* a, const Link* b) {
              return a->old.depth > b->old.depth;
            });
  std::unordered_map<std::uint64_t, std::uint64_t> relinked;  // node -> next
  for (const Link* l : replaced) {
    if (l->old.prev != 0) {
      const Bucket& b = buckets.find(l->slot)->second;
      // A replaced head's successor now hangs off the bucket's first winner.
      const std::uint64_t prev = b.head_replaced && l->old.prev == b.old_head
                                     ? b.first
                                     : l->old.prev;
      const auto it = relinked.find(l->old.node);
      const std::uint64_t next =
          it == relinked.end() ? l->old.next : it->second;
      pool_->set<std::uint64_t>(prev + kNodeNext, next);
      relinked[prev] = next;
    }
    pool_->free(l->old.node);
    if (l->old.val_off != 0) pool_->free(l->old.val_off);
  }

  // Discarded reservations were never linked: plain frees suffice.
  for (std::size_t i = 0; i < puts.size(); ++i) {
    if (discard[i]) puts[i]->ins->drop();
  }
  return fresh;
}

}  // namespace pmemcpy::obj
