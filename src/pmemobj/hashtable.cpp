#include <pmemcpy/obj/hashtable.hpp>

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pmemcpy::obj {

namespace {

/// Persistent table header.  The bucket array carries its own bucket count
/// and generation, so a rehash publishes a rebuilt array with one 8-byte
/// store of buckets_off.
struct TableHeader {
  std::uint64_t buckets_off;
  std::uint64_t count;
};

/// Bucket array layout: this prefix (the bucket count, then the generation,
/// 0 or 1, whose next words the array's chains follow), the chain heads from
/// kHeadsOff on.  The prefix is a whole cacheline, so every head sits on the
/// line it would occupy in a bare array of heads.
struct ArrayPrefix {
  std::uint64_t nbuckets;
  std::uint64_t gen;
};
constexpr std::uint64_t kHeadsOff = 64;

/// A mirrored head whose line failed open's read: it is read from media on
/// first use.  No node starts at this offset.
constexpr std::uint64_t kUnread = ~std::uint64_t{0};

constexpr std::uint64_t kValSizeMask = (std::uint64_t{1} << 48) - 1;
constexpr std::size_t kMaxKeyLen = 0xFFFF;

/// Persistent node layout: this fixed header, then the key bytes.  A node
/// has one next word per bucket-array generation, so a rehash links it into
/// the array it builds without touching the live chains.  The header carries
/// the key's hash, so a chain step reads the key only when the hash and the
/// length match, and a rebuild buckets the node without reading its key.
/// Staged with one store (reserve) and fetched with one load, so a chain
/// step costs one latency-bound PMEM read.
struct NodeHeaderImage {
  std::uint64_t next[2];  ///< by generation
  std::uint64_t val_off;
  std::uint64_t size;  ///< val_size in the low 48 bits, key_len in the high 16
  std::uint64_t meta;
  std::uint64_t hash;  ///< fnv1a(key), the hash that picks the bucket

  [[nodiscard]] std::uint64_t val_size() const { return size & kValSizeMask; }
  [[nodiscard]] std::size_t key_len() const { return size >> 48; }
};
constexpr std::uint64_t kNodeMeta = offsetof(NodeHeaderImage, meta);
constexpr std::uint64_t kNodeKey = sizeof(NodeHeaderImage);
static_assert(kNodeKey == 48);

/// Pool offset of @p node's next word for generation @p gen.
constexpr std::uint64_t next_word(std::uint64_t node, std::uint64_t gen) {
  return node + offsetof(NodeHeaderImage, next) + 8 * gen;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The chain decoder: a head or next word is bounded by the pool before its
/// header is read, and a key length before its bytes are.
NodeHeaderImage read_header(const Pool& pool, std::uint64_t node) {
  if (node > pool.size() || kNodeKey > pool.size() - node) {
    throw PoolError("HashTable: chain node " + std::to_string(node) +
                    " outside the pool");
  }
  NodeHeaderImage h;
  pool.read(node, &h, sizeof(h));
  return h;
}

std::string read_key(const Pool& pool, std::uint64_t node,
                     std::size_t key_len) {
  if (key_len > pool.size() - node - kNodeKey) {
    throw PoolError("HashTable: key of node " + std::to_string(node) +
                    " runs past the pool");
  }
  std::string key(key_len, '\0');
  if (!key.empty()) pool.read(node + kNodeKey, key.data(), key.size());
  return key;
}

/// Walk the chain of generation @p gen from @p node, handing each node and
/// its header to @p fn until @p fn returns true or the chain ends.  Chunks
/// are 64-byte aligned, so an intact chain has at most pool.size() / 64
/// nodes; a longer walk is a cycle on damaged media and throws PoolError
/// instead of never ending.
template <typename Fn>
void walk_chain(const Pool& pool, std::uint64_t node, std::uint64_t gen,
                Fn&& fn) {
  for (std::uint64_t hops = 0; node != 0; ++hops) {
    if (hops > pool.size() / 64) throw PoolError("HashTable: chain cycle");
    const auto h = read_header(pool, node);
    if (fn(node, h)) return;
    node = h.next[gen];
  }
}

/// Whether @p node (header @p h) holds @p key, whose hash is @p hash.  The
/// key bytes are read only when the hash and the length match.
bool holds_key(const Pool& pool, std::uint64_t node, const NodeHeaderImage& h,
               std::string_view key, std::uint64_t hash) {
  return h.hash == hash && h.key_len() == key.size() &&
         read_key(pool, node, h.key_len()) == key;
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

/// DRAM image of an empty bucket array of @p nbuckets buckets whose chains
/// follow generation @p gen.
std::vector<std::uint64_t> empty_array(std::uint64_t nbuckets,
                                       std::uint64_t gen) {
  std::vector<std::uint64_t> image(kHeadsOff / 8 + nbuckets, 0);
  image[offsetof(ArrayPrefix, nbuckets) / 8] = nbuckets;
  image[offsetof(ArrayPrefix, gen) / 8] = gen;
  return image;
}

}  // namespace

HashTable::HashTable(Pool& pool, std::uint64_t hoff, std::uint64_t buckets_off,
                     std::uint64_t gen, std::uint64_t count,
                     std::vector<std::uint64_t> heads)
    : pool_(&pool), hoff_(hoff) {
  s_->nbuckets.store(heads.size(), std::memory_order_relaxed);
  s_->buckets_off = buckets_off;
  s_->gen = gen;
  s_->heads = std::move(heads);
  s_->count.store(count, std::memory_order_relaxed);
}

HashTable HashTable::create(Pool& pool, std::size_t nbuckets) {
  if (nbuckets == 0) nbuckets = 1;
  // Prefix and heads persist together: the header store below makes the
  // whole array reachable.
  const auto image = empty_array(nbuckets, 0);
  const std::uint64_t buckets = pool.alloc(image.size() * 8);
  pool.write(buckets, image.data(), image.size() * 8);
  pool.persist(buckets, image.size() * 8);
  const std::uint64_t hoff = pool.alloc(sizeof(TableHeader));
  const TableHeader hdr{buckets, 0};
  pool.set(hoff, hdr);
  return HashTable(pool, hoff, hdr.buckets_off, 0, hdr.count,
                   std::vector<std::uint64_t>(nbuckets, 0));
}

HashTable HashTable::open(Pool& pool, std::uint64_t header_off) {
  const auto hdr = pool.get<TableHeader>(header_off);
  if (hdr.buckets_off < kHeadsOff ||
      hdr.buckets_off > pool.size() - kHeadsOff) {
    throw PoolError("HashTable::open: bucket array outside the pool");
  }
  // usable_size() throws PoolError when no valid chunk holds the array.
  const std::uint64_t cap = pool.usable_size(hdr.buckets_off);
  const auto prefix = pool.get<ArrayPrefix>(hdr.buckets_off);
  if (prefix.nbuckets == 0 || cap < kHeadsOff ||
      prefix.nbuckets > (cap - kHeadsOff) / 8) {
    throw PoolError("HashTable::open: bucket count " +
                    std::to_string(prefix.nbuckets) +
                    " does not fit its array");
  }
  if (prefix.gen > 1) {
    throw PoolError("HashTable::open: bucket array generation " +
                    std::to_string(prefix.gen) + " is neither 0 nor 1");
  }
  // The heads, with one bulk read: from here on the mirror serves them.  On
  // a read error, a line at a time: each unreadable line's heads are marked
  // unread, so only the keys whose bucket heads fail to read fail, at first
  // use, and the rest of the table stays open.
  std::vector<std::uint64_t> heads(prefix.nbuckets);
  const std::uint64_t first = hdr.buckets_off + kHeadsOff;
  try {
    pool.read(first, heads.data(), heads.size() * 8);
  } catch (const pmem::DeviceError&) {
    for (std::size_t b = 0; b < heads.size();) {
      const std::uint64_t line_left =
          pmem::kCacheLine - (pool.base() + first + 8 * b) % pmem::kCacheLine;
      const std::size_t n = std::min<std::size_t>(
          heads.size() - b, std::max<std::uint64_t>(1, line_left / 8));
      try {
        pool.read(first + 8 * b, &heads[b], n * 8);
      } catch (const pmem::DeviceError&) {
        std::fill_n(heads.begin() + b, n, kUnread);
      }
      b += n;
    }
  }
  return HashTable(pool, header_off, hdr.buckets_off, prefix.gen, hdr.count,
                   std::move(heads));
}

std::uint64_t HashTable::bucket_slot(std::uint64_t b) const {
  return s_->buckets_off + kHeadsOff + b * 8;
}

std::uint64_t HashTable::head(std::uint64_t b) const {
  std::uint64_t& h = s_->heads[b];
  if (h == kUnread) h = pool_->get<std::uint64_t>(bucket_slot(b));
  return h;
}

std::uint64_t HashTable::lock_bucket(std::uint64_t hash,
                                     std::unique_lock<std::mutex>& lk) const {
  for (;;) {
    const std::uint64_t nb = s_->nbuckets.load(std::memory_order_acquire);
    const std::uint64_t b = hash % nb;
    std::unique_lock stripe(s_->stripes[b % kStripes]);
    // A rehash that committed between the load and the lock moved the key
    // to another bucket, and maybe under another stripe: drop this stripe
    // (holding it while taking another would break the ascending order
    // the every-stripe lockers rely on) and retry.
    if (s_->nbuckets.load(std::memory_order_relaxed) == nb) {
      lk = std::move(stripe);
      return b;
    }
  }
}

std::optional<ValueRef> HashTable::find(std::string_view key) const {
  const std::uint64_t hash = fnv1a(key);
  std::unique_lock<std::mutex> lk;
  const std::uint64_t b = lock_bucket(hash, lk);
  std::optional<ValueRef> found;
  walk_chain(*pool_, head(b), s_->gen,
             [&](std::uint64_t node, const NodeHeaderImage& h) {
               if (!holds_key(*pool_, node, h, key, hash)) return false;
               found = ValueRef{node, h.val_off, h.val_size(), h.meta};
               return true;
             });
  return found;
}

HashTable::Inserter HashTable::reserve(std::string_view key,
                                       std::size_t val_size,
                                       std::uint64_t meta) {
  if (key.size() > kMaxKeyLen) {
    throw PoolError("HashTable::reserve: key of " +
                    std::to_string(key.size()) + " bytes exceeds " +
                    std::to_string(kMaxKeyLen));
  }
  pool_->device().check_tx_begin("ht.put");
  const std::uint64_t val = val_size > 0 ? pool_->alloc(val_size) : 0;
  const std::uint64_t node = pool_->alloc(kNodeKey + key.size());
  // Stage header + key with plain stores; publish() makes the whole node
  // durable with one flush pass and a single fence.
  const NodeHeaderImage nh{{0, 0},
                           val,
                           val_size | std::uint64_t{key.size()} << 48,
                           meta,
                           fnv1a(key)};
  pool_->write(node, &nh, sizeof(nh));
  if (!key.empty()) {
    pool_->write(node + kNodeKey, key.data(), key.size());
  }
  return Inserter(*this, key, nh.hash, node, val, val_size, meta);
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
    std::uint64_t b, std::string_view key, std::uint64_t hash) const {
  std::vector<Match> matches;
  const std::uint64_t gen = s_->gen;
  std::uint64_t prev = 0;
  std::size_t depth = 0;
  walk_chain(*pool_, head(b), gen, [&](std::uint64_t node,
                                      const NodeHeaderImage& h) {
    if (holds_key(*pool_, node, h, key, hash)) {
      matches.push_back({prev, node, h.next[gen], h.val_off, depth});
    }
    prev = node;
    ++depth;
    return false;
  });
  return matches;
}

void HashTable::unlink_free(std::uint64_t b, std::uint64_t prev,
                            std::uint64_t node) {
  const std::uint64_t gen = s_->gen;
  const auto h = read_header(*pool_, node);
  if (prev == 0) {
    pool_->set<std::uint64_t>(bucket_slot(b), h.next[gen]);
    s_->heads[b] = h.next[gen];  // durable now
  } else {
    pool_->set<std::uint64_t>(next_word(prev, gen), h.next[gen]);
  }
  pool_->free(node);
  if (h.val_off != 0) pool_->free(h.val_off);
}

bool HashTable::erase(std::string_view key) {
  const std::uint64_t hash = fnv1a(key);
  std::unique_lock<std::mutex> lk;
  const std::uint64_t b = lock_bucket(hash, lk);
  auto matches = find_chain(b, key, hash);
  if (matches.empty()) return false;
  // Deepest-first: shadowed crash-leftover duplicates go before the live
  // head entry, so every intermediate crash point still reads exactly the
  // live value; the final unlink completes the erase.  The old head-first
  // single unlink was the resurrection bug the property fuzzer caught — it
  // re-exposed a stale duplicate as the live value.
  while (!matches.empty()) {
    unlink_free(b, matches.back().prev, matches.back().node);
    matches.pop_back();
  }
  bump_count(-1);
  return true;
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
  for_each_prefix({}, fn);
}

void HashTable::for_each_prefix(
    std::string_view prefix,
    const std::function<void(std::string_view, const ValueRef&)>& fn) const {
  // Hold every stripe so the view is consistent, and walk the chains from
  // the head mirror.  A key shorter than the prefix is skipped on the
  // header already read, without reading the key.
  StripeLocks all(s_->stripes);
  all.lock_all();
  for (std::uint64_t b = 0; b < s_->heads.size(); ++b) {
    walk_chain(*pool_, head(b), s_->gen,
               [&](std::uint64_t node, const NodeHeaderImage& h) {
                 if (h.key_len() < prefix.size()) return false;
                 const std::string key = read_key(*pool_, node, h.key_len());
                 if (key.starts_with(prefix)) {
                   fn(key, ValueRef{node, h.val_off, h.val_size(), h.meta});
                 }
                 return false;
               });
  }
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
  if (!auto_grow() || !over_load()) return;
  StripeLocks all(s_->stripes);
  all.lock_all();
  // Every publisher that crossed the threshold gets here; the first to hold
  // the stripes grows the table and the rest find it already grown.
  if (over_load()) rebuild(s_->nbuckets.load(std::memory_order_relaxed) * 4);
}

void HashTable::rebuild(std::size_t new_nbuckets) {
  trace::Span span("ht.rehash");
  const std::uint64_t gen = s_->gen;
  const std::uint64_t new_gen = 1 - gen;
  const std::uint64_t old_off = s_->buckets_off;

  // Link every live node into the new array through its other next word,
  // at the bucket its stored hash picks, so no key is read.  The live chains
  // follow next[gen], so nothing reachable changes until the swap.  Each
  // link is one 8-byte store flushed without a fence; the new array's image
  // collects in DRAM, and one drain after its store makes all of it durable
  // at once.
  auto new_array = empty_array(new_nbuckets, new_gen);
  const std::size_t array_bytes = new_array.size() * 8;
  const std::uint64_t new_off = pool_->alloc(array_bytes);
  std::vector<std::uint64_t> dropped;  // duplicate nodes and their values
  try {
    const std::span<std::uint64_t> new_heads(
        new_array.data() + kHeadsOff / 8, new_nbuckets);
    // Nodes linked from the chain being walked, by hash.  A crash-leftover
    // duplicate shares its key's hash, so keys are read and compared only
    // when a hash repeats; distinct keys with equal hashes are both kept.
    std::unordered_multimap<std::uint64_t, std::uint64_t> linked;
    for (std::uint64_t b = 0; b < s_->heads.size(); ++b) {
      linked.clear();
      walk_chain(*pool_, head(b), gen, [&](std::uint64_t node,
                                           const NodeHeaderImage& h) {
        const auto [first, last] = linked.equal_range(h.hash);
        if (first != last) {
          const std::string key = read_key(*pool_, node, h.key_len());
          if (std::any_of(first, last, [&](const auto& seen) {
                return holds_key(*pool_, seen.second,
                                 read_header(*pool_, seen.second), key,
                                 h.hash);
              })) {
            // Shadowed crash-leftover duplicate (see link()): linking it
            // would RE-ORDER it above the live entry, because this loop
            // prepends while walking head-to-tail.  Drop it instead; it
            // and its value are freed after the swap.
            dropped.push_back(node);
            if (h.val_off != 0) dropped.push_back(h.val_off);
            return false;
          }
        }
        linked.emplace(h.hash, node);
        std::uint64_t& top = new_heads[h.hash % new_nbuckets];
        pool_->write(next_word(node, new_gen), &top, sizeof(top));
        pool_->flush(next_word(node, new_gen), sizeof(top));
        top = node;
        return false;
      });
    }
    pool_->write(new_off, new_array.data(), array_bytes);
    pool_->flush(new_off, array_bytes);
    pool_->drain();

    // The swap: one 8-byte store, crash-atomic on its own, publishes the
    // new array together with the bucket count and generation it carries.
    pool_->set<std::uint64_t>(hoff_ + offsetof(TableHeader, buckets_off),
                              new_off);
  } catch (...) {
    // The table never saw the new array (a faulted swap reverts its line):
    // free it, best effort.
    try {
      pool_->free(new_off);
    } catch (...) {
      // A second fault, or a crash: the array leaks.
    }
    throw;
  }
  // The swap is on media: move the mirror over, the new array's image
  // becoming the heads, before retiring the old storage (a fault while
  // freeing must not leave it pointing back).
  new_array.erase(new_array.begin(), new_array.begin() + kHeadsOff / 8);
  s_->heads = std::move(new_array);
  s_->buckets_off = new_off;
  s_->gen = new_gen;
  s_->nbuckets.store(new_nbuckets, std::memory_order_release);
  for (const std::uint64_t off : dropped) pool_->free(off);
  pool_->free(old_off);
}

// ---------------------------------------------------------------------------
// Inserter
// ---------------------------------------------------------------------------

HashTable::Inserter::Inserter(HashTable& t, std::string_view key,
                              std::uint64_t hash, std::uint64_t node_off,
                              std::uint64_t val_off, std::uint64_t val_size,
                              std::uint64_t meta)
    : table_(&t),
      key_(key),
      hash_(hash),
      node_off_(node_off),
      val_off_(val_off),
      val_size_(val_size),
      meta_(meta) {}

HashTable::Inserter::Inserter(Inserter&& o) noexcept
    : table_(o.table_),
      key_(std::move(o.key_)),
      hash_(o.hash_),
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
    // Abort (not commit) the checker scope: a fault reverts only its own
    // flush run, so the faulted tail may have left stores of other runs
    // unflushed, and tx_commit would flag them as a violation of ours.
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

  // Lock the stripes of every winning key's bucket, so the chains and their
  // mirrored heads are stable below us.  The stripes follow the bucket
  // count, which is re-checked once they are held in case a rehash
  // committed in between.  RAII so a crash-point exception thrown below
  // cannot leak the locks.
  StripeLocks stripe_locks(s_->stripes);
  std::uint64_t nb = 0;
  do {
    nb = s_->nbuckets.load(std::memory_order_acquire);
    std::vector<std::size_t> stripe_ids;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      if (!discard[i]) {
        stripe_ids.push_back(puts[i]->ins->hash_ % nb % kStripes);
      }
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
    std::uint64_t bucket;
    Match old;  ///< superseded entry; node 0 = a new key
  };
  std::vector<Link> links;
  for (bool swept = true; swept;) {
    swept = false;
    links.clear();
    for (std::size_t i = 0; i < puts.size() && !swept; ++i) {
      if (discard[i]) continue;
      const Inserter& ins = *puts[i]->ins;
      const std::uint64_t b = ins.hash_ % nb;
      auto matches = find_chain(b, ins.key_, ins.hash_);
      if (!matches.empty() && puts[i]->keep_existing) {
        discard[i] = true;
        continue;
      }
      swept = matches.size() > 1;
      while (matches.size() > 1) {
        unlink_free(b, matches.back().prev, matches.back().node);
        matches.pop_back();
      }
      links.push_back(
          {puts[i], b, matches.empty() ? Match{} : matches.front()});
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
  std::map<std::uint64_t, Bucket> buckets;  // by bucket index
  for (const Link& l : links) {
    const std::uint64_t old_head = head(l.bucket);
    Bucket& b = buckets.try_emplace(l.bucket, Bucket{old_head, old_head})
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
    Bucket& b = buckets.find(l.bucket)->second;
    pool_->write(next_word(ins.node_off_, s_->gen), &b.top, sizeof(b.top));
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
    // The mirrored heads follow once the drain returns.
    std::vector<Pool::Range> vis;
    vis.reserve(buckets.size() + 1);
    std::unique_lock clk(s_->count_mu);
    std::uint64_t count = 0;
    try {
      for (const auto& [bucket, b] : buckets) {
        const std::uint64_t slot = bucket_slot(bucket);
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
      // Either way the mirror takes the heads and the count the media
      // holds: the head and count lines flush as separate runs, and a fault
      // reverts only its own.
      for (const Link& l : links) {
        std::uint64_t& mirrored = s_->heads[l.bucket];
        std::memcpy(&mirrored, pool_->direct(bucket_slot(l.bucket)),
                    sizeof(mirrored));
        if (mirrored == buckets.find(l.bucket)->second.top) {
          l.put->ins->published_ = true;
          l.put->linked = true;
        }
      }
      std::memcpy(&count, pool_->direct(hoff_ + offsetof(TableHeader, count)),
                  sizeof(count));
      s_->count.store(count, std::memory_order_relaxed);
      throw;
    }
    if (fresh != 0) s_->count.store(count, std::memory_order_relaxed);
    clk.unlock();
    for (const auto& [bucket, b] : buckets) s_->heads[bucket] = b.top;
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
      const Bucket& b = buckets.find(l->bucket)->second;
      // A replaced head's successor now hangs off the bucket's first winner.
      const std::uint64_t prev = b.head_replaced && l->old.prev == b.old_head
                                     ? b.first
                                     : l->old.prev;
      const auto it = relinked.find(l->old.node);
      const std::uint64_t next =
          it == relinked.end() ? l->old.next : it->second;
      pool_->set<std::uint64_t>(next_word(prev, s_->gen), next);
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
