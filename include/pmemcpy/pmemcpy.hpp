// pMEMCPY — a simple, lightweight, and portable I/O library for storing data
// in persistent memory (reproduction of Logan et al., CLUSTER 2021).
//
// The public API follows the paper's Figure 2:
//
//   pmemcpy::PMEM pmem;
//   pmem.mmap(filename[, comm]);
//   pmem.store<T>(id, data);                       // scalars & structs
//   pmem.alloc<T>(id, ndims, dims);                // declare a global array
//   pmem.store<T>(id, data, ndims, offsets, dimspp);  // write a subarray
//   pmem.load<T>(id[, data...]);
//   pmem.load_dims(id, &ndims, dims);
//   pmem.munmap();
//
// Key properties reproduced from the paper:
//   * key-value interface; array dimensions are stored automatically under
//     id + "#dims" and queried with load_dims;
//   * data is kept "in the same format as it was produced": each process's
//     subarray is stored as its own piece (no global linearisation, no
//     inter-process communication on the I/O path);
//   * serializers are pluggable (BP4-lite default, cereal-style binary, or
//     disabled/raw) and serialize *directly into PMEM* — no DRAM staging
//     copy (Config::force_dram_staging re-enables staging for ablation);
//   * MAP_SYNC can be enabled per Config (the paper's PMCPY-B variant);
//   * two layouts: flat PMDK-style hashtable (default) or hierarchical
//     (ids containing '/' become directories on the PMEM filesystem).
#pragma once

#include <pmemcpy/core/hyperslab.hpp>
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/core/read_cache.hpp>
#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/ft/ft.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/par/comm.hpp>
#include <pmemcpy/serial/binary.hpp>
#include <pmemcpy/serial/bp4.hpp>
#include <pmemcpy/serial/filter.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

namespace pmemcpy {

/// Metadata/data layout (paper §3 "Data Layout").
enum class Layout {
  kHashTable,     ///< flat namespace, persistent hashtable in one pool
  kHierarchical,  ///< file-per-variable tree on the PMEM filesystem
};

struct Config {
  /// Node environment; nullptr means PmemNode::default_node().
  PmemNode* node = nullptr;
  /// Enable MAP_SYNC semantics (paper variant PMCPY-B).
  bool map_sync = false;
  serial::SerializerId serializer = serial::SerializerId::kBp4;
  Layout layout = Layout::kHashTable;
  /// Hashtable buckets for the flat layout.
  std::size_t nbuckets = 8192;
  /// Let the metadata hashtable grow geometrically under load.
  bool auto_grow_table = true;
  /// Transparent filter applied to array-piece payloads (compression);
  /// filtering trades a DRAM encode pass for fewer bytes through PMEM.
  serial::FilterId filter = serial::FilterId::kNone;
  /// Pool bytes for the flat layout; 0 = remaining pool area.
  std::size_t pool_size = 0;
  /// Ablation switch: serialize into a DRAM buffer first and then copy to
  /// PMEM (how ADIOS-style libraries behave) instead of serializing
  /// directly into PMEM.
  bool force_dram_staging = false;
  /// DRAM read-cache budget in bytes (DESIGN.md §13).  0 disables caching;
  /// nonzero keeps verified blob copies under LRU so repeated reads of the
  /// same entries (restart / plane / subvolume patterns) are served at DRAM
  /// cost.  The fill copy is charged to the simulated clock, eviction order
  /// is deterministic, and every put/remove/repair/quarantine invalidates —
  /// a cached blob never goes stale.  The PMEMCPY_READ_CACHE env var
  /// overrides this at mmap() time (accepts k/m/g suffixes).
  std::size_t read_cache_bytes = 0;
  /// Allocator hot-path knobs (DESIGN.md §14), forwarded to the region's
  /// pool.  -1 selects the engine defaults (8 / 8); 0 disables magazines, 1
  /// collapses the metadata stripes back to one fully serialized lane.
  /// Purely runtime state, not part of the persistent layout: both knobs
  /// can differ across opens of the same region.
  int magazine_size = -1;
  int alloc_stripes = -1;
};

struct KeyError : std::runtime_error {
  explicit KeyError(const std::string& id)
      : std::runtime_error("pmemcpy: no such id: " + id) {}
};
struct TypeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct StateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// A stored entry failed its checksum or sits on failing media: the data is
/// torn, rotted, or unreadable.  Typed so callers can degrade gracefully
/// (skip/re-fetch the key) instead of consuming garbage.
struct IntegrityError : std::runtime_error {
  explicit IntegrityError(const std::string& detail)
      : std::runtime_error("pmemcpy: integrity failure: " + detail) {}
};

/// Result of PMEM::scrub(): every stored key whose payload failed its
/// checksum or could not be read back, each examined once and reported with
/// the device offset of its blob.
struct ScrubReport {
  struct Item {
    std::string key;
    std::string issue;
    std::uint64_t dev_off = 0;  ///< device-absolute blob offset; 0 = unknown
  };
  std::size_t entries = 0;  ///< distinct keys examined
  std::vector<Item> corrupt;
  [[nodiscard]] bool ok() const noexcept { return corrupt.empty(); }
};

/// Result of PMEM::repair(): scrub upgraded from report-only to
/// report-and-heal — entries sitting on failing-but-readable media are
/// quarantined and transactionally rewritten elsewhere; unrecoverable
/// entries are reported (and their keys load as typed DegradedError from
/// then on, never as garbage).
struct RepairReport {
  std::size_t entries = 0;    ///< distinct keys examined
  std::size_t relocated = 0;  ///< entries rewritten off failing media
  std::vector<ScrubReport::Item> damaged;  ///< unrecoverable entries
  [[nodiscard]] bool ok() const noexcept { return damaged.empty(); }
};

namespace detail {

enum class EntryKind : std::uint8_t { kScalar = 0, kPiece = 1, kDims = 2 };

[[nodiscard]] std::uint64_t pack_meta(
    EntryKind kind, serial::DType dtype, serial::SerializerId ser,
    serial::FilterId filter = serial::FilterId::kNone);
void unpack_meta(std::uint64_t meta, EntryKind* kind, serial::DType* dtype,
                 serial::SerializerId* ser,
                 serial::FilterId* filter = nullptr);

/// Blob checksum stored in the high half of the meta word (see EntryInfo).
[[nodiscard]] inline std::uint32_t meta_crc(std::uint64_t meta) {
  return static_cast<std::uint32_t>(meta >> 32);
}

[[nodiscard]] std::string dims_key(const std::string& id);
[[nodiscard]] std::string piece_prefix(const std::string& id);
[[nodiscard]] std::string piece_key(const std::string& id, const Box& box);
[[nodiscard]] std::string attr_prefix(const std::string& id);
[[nodiscard]] std::string attr_key(const std::string& id,
                                   const std::string& name);

/// Blob header bytes preceding the payload for each serializer.
[[nodiscard]] std::size_t blob_header_size(serial::SerializerId ser,
                                           std::uint32_t ndims);
void write_blob_header(serial::Sink& sink, serial::SerializerId ser,
                       serial::DType dtype, std::uint64_t payload_bytes,
                       const Dimensions& global, const Box& box);

}  // namespace detail

class PMEM {
 public:
  PMEM() = default;
  explicit PMEM(Config cfg) : cfg_(cfg) {}

  /// Open (creating if needed) the named region on the node-local PMEM.
  void mmap(const std::string& filename) { do_mmap(filename, nullptr); }
  /// Collective open: every rank of @p comm calls this.
  void mmap(const std::string& filename, par::Comm& comm) {
    do_mmap(filename, &comm);
  }
  /// Collective close.  Discards any still-open Batch.
  void munmap();

  [[nodiscard]] bool mapped() const noexcept { return engine_ != nullptr; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // --- group commit ---------------------------------------------------------

  /// A group-commit scope (DESIGN.md §8).  Stores issued while a Batch is
  /// open are staged and published together by commit(): the flat layout
  /// pays one coalesced flush pass and two fences per batch instead of per
  /// entry.  Staged entries are invisible to loads — including this
  /// process's own, so loading an id stored earlier in the same open batch
  /// throws KeyError.  Destroying the Batch without commit() discards every
  /// staged entry; a crash during commit() may publish a prefix of the
  /// batch, but each published entry is individually complete.
  class Batch {
   public:
    Batch(Batch&& o) noexcept : owner_(o.owner_) { o.owner_ = nullptr; }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    Batch& operator=(Batch&&) = delete;
    ~Batch() {
      if (owner_ != nullptr) owner_->open_batch_.reset();
    }

    /// Publish everything staged and close the scope.
    void commit() {
      if (owner_ == nullptr) return;
      trace::Span span("core.batch_commit");
      if (owner_->open_batch_) owner_->open_batch_->commit();
      owner_->open_batch_.reset();
      owner_ = nullptr;
    }
    /// Entries staged and awaiting commit.
    [[nodiscard]] std::size_t staged() const {
      return owner_ != nullptr && owner_->open_batch_
                 ? owner_->open_batch_->staged()
                 : 0;
    }

   private:
    friend class PMEM;
    explicit Batch(PMEM* owner) : owner_(owner) {}
    PMEM* owner_;
  };

  /// Open a group-commit scope.  At most one may be open per PMEM handle
  /// (nested calls throw StateError); the scope must not outlive munmap().
  [[nodiscard]] Batch batch() {
    if (open_batch_) throw StateError("pmemcpy: batch already open");
    open_batch_ = engine_ref().begin_batch();
    return Batch(this);
  }

  // --- scalars and structs -----------------------------------------------

  /// Store a value under @p id.  T is an arithmetic type, std::string,
  /// std::vector of those, or a struct with a `serialize(Ar&)` member.
  template <typename T>
  void store(const std::string& id, const T& data) {
    trace::Span span("core.put");
    // Reserve-then-serialize (DESIGN.md §12): a SizingSink pass measures
    // the archive, the engine reserves an exactly-sized PMEM span, and the
    // second serializer pass lands the bytes straight in it — the payload
    // never visits a DRAM staging buffer.
    const std::size_t payload = serial::binary_serialized_size(data);
    const auto ser = cfg_.serializer;
    const std::size_t hdr = detail::blob_header_size(ser, 0);
    const auto dtype = serial::dtype_of_v<T>;
    with_healing(id, [&] {
      auto put = start_put(
          id, hdr + payload,
          detail::pack_meta(detail::EntryKind::kScalar, dtype, ser));
      const auto emit = [&](serial::Sink& sink) {
        trace::Span serialize_span("core.serialize");
        detail::write_blob_header(sink, ser, dtype, payload, {}, {});
        serial::BinaryWriter w(sink);
        w(data);
      };
      std::uint32_t crc = 0;
      if (cfg_.force_dram_staging) {
        serial::BufferSink staged(hdr + payload);
        emit(staged);
        crc = crc32c(staged.bytes().data(), staged.bytes().size());
        put->sink().write(staged.bytes().data(), staged.bytes().size());
      } else {
        serial::ChecksumSink cs(put->sink());
        emit(cs);
        crc = cs.crc();
      }
      put->commit(crc);
    });
  }

  template <typename T>
  void load(const std::string& id, T& data) {
    trace::Span span("core.get");
    throw_if_damaged(id);
    if (cfg_.force_dram_staging) {
      // Ablation: bounce the blob through DRAM before decoding, the way an
      // ADIOS-style reader materializes its buffer (bypasses the cache so
      // the staging pass is what gets measured).
      auto entry = engine_ref().find(id);
      if (!entry) throw KeyError(id);
      const auto info = entry->info();
      const std::size_t hdr = check_scalar_meta<T>(id, info.meta);
      std::vector<std::byte> staged(info.size);
      entry->read(0, staged.data(), staged.size());
      verify_blob(id, staged.data(), staged.size(), info.meta);
      serial::BufferSource src(
          {staged.data() + hdr, staged.size() - hdr});
      serial::BinaryReader r(src);
      r(data);
      return;
    }
    // Zero-copy read path (DESIGN.md §13): the blob is CRC-verified and
    // deserialized in place — from the read cache when it holds the key,
    // else straight out of the engine's stored span.
    auto fetched = fetch_blob(id);
    if (!fetched) throw KeyError(id);
    const std::size_t hdr = check_scalar_meta<T>(id, fetched->meta);
    const auto payload = fetched->blob.subspan(hdr);
    serial::SpanSource pmem_src(payload);
    serial::CacheSource dram_src(payload);
    serial::BinaryReader r(fetched->from_cache
                               ? static_cast<serial::Source&>(dram_src)
                               : pmem_src);
    r(data);
  }

  template <typename T>
  [[nodiscard]] T load(const std::string& id) {
    T v{};
    load(id, v);
    return v;
  }

  // --- arrays ------------------------------------------------------------------

  /// Declare the global dimensions of array @p id (paper Fig. 2 alloc).
  template <typename T>
  void alloc(const std::string& id, int ndims, const std::size_t* dims) {
    put_dims(id, serial::dtype_of_v<T>,
             Dimensions(dims, dims + static_cast<std::size_t>(ndims)));
  }
  template <typename T>
  void alloc(const std::string& id, const Dimensions& dims) {
    put_dims(id, serial::dtype_of_v<T>, dims);
  }

  /// Store this process's subarray: @p dimspp counts at @p offsets within
  /// the global array.  No coordination with other processes.
  template <typename T>
  void store(const std::string& id, const T* data, int ndims,
             const std::size_t* offsets, const std::size_t* dimspp) {
    trace::Span span("core.put");
    const auto nd = static_cast<std::size_t>(ndims);
    Box box(Dimensions(offsets, offsets + nd),
            Dimensions(dimspp, dimspp + nd));
    const std::size_t payload = box.elements() * sizeof(T);
    const auto ser = cfg_.serializer;
    const auto dtype = serial::dtype_of_v<T>;
    with_healing(id, [&] {
      // Group commit: the piece and the implicit "#dims" entry (when this is
      // the array's first store) publish under one batch — one coalesced
      // flush pass + fence pair instead of one per entry.  A user-opened
      // Batch subsumes the internal one.
      AutoBatch group(*this);

      Dimensions global;
      serial::DType declared;
      if (get_dims(id, &declared, &global)) {
        if (declared != dtype) {
          throw TypeError("pmemcpy: dtype mismatch storing " + id);
        }
      } else {
        // "pMEMCPY automatically stores the dimensions of the array" — when
        // alloc() was skipped, derive an extent from this piece.
        global.resize(nd);
        for (std::size_t d = 0; d < nd; ++d) {
          global[d] = box.offset[d] + box.count[d];
        }
        put_dims(id, dtype, global);
      }

      const std::size_t hdr =
          detail::blob_header_size(ser, static_cast<std::uint32_t>(nd));

      if (cfg_.filter != serial::FilterId::kNone) {
        // Filtered path: encode in DRAM (the size must be known to reserve
        // the blob), then blob = header | u64 encoded size | encoded bytes.
        const auto enc = serial::filter_encode(
            cfg_.filter,
            {reinterpret_cast<const std::byte*>(data), payload});
        // The encode pass materializes the compressed payload in DRAM; the
        // copy audit must see it as a staging pass (DESIGN.md §12).
        trace::count(trace::Counter::kCopyStagedPuts);
        trace::count(trace::Counter::kCopyStagedBytes, enc.size());
        auto put = start_put(
            detail::piece_key(id, box), hdr + 8 + enc.size(),
            detail::pack_meta(detail::EntryKind::kPiece, dtype, ser,
                              cfg_.filter));
        serial::ChecksumSink cs(put->sink());
        {
          trace::Span serialize_span("core.serialize");
          detail::write_blob_header(cs, ser, dtype, payload, global, box);
          const std::uint64_t enc_size = enc.size();
          cs.write(&enc_size, sizeof(enc_size));
          cs.write(enc.data(), enc.size());
        }
        put->commit(cs.crc());
        group.commit();
        invalidate_piece_cache(id);
        return;
      }

      auto put = start_put(
          detail::piece_key(id, box), hdr + payload,
          detail::pack_meta(detail::EntryKind::kPiece, dtype, ser));
      const auto emit = [&](serial::Sink& sink) {
        trace::Span serialize_span("core.serialize");
        detail::write_blob_header(sink, ser, dtype, payload, global, box);
        sink.write(data, payload);
      };
      std::uint32_t crc = 0;
      if (cfg_.force_dram_staging) {
        serial::BufferSink staged(hdr + payload);
        emit(staged);
        crc = crc32c(staged.bytes().data(), staged.bytes().size());
        put->sink().write(staged.bytes().data(), staged.bytes().size());
      } else {
        serial::ChecksumSink cs(put->sink());
        emit(cs);
        crc = cs.crc();
      }
      put->commit(crc);
      group.commit();
      invalidate_piece_cache(id);
    });
  }

  /// Load a subarray.  The fast path hits the piece written with identical
  /// offsets/counts (the symmetric-read pattern); otherwise all overlapping
  /// pieces are intersected.
  template <typename T>
  void load(const std::string& id, T* data, int ndims,
            const std::size_t* offsets, const std::size_t* dimspp) {
    trace::Span span("core.get");
    const auto nd = static_cast<std::size_t>(ndims);
    Box want(Dimensions(offsets, offsets + nd),
             Dimensions(dimspp, dimspp + nd));
    auto& st = engine_ref();

    const std::string pkey = detail::piece_key(id, want);
    throw_if_damaged(pkey);
    if (!cfg_.force_dram_staging && read_cache_) {
      // Cached fast path: the verified whole blob comes from DRAM on a hit
      // (or is fetched zero-copy and filled on a miss); the payload slice
      // is copied straight into the caller's buffer.
      if (auto fetched = fetch_blob(pkey)) {
        serial::FilterId filter;
        const std::size_t hdr =
            check_piece_meta<T>(id, fetched->meta, nd, &filter);
        const std::size_t payload = want.elements() * sizeof(T);
        if (filter != serial::FilterId::kNone) {
          decode_filtered_piece(id, fetched->blob, hdr, filter,
                                {reinterpret_cast<std::byte*>(data), payload});
          return;
        }
        if (fetched->blob.size() != hdr + payload) {
          throw TypeError("pmemcpy: size mismatch loading " + id);
        }
        std::memcpy(data, fetched->blob.data() + hdr, payload);
        if (fetched->from_cache) {
          sim::ctx().charge_cpu_copy(payload);
        } else {
          trace::count(trace::Counter::kCopyReadDirectBytes, payload);
        }
        return;
      }
    } else if (auto entry = st.find(pkey)) {
      const auto info = entry->info();
      serial::FilterId filter;
      const std::size_t hdr = check_piece_meta<T>(id, info.meta, nd, &filter);
      const std::size_t payload = want.elements() * sizeof(T);
      if (filter != serial::FilterId::kNone) {
        // Decode straight from the PMEM-resident encoded bytes.
        const auto blob = entry->stored_span();
        verify_blob(id, blob.data(), blob.size(), info.meta);
        decode_filtered_piece(id, blob, hdr, filter,
                              {reinterpret_cast<std::byte*>(data), payload});
        return;
      }
      if (info.size != hdr + payload) {
        throw TypeError("pmemcpy: size mismatch loading " + id);
      }
      if (cfg_.force_dram_staging) {
        std::vector<std::byte> staged(payload);
        entry->read(hdr, staged.data(), payload);
        verify_piece(id, *entry, hdr, staged.data(), payload, info.meta);
        std::memcpy(data, staged.data(), payload);
        sim::ctx().charge_cpu_copy(payload);
        trace::count(trace::Counter::kCopyReadStagedBytes, payload);
      } else {
        // One pass: PMEM -> user buffer.
        entry->read(hdr, data, payload);
        verify_piece(id, *entry, hdr, data, payload, info.meta);
        trace::count(trace::Counter::kCopyReadDirectBytes, payload);
      }
      return;
    }

    // General path: assemble from every overlapping piece.
    std::size_t covered = 0;
    const std::string prefix = detail::piece_prefix(id);
    const std::vector<std::string>& keys = piece_keys(id);
    for (const auto& key : keys) {
      const Box pbox = box_from_string(key.substr(prefix.size()));
      if (pbox.ndims() != nd) continue;
      const Box region = intersect(want, pbox);
      if (region.empty()) continue;
      throw_if_damaged(key);
      // Charge only the consumed slice on the uncached path — assembling a
      // sub-region must not bill a whole-piece read.
      auto fetched = fetch_blob(key, region.elements() * sizeof(T));
      if (!fetched) continue;
      serial::FilterId filter;
      const std::size_t hdr = check_piece_meta<T>(id, fetched->meta, nd,
                                                  &filter);
      if (filter != serial::FilterId::kNone) {
        // Decode the whole piece to scratch, then intersect.
        std::vector<std::byte> raw(pbox.elements() * sizeof(T));
        decode_filtered_piece(key, fetched->blob, hdr, filter, raw);
        copy_box_region(reinterpret_cast<std::byte*>(data), want, raw.data(),
                        pbox, region, sizeof(T));
      } else {
        copy_box_region(reinterpret_cast<std::byte*>(data), want,
                        fetched->blob.data() + hdr, pbox, region, sizeof(T));
        const std::size_t consumed = region.elements() * sizeof(T);
        if (fetched->from_cache) {
          sim::ctx().charge_cpu_copy(consumed);
        } else {
          trace::count(trace::Counter::kCopyReadDirectBytes, consumed);
        }
      }
      covered += region.elements();
    }
    if (covered < want.elements()) {
      throw KeyError(id + " (requested region not fully covered)");
    }
  }

  /// Query the dimensions stored under id + "#dims" (paper Fig. 2).
  void load_dims(const std::string& id, int* ndims, std::size_t* dims);
  [[nodiscard]] Dimensions load_dims(const std::string& id);

  // --- namespace ------------------------------------------------------------

  [[nodiscard]] bool exists(const std::string& id);
  /// Remove a scalar, or an array with all of its pieces, dims and
  /// attributes.
  void remove(const std::string& id);

  /// Walk every stored entry, read its full blob back (so injected media
  /// errors surface) and re-verify its checksum.  Returns all corruption
  /// found; never throws for corrupt data.
  [[nodiscard]] ScrubReport scrub();

  // --- self-healing (DESIGN.md §10) -----------------------------------------

  /// Online repair: scrub every entry, quarantine failing-but-readable
  /// media, and transactionally relocate the entries sitting on it.  An
  /// entry that cannot be read back intact is recorded in the report and its
  /// key is marked damaged (loads throw ft::DegradedError rather than
  /// returning garbage).  Crash-safe: relocation republished under the same
  /// key, so a crash mid-repair leaves either the old or the new binding.
  [[nodiscard]] RepairReport repair();

  /// Local health.  kDegraded means a put exhausted healing (retries +
  /// quarantine): the handle turns read-only — healthy keys still load,
  /// stores throw ft::DegradedError.
  [[nodiscard]] ft::Health health() const noexcept { return health_; }

  /// Collective health agreement over @p comm: every rank adopts the worst
  /// health across the communicator, so degradation is observed coherently.
  ft::Health check_health(par::Comm& comm) {
    const ft::Health agreed = par::agree_health(comm, health_);
    if (agreed == ft::Health::kDegraded) {
      enter_degraded(ft::Status(ft::ErrorCode::kDegraded,
                                "peer rank reported degraded media"));
    }
    return agreed;
  }

  /// Why the handle degraded (ok() while healthy).
  [[nodiscard]] const ft::Status& health_status() const noexcept {
    return health_status_;
  }

  /// Keys repair() declared unrecoverable (sorted).
  [[nodiscard]] std::vector<std::string> damaged_keys() const {
    return {damaged_.begin(), damaged_.end()};
  }

  // --- attributes -----------------------------------------------------------

  /// Attach a named attribute to a variable (ADIOS-style metadata: units,
  /// provenance, ...).  Any store()-able T works.
  template <typename T>
  void store_attribute(const std::string& id, const std::string& name,
                       const T& value) {
    store(detail::attr_key(id, name), value);
  }
  template <typename T>
  [[nodiscard]] T load_attribute(const std::string& id,
                                 const std::string& name) {
    return load<T>(detail::attr_key(id, name));
  }
  /// Names of the attributes attached to @p id.
  [[nodiscard]] std::vector<std::string> attributes(const std::string& id);
  /// List the stored variable ids (scalars and arrays, without the
  /// "#dims"/"#p:" bookkeeping suffixes).
  [[nodiscard]] std::vector<std::string> ids();

  // --- raw entry access (stage-out / stage-in, e.g. burst-buffer drains) ----

  /// Visit every raw entry: key, zero-copy charged view of the blob, and
  /// its meta word.  The span is only valid inside @p fn.
  void for_each_raw(
      const std::function<void(const std::string&, std::span<const std::byte>,
                               std::uint64_t)>& fn);
  /// Re-create a raw entry exported by for_each_raw.
  void import_raw(const std::string& key, std::span<const std::byte> data,
                  std::uint64_t meta);

 private:
  void do_mmap(const std::string& filename, par::Comm* comm);
  [[nodiscard]] engine::Engine& engine_ref() {
    if (!engine_) throw StateError("pmemcpy: not mapped (call mmap first)");
    return *engine_;
  }
  /// Route a put through the open Batch when one exists.  Every put path
  /// funnels through here, so this is also the read cache's write-side
  /// invalidation point (DESIGN.md §13): the stale copy is dropped before
  /// the reservation even opens, and — because fills are suppressed while a
  /// Batch is open — cannot be re-filled until the new entry is visible.
  [[nodiscard]] std::unique_ptr<engine::Engine::PutHandle> start_put(
      const std::string& key, std::size_t size, std::uint64_t meta,
      bool keep_existing = false) {
    if (read_cache_) read_cache_->invalidate(key);
    if (open_batch_) return open_batch_->put(key, size, meta, keep_existing);
    return engine_ref().put(key, size, meta, keep_existing);
  }
  /// Opens an internal group-commit scope when the user has none, so
  /// multi-entry operations batch automatically; discards on exception.
  struct AutoBatch {
    explicit AutoBatch(PMEM& pm) {
      if (!pm.open_batch_) {
        pm.open_batch_ = pm.engine_ref().begin_batch();
        p = &pm;
      }
    }
    ~AutoBatch() {
      if (p != nullptr) p->open_batch_.reset();
    }
    void commit() {
      if (p != nullptr) p->open_batch_->commit();
    }
    AutoBatch(const AutoBatch&) = delete;
    AutoBatch& operator=(const AutoBatch&) = delete;
    PMEM* p = nullptr;
  };
  /// Compare a full blob against the checksum in its meta word: a torn or
  /// rotted blob throws IntegrityError instead of being deserialized.
  void verify_blob(const std::string& key, const std::byte* blob,
                   std::size_t size, std::uint64_t meta) const {
    if (crc32c(blob, size) != detail::meta_crc(meta)) {
      throw IntegrityError("checksum mismatch in " + key);
    }
  }
  // --- zero-copy read path (DESIGN.md §13) ----------------------------------

  /// One fetched blob: a zero-copy span over PMEM (entry keeps the mapping
  /// alive) or a DRAM span served by the read cache.
  struct FetchedBlob {
    std::span<const std::byte> blob;
    std::uint64_t meta = 0;
    bool from_cache = false;
    std::unique_ptr<engine::Engine::Entry> entry;  ///< null when cached
  };

  /// find() + stored_span() + CRC verification, with the read cache (when
  /// configured) in front: a hit serves the verified DRAM copy, a miss
  /// reads the blob in place, verifies it and fills the cache (fills are
  /// skipped while a Batch is open — a staged same-key entry publishes at
  /// commit, after this key's start_put() invalidation, so a fill in
  /// between could pin the pre-batch value past the publish).  nullopt when
  /// the key is absent.  @p charge_bytes bounds the device read charged on
  /// the uncached path (callers that consume a slice; a cache fill always
  /// charges the full blob it copies).
  [[nodiscard]] std::optional<FetchedBlob> fetch_blob(
      const std::string& key,
      std::size_t charge_bytes = static_cast<std::size_t>(-1));

  /// Meta-word checks shared by the scalar load paths; returns the blob
  /// header size for the entry's serializer.
  template <typename T>
  std::size_t check_scalar_meta(const std::string& id,
                                std::uint64_t meta) const {
    detail::EntryKind kind;
    serial::DType dtype;
    serial::SerializerId ser;
    detail::unpack_meta(meta, &kind, &dtype, &ser);
    if (kind != detail::EntryKind::kScalar) {
      throw TypeError("pmemcpy: " + id + " is not a scalar entry");
    }
    if (dtype != serial::dtype_of_v<T>) {
      throw TypeError("pmemcpy: dtype mismatch loading " + id);
    }
    return detail::blob_header_size(ser, 0);
  }

  /// Meta-word checks shared by the piece load paths; returns the blob
  /// header size and reports the piece's filter.
  template <typename T>
  std::size_t check_piece_meta(const std::string& id, std::uint64_t meta,
                               std::size_t nd,
                               serial::FilterId* filter) const {
    detail::EntryKind kind;
    serial::DType dtype;
    serial::SerializerId ser;
    detail::unpack_meta(meta, &kind, &dtype, &ser, filter);
    if (dtype != serial::dtype_of_v<T>) {
      throw TypeError("pmemcpy: dtype mismatch loading " + id);
    }
    return detail::blob_header_size(ser, static_cast<std::uint32_t>(nd));
  }

  /// Decode a filtered piece blob (header | u64 encoded size | encoded
  /// bytes) into @p out, validating the length framing.
  void decode_filtered_piece(const std::string& id,
                             std::span<const std::byte> blob, std::size_t hdr,
                             serial::FilterId filter,
                             std::span<std::byte> out) const {
    std::uint64_t enc_size = 0;
    if (blob.size() < hdr + sizeof(enc_size)) {
      throw TypeError("pmemcpy: corrupt filtered blob in " + id);
    }
    std::memcpy(&enc_size, blob.data() + hdr, sizeof(enc_size));
    if (hdr + sizeof(enc_size) + enc_size != blob.size()) {
      throw TypeError("pmemcpy: corrupt filtered blob in " + id);
    }
    serial::filter_decode(filter,
                          blob.subspan(hdr + sizeof(enc_size), enc_size), out);
  }

  /// Fast-path piece verification without a second payload pass: the blob
  /// header is re-read and chained with the payload already in the caller's
  /// buffer (CRC32C(header || payload) == stored checksum).
  void verify_piece(const std::string& key, engine::Engine::Entry& entry,
                    std::size_t hdr, const void* payload,
                    std::size_t payload_len, std::uint64_t meta) const {
    std::uint32_t c = 0;
    if (hdr > 0) {
      std::vector<std::byte> hb(hdr);
      entry.read(0, hb.data(), hdr);
      c = crc32c(hb.data(), hdr);
    }
    c = crc32c(payload, payload_len, c);
    if (c != detail::meta_crc(meta)) {
      throw IntegrityError("checksum mismatch in " + key);
    }
  }
  // --- self-healing machinery (DESIGN.md §10) -------------------------------

  /// Attempts with_healing gives a put before declaring the handle degraded
  /// (each attempt already carries the device's own transient-retry budget).
  static constexpr int kMaxPutAttempts = 4;

  /// Run @p fn (a complete put body: reserve, serialize, publish) under the
  /// self-healing loop.  A DeviceError unwinds the attempt cleanly (handles
  /// roll back their reservations), heal_put_fault quarantines sticky media
  /// and the body re-runs, re-reserving on good space.  Healing that cannot
  /// make progress throws ft::DegradedError and turns the handle read-only.
  template <typename Fn>
  void with_healing(const std::string& id, Fn&& fn) {
    require_writable(id);
    for (int attempt = 1;; ++attempt) {
      try {
        fn();
        return;
      } catch (const pmem::DeviceError& caught) {
        // Healing itself writes pmem (the quarantine table), so it can hit
        // fresh sticky media mid-repair.  Fold such faults back in as the
        // attempt's error instead of letting them escape the healing loop:
        // each round quarantines a new range, and a full table degrades the
        // handle, so the inner loop terminates.  Read faults stay unhealable
        // and rethrow (heal_put_fault re-raises them untouched).
        pmem::DeviceError e = caught;
        for (;;) {
          try {
            heal_put_fault(id, e, attempt);
            break;
          } catch (const pmem::DeviceError& e2) {
            if (e2.kind == pmem::DeviceError::Kind::kMediaRead) throw;
            e = e2;
          }
        }
      }
    }
  }
  /// Degraded handles are read-only: refuse the mutation up front.
  void require_writable(const std::string& id) const {
    if (health_ == ft::Health::kDegraded) {
      throw ft::DegradedError(
          ft::Status(ft::ErrorCode::kDegraded,
                     "handle is degraded (read-only); writing '" + id +
                         "' refused"));
    }
  }
  /// Keys repair() declared unrecoverable load as typed errors, not garbage.
  void throw_if_damaged(const std::string& key) const {
    if (!damaged_.empty() && damaged_.count(key) != 0) {
      trace::count(trace::Counter::kFtDamagedKeys);
      throw ft::DegradedError(
          ft::Status(ft::ErrorCode::kDamagedKey,
                     "key '" + key + "' was lost to media failure"));
    }
  }
  /// Decide what a put's DeviceError means: quarantine + retry, or degrade.
  void heal_put_fault(const std::string& id, const pmem::DeviceError& e,
                      int attempt);
  void enter_degraded(const ft::Status& why);
  [[noreturn]] void fail_degraded(const std::string& id, ft::Status why);

  void put_dims(const std::string& id, serial::DType dtype,
                const Dimensions& dims);
  bool get_dims(const std::string& id, serial::DType* dtype, Dimensions* dims);
  /// Piece keys of @p id, scanned once per handle and cached (like an ADIOS
  /// reader parsing the footer index at open); stores invalidate the entry.
  const std::vector<std::string>& piece_keys(const std::string& id);
  void invalidate_piece_cache(const std::string& id) {
    piece_cache_.erase(id);
  }

  Config cfg_;
  ft::Health health_ = ft::Health::kHealthy;
  ft::Status health_status_ = ft::Status::ok();
  /// Keys repair() could not recover; guarded reads throw DegradedError.
  std::set<std::string> damaged_;
  std::map<std::string, std::vector<std::string>> piece_cache_;
  /// Bounded DRAM blob cache (DESIGN.md §13); null when disabled.
  std::unique_ptr<core::ReadCache> read_cache_;
  PmemNode* node_ = nullptr;
  par::Comm* comm_ = nullptr;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::Engine::Batch> open_batch_;
};

}  // namespace pmemcpy
