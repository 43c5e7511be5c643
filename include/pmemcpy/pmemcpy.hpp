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
  /// a cached blob never goes stale.
  std::size_t read_cache_bytes = 0;
  /// Allocator magazine size K (DESIGN.md §14), forwarded to the region's
  /// pool.  -1 selects the engine default of 8; 0 disables magazines.
  /// Purely runtime state, not part of the persistent layout: it can differ
  /// across opens of the same region.
  int magazine_size = -1;
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
    // the archive and put_blob() serializes straight into the exactly-sized
    // reservation — the payload never visits a DRAM staging buffer.
    const std::size_t payload = serial::binary_serialized_size(data);
    const auto ser = cfg_.serializer;
    const auto dtype = serial::dtype_of_v<T>;
    with_healing(id, [&] {
      put_blob(id, detail::blob_header_size(ser, 0) + payload,
               detail::pack_meta(detail::EntryKind::kScalar, dtype, ser),
               cfg_.force_dram_staging, [&](serial::Sink& sink) {
                 trace::Span serialize_span("core.serialize");
                 detail::write_blob_header(sink, ser, dtype, payload, {}, {});
                 serial::BinaryWriter w(sink);
                 w(data);
               });
    });
  }

  template <typename T>
  void load(const std::string& id, T& data) {
    trace::Span span("core.get");
    throw_if_damaged(id);
    const auto fetched = fetch_blob(id, cfg_.force_dram_staging);
    if (!fetched) throw KeyError(id);
    BlobSource src(*fetched, check_scalar_meta<T>(id, fetched->meta));
    serial::BinaryReader r(src);
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

      // A filtered piece is encoded in DRAM first (the size must be known
      // to reserve the blob): blob = header | u64 encoded size | encoded
      // bytes.  The encode pass materializes the payload in DRAM, so the
      // copy audit counts it as the piece's staging pass (DESIGN.md §12).
      const bool filtered = cfg_.filter != serial::FilterId::kNone;
      std::vector<std::byte> enc;
      if (filtered) {
        enc = serial::filter_encode(
            cfg_.filter, {reinterpret_cast<const std::byte*>(data), payload});
        trace::count(trace::Counter::kCopyStagedPuts);
        trace::count(trace::Counter::kCopyStagedBytes, enc.size());
      }
      const std::uint64_t enc_size = enc.size();
      put_blob(detail::piece_key(id, box),
               detail::blob_header_size(ser, static_cast<std::uint32_t>(nd)) +
                   (filtered ? sizeof(enc_size) + enc.size() : payload),
               detail::pack_meta(detail::EntryKind::kPiece, dtype, ser,
                                 cfg_.filter),
               !filtered && cfg_.force_dram_staging, [&](serial::Sink& sink) {
                 trace::Span serialize_span("core.serialize");
                 detail::write_blob_header(sink, ser, dtype, payload, global,
                                           box);
                 if (filtered) {
                   sink.write(&enc_size, sizeof(enc_size));
                   sink.write(enc.data(), enc.size());
                 } else {
                   sink.write(data, payload);
                 }
               });
      group.commit();
      invalidate_piece_cache(id);
    });
  }

  /// Load a subarray.  The symmetric read hits the piece written with
  /// identical offsets/counts; otherwise all overlapping pieces are
  /// intersected.  Either way each piece is one fetch_blob() and one
  /// decode_piece().
  template <typename T>
  void load(const std::string& id, T* data, int ndims,
            const std::size_t* offsets, const std::size_t* dimspp) {
    trace::Span span("core.get");
    const auto nd = static_cast<std::size_t>(ndims);
    Box want(Dimensions(offsets, offsets + nd),
             Dimensions(dimspp, dimspp + nd));
    auto* out = reinterpret_cast<std::byte*>(data);

    const std::string pkey = detail::piece_key(id, want);
    throw_if_damaged(pkey);
    if (const auto fetched = fetch_blob(pkey, cfg_.force_dram_staging)) {
      decode_piece<T>(id, *fetched, want, want, want, out);
      return;
    }

    std::size_t covered = 0;
    const std::string prefix = detail::piece_prefix(id);
    for (const auto& key : piece_keys(id)) {
      const Box pbox = box_from_string(key.substr(prefix.size()));
      if (pbox.ndims() != nd) continue;
      const Box region = intersect(want, pbox);
      if (region.empty()) continue;
      throw_if_damaged(key);
      // Charge only the consumed slice on the uncached path — assembling a
      // sub-region must not bill a whole-piece read.
      const auto fetched = fetch_blob(key, cfg_.force_dram_staging,
                                      region.elements() * sizeof(T));
      if (!fetched) continue;
      decode_piece<T>(id, *fetched, pbox, want, region, out);
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
  /// The one put sequence (DESIGN.md §12): reserve @p size bytes under
  /// @p key, let @p emit write exactly that many, checksum them and commit.
  /// The bytes land straight in the reservation through a ChecksumSink;
  /// with @p staged (the ADIOS-style ablation) they are emitted into a DRAM
  /// buffer first, checksummed there and copied in.  The put goes through
  /// the open Batch when one exists.  This is also the read cache's
  /// write-side invalidation point (DESIGN.md §13): the stale copy is
  /// dropped before the reservation opens, and — because fills are
  /// suppressed while a Batch is open — cannot be re-filled until the new
  /// entry is visible.
  template <typename Emit>
  void put_blob(const std::string& key, std::size_t size, std::uint64_t meta,
                bool staged, Emit&& emit, bool keep_existing = false) {
    if (read_cache_) read_cache_->invalidate(key);
    auto put = open_batch_
                   ? open_batch_->put(key, size, meta, keep_existing)
                   : engine_ref().put(key, size, meta, keep_existing);
    if (staged) {
      serial::BufferSink buf(size);
      emit(buf);
      const auto& bytes = buf.bytes();
      put->sink().write(bytes.data(), bytes.size());
      put->commit(crc32c(bytes.data(), bytes.size()));
      return;
    }
    serial::ChecksumSink cs(put->sink());
    emit(cs);
    put->commit(cs.crc());
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

  // --- the one get path (DESIGN.md §13) -------------------------------------

  /// One CRC-verified blob: a zero-copy span over PMEM (entry keeps the
  /// mapping alive), the read cache's DRAM copy, or a staged DRAM bounce.
  struct FetchedBlob {
    enum class Origin { kPmem, kCache, kStaged };
    std::span<const std::byte> blob;
    std::uint64_t meta = 0;
    Origin origin = Origin::kPmem;
    std::unique_ptr<engine::Engine::Entry> entry;
    std::vector<std::byte> staged;

    /// Account @p n bytes decoded out of the blob.  In place from PMEM the
    /// device read was already charged at fetch; out of the cache or the
    /// staged bounce each byte is a DRAM copy.
    void charge_decode(std::size_t n) const {
      if (origin == Origin::kPmem) {
        trace::count(trace::Counter::kCopyReadDirectBytes, n);
        return;
      }
      sim::ctx().charge_cpu_copy(n);
      if (origin == Origin::kStaged) {
        trace::count(trace::Counter::kCopyReadStagedBytes, n);
      }
    }
  };

  /// Serializer source over a fetched blob from byte @p off on; every read
  /// is accounted through charge_decode().
  class BlobSource final : public serial::Source {
   public:
    BlobSource(const FetchedBlob& f, std::size_t off) : f_(&f) {
      if (off > f.blob.size()) throw serial::SerialError("source underrun");
      bytes_ = f.blob.subspan(off);
    }
    void read(void* dst, std::size_t len) override {
      if (len > bytes_.size() - pos_) {
        throw serial::SerialError("source underrun");
      }
      if (len != 0) std::memcpy(dst, bytes_.data() + pos_, len);
      pos_ += len;
      f_->charge_decode(len);
    }
    [[nodiscard]] std::size_t tell() const override { return pos_; }

   private:
    const FetchedBlob* f_;
    std::span<const std::byte> bytes_;
    std::size_t pos_ = 0;
  };

  /// Every get's read: the read cache on a hit, else find(), stored_span()
  /// and the CRC over the span in place, then a cache fill (skipped while a
  /// Batch is open — a staged same-key entry publishes at commit, after
  /// this key's put_blob() invalidation, so a fill in between could pin the
  /// pre-batch value past the publish).  With @p staged the cache is
  /// skipped and the verified blob is bounced through DRAM, the way an
  /// ADIOS-style reader materializes its buffer.  nullopt when the key is
  /// absent.  @p charge_bytes bounds the device read charged for a plain
  /// in-place fetch (callers that consume a slice); a fill or a bounce
  /// copies, and charges, the whole blob.
  [[nodiscard]] std::optional<FetchedBlob> fetch_blob(
      const std::string& key, bool staged,
      std::size_t charge_bytes = static_cast<std::size_t>(-1));

  /// Meta-word checks of a scalar load; returns the blob header size for
  /// the entry's serializer.
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

  /// Copy the @p region of one piece blob (box @p pbox) into @p out, the
  /// caller's buffer for box @p want; the symmetric read passes one box
  /// three times.  A filtered blob (header | u64 encoded size | encoded
  /// bytes) is decoded whole: straight into @p out when it is the box
  /// wanted, else to scratch first.
  template <typename T>
  void decode_piece(const std::string& id, const FetchedBlob& f,
                    const Box& pbox, const Box& want, const Box& region,
                    std::byte* out) const {
    detail::EntryKind kind;
    serial::DType dtype;
    serial::SerializerId ser;
    serial::FilterId filter;
    detail::unpack_meta(f.meta, &kind, &dtype, &ser, &filter);
    if (dtype != serial::dtype_of_v<T>) {
      throw TypeError("pmemcpy: dtype mismatch loading " + id);
    }
    const std::size_t hdr = detail::blob_header_size(
        ser, static_cast<std::uint32_t>(pbox.ndims()));
    const std::size_t bytes = pbox.elements() * sizeof(T);
    if (filter == serial::FilterId::kNone) {
      if (f.blob.size() != hdr + bytes) {
        throw TypeError("pmemcpy: size mismatch loading " + id);
      }
      copy_box_region(out, want, f.blob.data() + hdr, pbox, region,
                      sizeof(T));
      f.charge_decode(region.elements() * sizeof(T));
      return;
    }
    std::uint64_t enc_size = 0;
    if (f.blob.size() < hdr + sizeof(enc_size)) {
      throw TypeError("pmemcpy: corrupt filtered blob in " + id);
    }
    std::memcpy(&enc_size, f.blob.data() + hdr, sizeof(enc_size));
    if (hdr + sizeof(enc_size) + enc_size != f.blob.size()) {
      throw TypeError("pmemcpy: corrupt filtered blob in " + id);
    }
    const auto enc = f.blob.subspan(hdr + sizeof(enc_size));
    if (want == pbox) {
      serial::filter_decode(filter, enc, {out, bytes});
      return;
    }
    std::vector<std::byte> raw(bytes);
    serial::filter_decode(filter, enc, raw);
    copy_box_region(out, want, raw.data(), pbox, region, sizeof(T));
  }

  /// The scrub/repair pass: visit each distinct stored key once, with its
  /// whole blob read in place (stored_span) and checked against its
  /// checksum.  @p fn gets the key, the entry, the blob and the issue found
  /// ("" when intact; the blob is empty after a media error).  Returns the
  /// number of keys examined.
  std::size_t examine(
      const std::function<void(const std::string&, engine::Engine::Entry&,
                               std::span<const std::byte>,
                               const std::string&)>& fn);

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
