// The storage-engine contract: everything above this layer (PMEM, the C API,
// benchmarks) speaks one key-value interface; everything below it (the flat
// hashtable pool or the DAX-filesystem tree) is an interchangeable
// implementation.
//
// The contract:
//   * Entries are (key, blob, 64-bit meta word).  Keys are flat strings;
//     prefix iteration is the only enumeration primitive.
//   * put() is two-phase: the returned PutHandle exposes a Sink over the
//     reserved blob, and commit(crc) stamps the checksum and publishes.  An
//     entry is either fully visible or absent — never torn.  A PutHandle
//     destroyed without commit() leaves no trace.
//   * Zero-copy contract (DESIGN.md §12): the reservation is an
//     exactly-sized span of persistent memory, and sink() writes serialize
//     straight into it — a put handle never stages the payload in DRAM.
//     reserved_span() exposes the raw span when the reservation is
//     physically contiguous (empty span otherwise, e.g. a fragmented tree
//     file streaming through its mapping); either way the bytes take one
//     trip.  Callers that *want* staging (the ADIOS-style ablation) stage
//     above the contract with a BufferSink and copy in.
//   * Zero-copy read contract (DESIGN.md §13): find() hands back an Entry
//     whose stored_span() is a direct const view of the stored blob —
//     hashtable value bytes in the pool, or the tree file's mapped extent —
//     so CRC verification and deserialization run in place without bouncing
//     the payload through DRAM.  A fragmented tree file is the one charged
//     fallback (copy.read_bounce_bytes); everything else reads exactly once.
//   * Durability ordering: an entry's bytes (blob + metadata) are flushed
//     and fenced *before* the store that makes them reachable, so a crash at
//     any point exposes only complete entries (the PR-2 persistency checker
//     enforces this on every engine).
//   * Batches stage several puts and publish them together.  Staged entries
//     are invisible to find()/for_each_prefix() — including the stager's own
//     reads — until Batch::commit(); a Batch destroyed without commit
//     discards every staged entry.  Batching is a fence optimisation, not a
//     multi-entry atomicity guarantee: a crash during commit may publish a
//     prefix of the batch, but each published entry is individually intact.
//   * keep_existing=true makes the first writer win (concurrent ranks
//     storing identical metadata); the loser's reservation is discarded.
//
// Engines are DRAM objects bound to persistent state; they hold no
// persistent state of their own, so re-opening after a crash just
// constructs a fresh engine over the recovered pool/filesystem.
#pragma once

#include <pmemcpy/serial/sink.hpp>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace pmemcpy {
class PmemNode;
namespace obj {
class Pool;
class HashTable;
}  // namespace obj
namespace fs {
class FileSystem;
}  // namespace fs
namespace par {
class Comm;
}  // namespace par
}  // namespace pmemcpy

namespace pmemcpy::engine {

/// Size + caller-defined meta word of a stored entry.
struct EntryInfo {
  std::uint64_t size = 0;
  std::uint64_t meta = 0;
};

class Engine {
 public:
  /// In-flight reservation of one entry (see contract above).
  class PutHandle {
   public:
    virtual ~PutHandle() = default;
    /// Sink over the reserved blob; write exactly the reserved size.
    virtual serial::Sink& sink() = 0;
    /// The reserved PMEM span itself, when the reservation is physically
    /// contiguous — sink() is a SpanSink over exactly this memory, already
    /// charged at reservation time.  Empty when the engine streams through
    /// a non-contiguous mapping instead (the bytes still go straight to
    /// PMEM; there is just no single span to hand out).
    [[nodiscard]] virtual std::span<std::byte> reserved_span() { return {}; }
    /// Stamp the payload CRC into the meta word's high 32 bits and publish
    /// (or, inside a Batch, stage for the group publish).
    virtual void commit(std::uint32_t payload_crc) = 0;
  };

  /// Read handle for one entry.
  class Entry {
   public:
    virtual ~Entry() = default;
    [[nodiscard]] virtual EntryInfo info() const = 0;
    /// Charged copy of blob bytes [off, off+len); throws SerialError when
    /// out of range.
    virtual void read(std::uint64_t off, void* dst, std::size_t len) = 0;
    /// Zero-copy read contract (DESIGN.md §13): a direct const span over
    /// the whole stored blob, exactly info().size bytes, valid while this
    /// handle lives.  CRC verification and deserialization consume it in
    /// place — a get never bounces the payload through DRAM.  Only
    /// @p charge_bytes of device read traffic are charged (callers often
    /// decode a slice); media errors surface as DeviceError, never as
    /// stale/garbage bytes.  Engines whose blob is not physically
    /// contiguous (a fragmented tree file) fall back internally to a DRAM
    /// bounce charged to copy.read_bounce_bytes — the span they return is
    /// then over the bounce buffer, still handle-lifetime stable.
    [[nodiscard]] virtual std::span<const std::byte> stored_span(
        std::size_t charge_bytes) = 0;
    /// Whole-blob convenience: charges the full stored size.
    [[nodiscard]] std::span<const std::byte> stored_span() {
      return stored_span(info().size);
    }
    /// Device-absolute offset of the stored blob, for repair/scrub
    /// diagnostics; 0 when the engine has no meaningful physical address
    /// (the tree engine).
    [[nodiscard]] virtual std::uint64_t dev_off() const { return 0; }
  };

  /// Group-commit scope (see contract above for visibility semantics).
  class Batch {
   public:
    virtual ~Batch() = default;
    /// Stage a reservation; handle semantics match Engine::put except that
    /// commit(crc) stages instead of publishing.
    virtual std::unique_ptr<PutHandle> put(const std::string& key,
                                           std::size_t size,
                                           std::uint64_t meta,
                                           bool keep_existing) = 0;
    /// Publish every staged entry (engine-specific; the table engine pays
    /// two fences total regardless of the batch size).
    virtual void commit() = 0;
    /// Entries staged and awaiting commit.
    [[nodiscard]] virtual std::size_t staged() const = 0;
  };

  virtual ~Engine() = default;

  virtual std::unique_ptr<PutHandle> put(const std::string& key,
                                         std::size_t size, std::uint64_t meta,
                                         bool keep_existing) = 0;
  /// nullptr when absent.
  virtual std::unique_ptr<Entry> find(const std::string& key) = 0;
  /// false when absent.
  virtual bool erase(const std::string& key) = 0;
  virtual void for_each_prefix(
      const std::string& prefix,
      const std::function<void(const std::string&, const EntryInfo&)>& fn) = 0;
  virtual std::unique_ptr<Batch> begin_batch() = 0;

  /// Record the device-absolute range [dev_off, dev_off+len) in the pool's
  /// persistent quarantine table so its space is never allocated again (the
  /// self-healing put path calls this with DeviceError coordinates before
  /// retrying).  Returns false when the range lies outside the pool or the
  /// engine has no quarantine support (the tree engine).
  virtual bool quarantine(std::size_t dev_off, std::size_t len) {
    (void)dev_off;
    (void)len;
    return false;
  }
};

// --- factories ---------------------------------------------------------------

/// Flat layout: one hashtable in one pool.
std::unique_ptr<Engine> make_table_engine(std::shared_ptr<obj::Pool> pool,
                                          std::shared_ptr<obj::HashTable> table);

/// Hierarchical layout: one file per entry under @p root on the DAX fs.
std::unique_ptr<Engine> make_tree_engine(fs::FileSystem& fs, std::string root,
                                         bool map_sync);

/// Remove every temp file a tree put left behind on @p fs (a put writes its
/// entry to a temp file and renames it into place, so a crash strands the
/// temp).  Only safe while no tree put is in flight: PmemNode::remount()
/// calls it on the freshly mounted filesystem.
void reclaim_tree_temps(fs::FileSystem& fs);

/// Options for the standard pool-backed open path.
struct PoolEngineOptions {
  std::string name;            ///< pool name
  std::size_t pool_size = 0;   ///< pool bytes; 0 = the rest of the pool area
  std::size_t nbuckets = 8192; ///< initial hashtable buckets (0 acts as 1)
  bool auto_grow = true;
  bool map_sync = false;
  /// Allocator hot-path knobs (DESIGN.md §14).  -1 selects the engine
  /// defaults (magazines of 8, 8 stripes); 0 disables magazines / 1
  /// collapses the stripes back to a single metadata lane.
  int magazine_size = -1;
  int alloc_stripes = -1;
};

/// Open (creating if needed) the table engine for @p opts.  Collective when
/// @p comm is non-null: rank 0 creates the pool and its table, then all
/// ranks open the shared instances.  The pool's expected-contender count is
/// set to the number of ranks, which the simulated-clock contention model
/// charges against.
std::unique_ptr<Engine> open_pool_engine(PmemNode& node,
                                         const PoolEngineOptions& opts,
                                         par::Comm* comm);

/// Open the tree engine rooted at @p root, creating the directory on rank 0
/// first (collective when @p comm is non-null).
std::unique_ptr<Engine> open_tree_engine(PmemNode& node, const std::string& root,
                                         bool map_sync, par::Comm* comm);

}  // namespace pmemcpy::engine
