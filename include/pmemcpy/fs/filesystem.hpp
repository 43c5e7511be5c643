// EXT4-DAX-like filesystem over the emulated PMEM device.
//
// Two access paths, mirroring the paper's distinction:
//   * POSIX path (open/pread/pwrite/fsync) — every call pays a kernel
//     crossing and a kernel-buffer copy on top of the device transfer.  The
//     baseline I/O libraries (miniADIOS/miniNetCDF/miniPNetCDF) use this.
//   * DAX path (map()) — load/store straight against device memory with no
//     kernel crossing and no copy; optionally with MAP_SYNC semantics, which
//     charges a synchronous allocation fault per first-touched page.
//     pMEMCPY's hierarchical layout uses this.
//
// On-device layout: superblock, block bitmap, fixed inode table, data blocks.
// Files are extent-based (12 inline extents + chained indirect extent blocks),
// directories are files holding (inode, name) records.  Metadata updates are
// persisted write-through so a device image can be re-mounted; full crash
// journaling is out of scope (the object store, not the filesystem, provides
// transactional guarantees in this system).
//
// Like the kernel's inode bitmap and dcache, a mounted FileSystem keeps its
// namespace in DRAM (DESIGN.md §6): an inode-allocation map, per directory
// the committed entry list with a name index, and per inode the number of
// names it has.  All are filled only through the on-media decoders and
// updated only after the write that commits a change is durable, so a mount
// assumes it is the only mount of its region.  An inode is released only
// with its last name.  Mount walks the namespace once and frees what a crash
// stranded: unreachable inodes that hold no data or carry the orphan mark
// remove() and rename() set before unlinking, and blocks no inode lists.
#pragma once

#include <pmemcpy/pmem/device.hpp>

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pmemcpy::fs {

struct FsError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::size_t kBlockSize = 4096;

/// Inode number; 0 is invalid, 1 is the root directory.
using Ino = std::uint32_t;

enum class OpenMode {
  kRead,        ///< must exist
  kWrite,       ///< create if missing, keep contents
  kTruncate,    ///< create if missing, drop contents
};

class FileSystem;

/// An open file.  Cheap value type (inode number + fs pointer).
class File {
 public:
  File() = default;
  [[nodiscard]] bool valid() const noexcept { return fs_ != nullptr; }
  [[nodiscard]] Ino ino() const noexcept { return ino_; }

 private:
  friend class FileSystem;
  File(FileSystem* fs, Ino ino) : fs_(fs), ino_(ino) {}
  FileSystem* fs_ = nullptr;
  Ino ino_ = 0;
};

/// DAX mapping of a file: loads/stores run against device memory directly.
class Mapping {
 public:
  /// Store @p len bytes at file offset @p off (zero kernel involvement).
  void store(std::uint64_t off, const void* src, std::size_t len);
  /// Load @p len bytes from file offset @p off.
  void load(std::uint64_t off, void* dst, std::size_t len) const;
  /// Flush + fence the given file range: one CLWB pass over every extent
  /// run, then a single fence (not a fence per run).
  void persist(std::uint64_t off, std::size_t len);
  /// Persistency-checker annotation: declare the file range as becoming
  /// reachable/visible (must be flushed + fenced by now).  No-op without an
  /// attached checker.
  void check_publish(std::uint64_t off, std::size_t len);
  /// Charged, crash-tracked writable span over [off, off+len) when the
  /// range is physically contiguous; throws FsError otherwise (callers
  /// fall back to streaming store()s).  The write is announced
  /// (note_write) and charged once up front — the zero-copy reservation
  /// primitive of the reserve-then-serialize contract (DESIGN.md §12),
  /// exactly like Pool::direct_write_span.  Persisting the filled span
  /// stays the caller's job.
  [[nodiscard]] std::span<std::byte> direct_write_span(std::uint64_t off,
                                                       std::size_t len);
  /// Media-checked read-only span over [off, off+len) when the range is
  /// physically contiguous; throws FsError otherwise (callers fall back to
  /// a charged DRAM bounce through load()) and DeviceError when the range
  /// sits on injected-bad media — the zero-copy consumption primitive of
  /// the read path (DESIGN.md §13), symmetric to direct_write_span.
  /// Account the bytes actually consumed through charge_load(): callers
  /// often decode only a slice of the mapped blob.
  [[nodiscard]] std::span<const std::byte> direct_read_span(
      std::uint64_t off, std::size_t len) const;
  /// Account a zero-copy read of @p bytes through this mapping.
  void charge_load(std::size_t bytes) const;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool map_sync() const noexcept { return map_sync_; }

 private:
  friend class FileSystem;
  /// (file-offset, device-offset, length) runs, sorted by file offset.
  struct Run {
    std::uint64_t file_off;
    std::uint64_t dev_off;
    std::uint64_t len;
  };
  /// Visit the runs overlapping [off, off+len).
  template <typename Fn>
  void for_runs(std::uint64_t off, std::size_t len, Fn&& fn) const;

  FileSystem* fs_ = nullptr;
  std::uint64_t size_ = 0;
  bool map_sync_ = false;
  std::vector<Run> runs_;
};

class FileSystem {
 public:
  /// Create a fresh filesystem over device bytes [base, base+size).
  static FileSystem format(pmem::Device& dev, std::size_t base,
                           std::size_t size);
  /// Mount an existing filesystem image.
  static FileSystem mount(pmem::Device& dev, std::size_t base);

  FileSystem(FileSystem&&) noexcept = default;
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;
  FileSystem& operator=(FileSystem&&) = delete;

  [[nodiscard]] pmem::Device& device() noexcept { return *dev_; }

  // --- namespace ---------------------------------------------------------

  void mkdir(const std::string& path);
  /// mkdir -p.
  void mkdirs(const std::string& path);
  [[nodiscard]] bool exists(const std::string& path);
  [[nodiscard]] bool is_dir(const std::string& path);
  /// Remove a file or empty directory.
  void remove(const std::string& path);
  /// Atomically move a file to @p to.  With @p replace, an existing target
  /// file is superseded; without it, an existing target wins and @p from is
  /// removed instead (returns false).
  bool rename(const std::string& from, const std::string& to,
              bool replace = true);
  /// Names in a directory (unsorted).
  [[nodiscard]] std::vector<std::string> list(const std::string& path);

  // --- POSIX-style access (charged: syscall + kernel copy + device) --------

  [[nodiscard]] File open(const std::string& path, OpenMode mode);
  std::size_t pwrite(File f, const void* buf, std::size_t len,
                     std::uint64_t off);
  std::size_t pread(File f, void* buf, std::size_t len, std::uint64_t off);
  /// Extend/shrink; extending allocates blocks without zeroing (fallocate).
  void truncate(File f, std::uint64_t size);
  void fsync(File f);
  [[nodiscard]] std::uint64_t size(File f);
  [[nodiscard]] std::uint64_t size(const std::string& path);

  // --- DAX access ------------------------------------------------------------

  /// Map a file for direct access.  The whole current size is mapped.
  [[nodiscard]] Mapping map(File f, bool map_sync = false);
  /// Create (or truncate) a file of @p sz bytes and map it — the pMEMCPY
  /// "mmap a fresh region" fast path.
  [[nodiscard]] Mapping create_mapped(const std::string& path, std::uint64_t sz,
                                      bool map_sync = false);

  // --- stats ------------------------------------------------------------------

  [[nodiscard]] std::uint64_t free_blocks() const;
  /// Inodes not in use, read from the DRAM inode map.
  [[nodiscard]] std::uint64_t free_inodes() const;

 private:
  friend class Mapping;
  struct Inode;
  struct DirHeader;
  using DirEntries = std::vector<std::pair<std::string, Ino>>;
  /// DRAM copy of one directory's committed entry list: the entries in
  /// on-media order and the first inode each name maps to.  A stale index
  /// (its rewrite threw) still counts its entries in names_ until the next
  /// use decodes what the media holds.
  struct DirIndex {
    DirEntries entries;
    std::unordered_map<std::string, Ino> by_name;
    bool stale = false;
  };

  FileSystem(pmem::Device& dev, std::size_t base);
  /// Mount-time reclaim (DESIGN.md §6): walk the namespace from the root,
  /// free each unreachable inode that holds no data or carries the orphan
  /// mark, clear the mark on reachable inodes, then free every used block
  /// that no inode lists.  Frees nothing when a directory or an extent list
  /// does not decode.
  void reclaim();

  [[nodiscard]] Inode read_inode(Ino ino) const;
  void write_inode(Ino ino, const Inode& inode);
  /// First fit from inode 1 over the DRAM map; the map marks the inode used
  /// once its write is durable.
  [[nodiscard]] Ino alloc_inode(std::uint32_t type);
  /// Free an inode that no name reaches and that holds no data.
  void free_inode(Ino ino);

  /// Allocate @p nblocks, preferring contiguity; returns extents.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  alloc_blocks(std::uint64_t nblocks);
  /// Mark blocks [start, start+n) used or free: write the touched bitmap
  /// bytes through to the device, then update the DRAM bitmap.
  void mark_blocks(std::uint64_t start, std::uint64_t n, bool used);

  /// Ensure the file owns blocks covering [0, size); grows only.
  void ensure_capacity(Ino ino, std::uint64_t size);
  /// Gather the (file_off, dev_off, len) runs of a file's first @p size bytes.
  [[nodiscard]] std::vector<Mapping::Run> gather_runs(Ino ino,
                                                      std::uint64_t size) const;
  /// Visit the indirect extent blocks chained from block @p blk in order:
  /// fn(block index, block) returns false to stop.  Each block must lie in
  /// the data region and hold at most its 254 extents.  An intact chain
  /// holds each block once, so a walk past total_blocks_ is a cycle on
  /// damaged media.  Either damage throws FsError.
  template <typename Fn>
  void walk_indirect(std::uint64_t blk, Fn&& fn) const;
  /// The one decoder of a file's extent list: fn(extent, true) for each
  /// inline extent, then, block by block along the indirect chain, for the
  /// block's extents followed by fn({block, 1}, false) for the block itself;
  /// fn returns false to stop.  At most 12 inline extents, each inside the
  /// data region, else FsError.
  template <typename Fn>
  void for_each_extent(const Inode& inode, Fn&& fn) const;
  /// Append an extent to an inode's extent list (inline or indirect chain).
  void append_extent(Inode& inode, Ino ino, std::uint64_t start,
                     std::uint64_t n);
  /// Detach every block run from the inode (zeroing its extent fields)
  /// WITHOUT freeing them; crash-ordering requires persisting the detached
  /// inode before free_runs() returns the blocks to the allocator.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  detach_extents(Inode& inode);
  void free_runs(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& runs);
  /// detach_extents + persist the detached inode + free, in that order.
  void drop_extents(Inode& inode, Ino ino);
  /// Flush + fence the device lines backing file range [off, off+len).
  void persist_file_range(Ino ino, std::uint64_t off, std::uint64_t len);

  [[nodiscard]] Ino resolve(const std::string& path, bool want_parent,
                            std::string* leaf);
  [[nodiscard]] Ino dir_lookup(Ino dir, const std::string& name);
  /// Allocate an inode of @p type and name it @p name in @p dir.  If the
  /// name does not commit, the inode is free again in the DRAM map.
  Ino create(Ino dir, const std::string& name, std::uint32_t type);
  void dir_remove(Ino dir, std::string_view name);
  /// Persist the orphan mark in the head line of inode @p ino, whose
  /// current content is @p inode, before a name that reaches it is removed.
  void mark_orphan(Ino ino, Inode inode);
  /// Drop the extents of an unlinked inode, then free it.
  void release(Ino ino);
  /// Drop name @p leaf of inode @p ino (content @p inode) from @p dir in
  /// remove()'s order: orphan mark, name removal, release.  The mark and the
  /// release happen only when the name is the inode's last.
  void unlink(Ino dir, std::string_view leaf, Ino ino, const Inode& inode);
  /// Add @p delta to the name count of every inode @p entries name.
  void count_names(const DirEntries& entries, int delta);
  /// The one directory-header decoder: zero when never written, else both
  /// slots inside the file and the live list inside one slot (FsError).
  [[nodiscard]] DirHeader dir_header(Ino dir, const Inode& inode) const;
  /// Parse the live entry list; an entry overrunning its slot is FsError.
  [[nodiscard]] DirEntries dir_entries(Ino dir) const;
  /// The DRAM index of @p dir, decoded through dir_entries on first use and
  /// while stale.
  [[nodiscard]] const DirIndex& dir_index(Ino dir);
  /// Make @p entries, indexed by name, the DRAM index of @p dir, and move
  /// the name counts from the entries it replaces to them.
  const DirIndex& cache_dir(Ino dir, DirEntries entries);
  /// Shadow-commit @p entries as the list of @p dir; once the header flip is
  /// durable they become its DRAM index.  After a throw the index holds the
  /// list the media holds, decoded at once, or stays stale when that decode
  /// fails too.
  void dir_write_entries(Ino dir, DirEntries entries);

  /// Raw (uncharged-copy) file data IO used by directory internals; charges
  /// device costs only.
  void data_write(Ino ino, const void* buf, std::size_t len, std::uint64_t off);
  void data_read(Ino ino, void* buf, std::size_t len, std::uint64_t off) const;

  pmem::Device* dev_;
  std::size_t base_;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t inode_count_ = 0;
  std::uint64_t bitmap_off_ = 0;  // device offsets
  std::uint64_t itable_off_ = 0;
  std::uint64_t data_off_ = 0;

  mutable std::unique_ptr<std::recursive_mutex> mu_ =
      std::make_unique<std::recursive_mutex>();
  /// DRAM cache of the block bitmap (write-through to the device).
  std::vector<bool> bitmap_cache_;
  std::uint64_t free_blocks_cache_ = 0;
  /// DRAM inode-allocation map, indexed by inode number - 1.
  std::vector<bool> inode_used_;
  /// DRAM index of every directory decoded since format or mount.
  std::unordered_map<Ino, DirIndex> dirs_;
  /// DRAM name count per inode, indexed by inode number - 1: the entries
  /// naming it across dirs_.  Mount's namespace walk indexes every
  /// reachable directory, so it counts every name.
  std::vector<std::uint32_t> names_;
  /// File ranges written through the POSIX path since the last fsync(),
  /// per inode (DRAM bookkeeping, like the kernel's dirty-page tracking).
  /// fsync() flushes exactly these and pays one fence — previously it
  /// fenced without flushing anything, which left pwrite data volatile
  /// (the persist checker flags such fences as "empty").
  std::unordered_map<Ino, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      dirty_;
};

}  // namespace pmemcpy::fs
