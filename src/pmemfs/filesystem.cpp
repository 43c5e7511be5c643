#include <pmemcpy/fs/filesystem.hpp>

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstring>
#include <limits>

namespace pmemcpy::fs {

namespace {

constexpr std::uint64_t kFsMagic = 0x50464c4954453476ull;  // "PFLITE4v"
constexpr std::uint32_t kFsVersion = 1;
constexpr std::size_t kInodeSize = 256;
constexpr std::size_t kInlineExtents = 12;
constexpr std::size_t kIndirectExtents = 254;
constexpr std::uint32_t kTypeFree = 0;
constexpr std::uint32_t kTypeFile = 1;
constexpr std::uint32_t kTypeDir = 2;
/// Set in an inode's type word, in its head line, before remove() or
/// rename() unlinks it: mount frees an unreachable inode that carries it
/// even when it still holds data.
constexpr std::uint32_t kOrphanMark = 1u << 31;

/// The inode type a type word encodes, without the orphan mark.
constexpr std::uint32_t type_of(std::uint32_t word) {
  return word & ~kOrphanMark;
}

struct Superblock {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t pad;
  std::uint64_t total_blocks;
  std::uint64_t inode_count;
  std::uint64_t bitmap_rel;
  std::uint64_t itable_rel;
  std::uint64_t data_rel;
};

struct Extent {
  std::uint64_t start;  // block index
  std::uint64_t len;    // blocks
};

/// Indirect extent block: lives in one data block.
struct IndirectBlock {
  std::uint64_t next;  // block index of next indirect block, 0 = none
  std::uint64_t count;
  Extent ext[kIndirectExtents];
};
static_assert(sizeof(IndirectBlock) <= kBlockSize);

struct DirEntryHeader {
  std::uint32_t ino;
  std::uint16_t name_len;
};

constexpr std::uint64_t kDirHeaderSize = pmem::kCacheLine;

std::vector<std::string> split_path(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    throw FsError("fs: path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    const std::size_t j = path.find('/', i);
    const std::size_t end = j == std::string::npos ? path.size() : j;
    if (end > i) parts.push_back(path.substr(i, end - i));
    i = end + 1;
  }
  return parts;
}

/// [off, off+len) ends at or before @p limit, without overflow.
constexpr bool ends_by(std::uint64_t off, std::uint64_t len,
                       std::uint64_t limit) {
  return off <= limit && len <= limit - off;
}

/// The one superblock decoder: magic and version, then the regions in
/// layout order (superblock, bitmap, inode table, data) inside the device,
/// all checked before anything is sized from them.
Superblock read_superblock(const pmem::Device& dev, std::size_t base) {
  Superblock sb{};
  dev.read(base, &sb, sizeof(sb));
  if (sb.magic != kFsMagic || sb.version != kFsVersion) {
    throw FsError("fs::mount: not a filesystem image");
  }
  const std::uint64_t room = dev.capacity() - base;
  const bool ok =
      sb.total_blocks > 0 && sb.total_blocks <= room / kBlockSize &&
      sb.inode_count > 0 && sb.inode_count <= room / kInodeSize &&
      sb.inode_count < std::numeric_limits<Ino>::max() &&
      sb.bitmap_rel >= sizeof(Superblock) &&
      ends_by(sb.bitmap_rel, (sb.total_blocks + 7) / 8, sb.itable_rel) &&
      ends_by(sb.itable_rel, sb.inode_count * kInodeSize, sb.data_rel) &&
      ends_by(sb.data_rel, sb.total_blocks * kBlockSize, room);
  if (!ok) throw FsError("fs::mount: superblock regions outside the device");
  return sb;
}

/// The one run clipper: fn(device offset, offset into the range, bytes) for
/// each part of @p runs (Mapping::Run, sorted by file offset) that overlaps
/// file range [off, off+len).
template <typename Runs, typename Fn>
void clip_runs(const Runs& runs, std::uint64_t off, std::uint64_t len,
               Fn&& fn) {
  for (const auto& r : runs) {
    const std::uint64_t lo = std::max(r.file_off, off);
    const std::uint64_t hi = std::min(r.file_off + r.len, off + len);
    if (lo < hi) fn(r.dev_off + (lo - r.file_off), lo - off, hi - lo);
  }
}

/// Flush the device lines behind file range [off, off+len) of @p runs in
/// one CLWB pass, then fence once if anything was flushed.
template <typename Runs>
void persist_runs(pmem::Device& dev, const Runs& runs, std::uint64_t off,
                  std::uint64_t len) {
  bool flushed = false;
  clip_runs(runs, off, len,
            [&](std::uint64_t dev_off, std::uint64_t, std::uint64_t n) {
              dev.flush(dev_off, n);
              flushed = true;
            });
  if (flushed) dev.drain();
}

/// Device offset of file range [off, off+len) when one of @p runs holds all
/// of it; FsError otherwise (the zero-copy spans need one contiguous run).
template <typename Runs>
std::uint64_t contiguous_dev_off(const Runs& runs, std::uint64_t off,
                                 std::uint64_t len) {
  for (const auto& r : runs) {
    if (off >= r.file_off && off + len <= r.file_off + r.len) {
      return r.dev_off + (off - r.file_off);
    }
  }
  throw FsError("fs: range not physically contiguous");
}

}  // namespace

/// Directory files are shadow-committed (see dir_write_entries): the first
/// cacheline of the file is this header, and the entry records live in one
/// of two slots behind it.  Rewrites fill the inactive slot, make it
/// durable, then flip the header — a single-line store the crash model
/// treats as atomic — so a torn crash always parses either the old or the
/// new entry list, never a byte-mix of both.
struct FileSystem::DirHeader {
  std::uint64_t seq;          // bumped on every committed rewrite
  std::uint64_t content_off;  // file offset of the live entry records
  std::uint64_t content_len;  // bytes of live entry records
  std::uint64_t cap;          // per-slot capacity, 64-byte aligned
};

struct FileSystem::Inode {
  std::uint32_t type;
  std::uint32_t nextents;
  std::uint64_t size;
  Extent ext[kInlineExtents];
  std::uint64_t indirect;  // block index, 0 = none
  std::uint64_t reserved[3];
};
FileSystem::FileSystem(pmem::Device& dev, std::size_t base)
    : dev_(&dev), base_(base) {}

FileSystem FileSystem::format(pmem::Device& dev, std::size_t base,
                              std::size_t size) {
  if (base + size > dev.capacity()) {
    throw FsError("fs::format: region exceeds device capacity");
  }
  FileSystem fs(dev, base);
  // One inode per 64 KiB keeps file-per-variable layouts viable (the inode
  // table costs 0.4% of the filesystem).
  const std::uint64_t inode_count =
      std::clamp<std::uint64_t>(size / (64 << 10), 1024, 262144);
  const std::uint64_t itable_bytes = inode_count * kInodeSize;
  // Solve for block count given that the bitmap also consumes space.
  const std::uint64_t fixed = kBlockSize /*superblock*/ + itable_bytes;
  if (size < fixed + 64 * kBlockSize) throw FsError("fs::format: too small");
  std::uint64_t blocks = (size - fixed) / kBlockSize;
  while (fixed + (blocks + 7) / 8 + blocks * kBlockSize > size) --blocks;

  fs.total_blocks_ = blocks;
  fs.inode_count_ = inode_count;
  fs.bitmap_off_ = base + kBlockSize;
  // Line-aligned so every inode's head line is one atomic persist
  // (write_inode's commit ordering depends on it).
  fs.itable_off_ = (fs.bitmap_off_ + (blocks + 7) / 8 + pmem::kCacheLine - 1) /
                   pmem::kCacheLine * pmem::kCacheLine;
  fs.data_off_ = (fs.itable_off_ + itable_bytes + kBlockSize - 1) / kBlockSize *
                 kBlockSize;
  // data_off_ must leave room for all blocks.
  while (fs.data_off_ + blocks * kBlockSize > base + size) --blocks;
  fs.total_blocks_ = blocks;

  // Zero the bitmap and inode-type bytes.
  {
    std::vector<std::byte> zeros(64 * 1024, std::byte{0});
    std::uint64_t left = (blocks + 7) / 8;
    std::uint64_t at = fs.bitmap_off_;
    while (left > 0) {
      const std::uint64_t n = std::min<std::uint64_t>(left, zeros.size());
      dev.write(at, zeros.data(), n);
      at += n;
      left -= n;
    }
    Inode empty{};
    for (std::uint64_t i = 0; i < inode_count; ++i) {
      dev.write(fs.itable_off_ + i * kInodeSize, &empty, sizeof(empty));
    }
    // End the persist at the last written inode byte, not the slot-padding
    // tail: the final slot's padding can own a whole untouched cacheline.
    const std::uint64_t written_itable =
        (inode_count - 1) * kInodeSize + sizeof(Inode);
    dev.persist(fs.bitmap_off_, (blocks + 7) / 8 + written_itable);
  }

  fs.bitmap_cache_.assign(blocks, false);
  fs.free_blocks_cache_ = blocks;
  fs.inode_used_.assign(inode_count, false);
  fs.names_.assign(inode_count, 0);

  // Root directory: inode 1.
  Inode root{};
  root.type = kTypeDir;
  fs.write_inode(1, root);
  fs.inode_used_[0] = true;

  Superblock sb{};
  sb.magic = kFsMagic;
  sb.version = kFsVersion;
  sb.total_blocks = blocks;
  sb.inode_count = inode_count;
  sb.bitmap_rel = fs.bitmap_off_ - base;
  sb.itable_rel = fs.itable_off_ - base;
  sb.data_rel = fs.data_off_ - base;
  dev.write(base, &sb, sizeof(sb));
  dev.persist(base, sizeof(sb));
  return fs;
}

FileSystem FileSystem::mount(pmem::Device& dev, std::size_t base) {
  const Superblock sb = read_superblock(dev, base);
  FileSystem fs(dev, base);
  fs.total_blocks_ = sb.total_blocks;
  fs.inode_count_ = sb.inode_count;
  fs.bitmap_off_ = base + sb.bitmap_rel;
  fs.itable_off_ = base + sb.itable_rel;
  fs.data_off_ = base + sb.data_rel;
  // Rebuild the DRAM bitmap cache.
  fs.bitmap_cache_.assign(sb.total_blocks, false);
  fs.free_blocks_cache_ = 0;
  std::vector<std::uint8_t> raw((sb.total_blocks + 7) / 8);
  dev.read(fs.bitmap_off_, raw.data(), raw.size());
  for (std::uint64_t b = 0; b < sb.total_blocks; ++b) {
    const bool used = (raw[b / 8] >> (b % 8)) & 1;
    fs.bitmap_cache_[b] = used;
    if (!used) ++fs.free_blocks_cache_;
  }
  // Build the DRAM inode map through the inode decoder.
  fs.inode_used_.assign(sb.inode_count, false);
  for (Ino i = 1; i <= sb.inode_count; ++i) {
    fs.inode_used_[i - 1] = fs.read_inode(i).type != kTypeFree;
  }
  fs.names_.assign(sb.inode_count, 0);
  fs.reclaim();
  return fs;
}

void FileSystem::reclaim() {
  // Reachability, through the directory decoder (which fills each index).
  std::vector<bool> reached(inode_count_, false);
  std::vector<Ino> marked;  // reachable, yet carrying a stale orphan mark
  std::vector<Ino> pending{1};  // reached directories not yet walked
  reached[0] = true;
  try {
    while (!pending.empty()) {
      const Ino dir = pending.back();
      pending.pop_back();
      for (const auto& [name, ino] : dir_index(dir).entries) {
        const Inode inode = read_inode(ino);
        if (reached[ino - 1]) continue;
        reached[ino - 1] = true;
        if ((inode.type & kOrphanMark) != 0) marked.push_back(ino);
        if (type_of(inode.type) == kTypeDir) pending.push_back(ino);
      }
    }
  } catch (const FsError&) {
    return;  // a directory that does not decode hides what it names
  }
  // The blocks every allocated inode lists, decoded before anything is
  // freed.
  std::vector<bool> owned(total_blocks_, false);
  try {
    for (Ino i = 1; i <= inode_count_; ++i) {
      if (!inode_used_[i - 1]) continue;
      for_each_extent(read_inode(i), [&](const Extent& e, bool) {
        std::fill_n(owned.begin() + static_cast<std::ptrdiff_t>(e.start),
                    e.len, true);
        return true;
      });
    }
  } catch (const FsError&) {
    return;  // an extent list that does not decode: keep everything
  }
  // A crashed create leaves an unnamed inode that holds no data, a crashed
  // remove() or rename() an unnamed one with the orphan mark.  An unnamed
  // inode with data and no mark is damage (a directory whose type word
  // changed hides a subtree of them): it stays.
  for (Ino i = 1; i <= inode_count_; ++i) {
    if (!inode_used_[i - 1] || reached[i - 1]) continue;
    const Inode inode = read_inode(i);
    const bool dataless =
        inode.size == 0 && inode.nextents == 0 && inode.indirect == 0;
    if (dataless || (inode.type & kOrphanMark) != 0) release(i);
  }
  for (const Ino i : marked) {
    Inode inode = read_inode(i);
    inode.type &= ~kOrphanMark;
    write_inode(i, inode);
  }
  // A crash between a bitmap write and the inode write that lists (or
  // unlists) its blocks leaves them used with no owner: free those.
  for (std::uint64_t b = 0; b < total_blocks_;) {
    std::uint64_t e = b;
    while (e < total_blocks_ && bitmap_cache_[e] && !owned[e]) ++e;
    if (e > b) mark_blocks(b, e - b, false);
    b = e + 1;
  }
}

// ---------------------------------------------------------------------------
// Inodes and blocks
// ---------------------------------------------------------------------------

FileSystem::Inode FileSystem::read_inode(Ino ino) const {
  if (ino == 0 || ino > inode_count_) throw FsError("fs: bad inode");
  Inode inode{};
  dev_->read(itable_off_ + (ino - 1) * kInodeSize, &inode, sizeof(inode));
  return inode;
}

void FileSystem::write_inode(Ino ino, const Inode& inode) {
  if (ino == 0 || ino > inode_count_) throw FsError("fs: bad inode");
  const std::uint64_t off = itable_off_ + (ino - 1) * kInodeSize;
  // The head line (type, nextents, size, first three extents) is the commit
  // record for the rest of the inode: when the tail (later extents, the
  // indirect pointer) changed, it must be durable BEFORE the head publishes
  // a count that references it, or a torn crash can commit a head whose
  // extra extents revert to garbage.  The head itself is one cacheline
  // (itable_off_ is line-aligned), so its persist is atomic under the crash
  // model.  Skipping an unchanged tail keeps the common single-line inode
  // update at one flush + one fence.
  constexpr std::size_t kHead = pmem::kCacheLine;
  static_assert(sizeof(Inode) > kHead);
  Inode cur{};
  dev_->read(off, &cur, sizeof(cur));
  if (std::memcmp(reinterpret_cast<const std::byte*>(&cur) + kHead,
                  reinterpret_cast<const std::byte*>(&inode) + kHead,
                  sizeof(Inode) - kHead) != 0) {
    dev_->write(off + kHead,
                reinterpret_cast<const std::byte*>(&inode) + kHead,
                sizeof(Inode) - kHead);
    dev_->persist(off + kHead, sizeof(Inode) - kHead);
  }
  dev_->write(off, &inode, kHead);
  dev_->persist(off, kHead);
}

Ino FileSystem::alloc_inode(std::uint32_t type) {
  const auto it = std::find(inode_used_.begin(), inode_used_.end(), false);
  if (it == inode_used_.end()) throw FsError("fs: out of inodes");
  const Ino ino = static_cast<Ino>(it - inode_used_.begin()) + 1;
  Inode inode{};
  inode.type = type;
  write_inode(ino, inode);
  *it = true;
  return ino;
}

void FileSystem::free_inode(Ino ino) {
  // No name reaches the inode and it holds no data, so it is free from
  // here on even if the write below faults: its media copy is then a
  // dataless orphan, which alloc_inode overwrites whole and a mount frees.
  inode_used_[ino - 1] = false;
  if (const auto it = dirs_.find(ino); it != dirs_.end()) {
    count_names(it->second.entries, -1);
    dirs_.erase(it);
  }
  dirty_.erase(ino);  // a reused inode must not inherit stale dirty spans
  write_inode(ino, Inode{});
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> FileSystem::alloc_blocks(
    std::uint64_t nblocks) {
  if (nblocks > free_blocks_cache_) throw FsError("fs: out of space");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  std::uint64_t need = nblocks;
  std::uint64_t b = 0;
  while (need > 0 && b < total_blocks_) {
    while (b < total_blocks_ && bitmap_cache_[b]) ++b;
    if (b >= total_blocks_) break;
    std::uint64_t e = b;
    while (e < total_blocks_ && !bitmap_cache_[e] && (e - b) < need) ++e;
    runs.emplace_back(b, e - b);
    need -= e - b;
    b = e;
  }
  if (need > 0) throw FsError("fs: out of space (fragmented)");
  for (const auto& [start, n] : runs) mark_blocks(start, n, true);
  return runs;
}

void FileSystem::mark_blocks(std::uint64_t start, std::uint64_t n,
                             bool used) {
  const std::uint64_t first_byte = start / 8;
  const std::uint64_t last_byte = (start + n - 1) / 8;
  std::vector<std::uint8_t> bytes(last_byte - first_byte + 1, 0);
  for (std::uint64_t by = first_byte; by <= last_byte; ++by) {
    std::uint8_t v = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const std::uint64_t blk = by * 8 + static_cast<std::uint64_t>(bit);
      const bool set = blk >= start && blk < start + n
                           ? used
                           : blk < total_blocks_ && bitmap_cache_[blk];
      if (set) v |= static_cast<std::uint8_t>(1u << bit);
    }
    bytes[by - first_byte] = v;
  }
  dev_->write(bitmap_off_ + first_byte, bytes.data(), bytes.size());
  dev_->persist(bitmap_off_ + first_byte, bytes.size());
  // The DRAM copy follows only once the bitmap bytes are durable.
  for (std::uint64_t i = start; i < start + n; ++i) bitmap_cache_[i] = used;
  free_blocks_cache_ = used ? free_blocks_cache_ - n : free_blocks_cache_ + n;
}

template <typename Fn>
void FileSystem::walk_indirect(std::uint64_t blk, Fn&& fn) const {
  for (std::uint64_t hops = 0; blk != 0; ++hops) {
    if (hops >= total_blocks_) {
      throw FsError("fs: indirect extent chain cycle");
    }
    if (blk >= total_blocks_) {
      throw FsError("fs: indirect block outside the data region");
    }
    IndirectBlock ib{};
    dev_->read(data_off_ + blk * kBlockSize, &ib, sizeof(ib));
    if (ib.count > kIndirectExtents) {
      throw FsError("fs: indirect block extent count corrupt");
    }
    if (!fn(blk, ib)) return;
    blk = ib.next;
  }
}

void FileSystem::append_extent(Inode& inode, Ino /*ino*/, std::uint64_t start,
                               std::uint64_t n) {
  if (inode.nextents < kInlineExtents) {
    // Merge with the previous inline extent when adjacent.
    if (inode.nextents > 0) {
      auto& last = inode.ext[inode.nextents - 1];
      if (last.start + last.len == start) {
        last.len += n;
        return;
      }
    }
    inode.ext[inode.nextents++] = Extent{start, n};
    return;
  }
  // Walk (or grow) the indirect chain.
  if (inode.indirect == 0) {
    inode.indirect = alloc_blocks(1)[0].first;
    const IndirectBlock ib{};
    dev_->write(data_off_ + inode.indirect * kBlockSize, &ib, sizeof(ib));
    dev_->persist(data_off_ + inode.indirect * kBlockSize, sizeof(ib));
  }
  walk_indirect(inode.indirect, [&](std::uint64_t blk, IndirectBlock& ib) {
    const std::uint64_t at = data_off_ + blk * kBlockSize;
    if (ib.count > 0 && ib.next == 0) {
      auto& last = ib.ext[ib.count - 1];
      if (last.start + last.len == start) {
        last.len += n;
        dev_->write(at, &ib, sizeof(ib));
        dev_->persist(at, sizeof(ib));
        return false;
      }
    }
    if (ib.count < kIndirectExtents) {
      ib.ext[ib.count++] = Extent{start, n};
      dev_->write(at, &ib, sizeof(ib));
      dev_->persist(at, sizeof(ib));
      return false;
    }
    if (ib.next == 0) {
      ib.next = alloc_blocks(1)[0].first;
      dev_->write(at, &ib, sizeof(ib));
      dev_->persist(at, sizeof(ib));
      const IndirectBlock fresh{};
      dev_->write(data_off_ + ib.next * kBlockSize, &fresh, sizeof(fresh));
      dev_->persist(data_off_ + ib.next * kBlockSize, sizeof(fresh));
    }
    return true;
  });
}

template <typename Fn>
void FileSystem::for_each_extent(const Inode& inode, Fn&& fn) const {
  if (inode.nextents > kInlineExtents) {
    throw FsError("fs: inode extent count corrupt");
  }
  const auto data = [&](const Extent& e) {
    if (e.start > total_blocks_ || e.len > total_blocks_ - e.start) {
      throw FsError("fs: extent outside the data region");
    }
    return fn(e, true);
  };
  for (std::uint32_t i = 0; i < inode.nextents; ++i) {
    if (!data(inode.ext[i])) return;
  }
  walk_indirect(inode.indirect, [&](std::uint64_t blk, IndirectBlock& ib) {
    for (std::uint64_t i = 0; i < ib.count; ++i) {
      if (!data(ib.ext[i])) return false;
    }
    return fn(Extent{blk, 1}, false);
  });
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
FileSystem::detach_extents(Inode& inode) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  for_each_extent(inode, [&](const Extent& e, bool) {
    runs.emplace_back(e.start, e.len);
    return true;
  });
  inode.nextents = 0;
  inode.indirect = 0;
  inode.size = 0;
  return runs;
}

void FileSystem::free_runs(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& runs) {
  for (const auto& [start, n] : runs) mark_blocks(start, n, false);
}

void FileSystem::drop_extents(Inode& inode, Ino ino) {
  // Crash-ordering: the detached inode must be durable BEFORE its old
  // blocks return to the allocator.  Freeing first leaves a window where a
  // crash preserves a live inode whose extents another file can re-allocate
  // (cross-linking); this order can only leak blocks.
  const auto runs = detach_extents(inode);
  write_inode(ino, inode);
  free_runs(runs);
}

void FileSystem::ensure_capacity(Ino ino, std::uint64_t size) {
  Inode inode = read_inode(ino);
  std::uint64_t have = 0;
  for_each_extent(inode, [&](const Extent& e, bool data) {
    if (data) have += e.len;
    return true;
  });
  const std::uint64_t need = (size + kBlockSize - 1) / kBlockSize;
  if (need > have) {
    for (const auto& [start, n] : alloc_blocks(need - have)) {
      append_extent(inode, ino, start, n);
    }
  }
  if (size > inode.size) inode.size = size;
  write_inode(ino, inode);
}

std::vector<Mapping::Run> FileSystem::gather_runs(Ino ino,
                                                  std::uint64_t size) const {
  std::vector<Mapping::Run> runs;
  const Inode inode = read_inode(ino);
  if (size == 0) return runs;
  std::uint64_t file_off = 0;
  for_each_extent(inode, [&](const Extent& e, bool data) {
    if (data) {
      const std::uint64_t len = std::min(e.len * kBlockSize, size - file_off);
      runs.push_back(
          Mapping::Run{file_off, data_off_ + e.start * kBlockSize, len});
      file_off += e.len * kBlockSize;
    }
    return file_off < size;
  });
  return runs;
}

// ---------------------------------------------------------------------------
// Raw data IO (device charges only; callers add syscall/copy charges)
// ---------------------------------------------------------------------------

void FileSystem::data_write(Ino ino, const void* buf, std::size_t len,
                            std::uint64_t off) {
  const auto* src = static_cast<const std::byte*>(buf);
  clip_runs(gather_runs(ino, off + len), off, len,
            [&](std::uint64_t dev_off, std::uint64_t at, std::uint64_t n) {
              dev_->write(dev_off, src + at, n);
            });
  if (len == 0) return;
  // Remember the dirty span so fsync() can flush exactly what changed.
  // data_write itself runs unlocked (pwrite parallelizes the data copy), so
  // the bookkeeping takes the fs lock (recursive: callers may hold it).
  std::lock_guard lk(*mu_);
  auto& d = dirty_[ino];
  if (!d.empty() && off <= d.back().first + d.back().second &&
      off + len >= d.back().first) {
    // Coalesce with the previous span (sequential writes are the norm).
    const std::uint64_t lo = std::min(d.back().first, off);
    const std::uint64_t hi =
        std::max(d.back().first + d.back().second, off + len);
    d.back() = {lo, hi - lo};
  } else {
    d.emplace_back(off, len);
  }
}

void FileSystem::data_read(Ino ino, void* buf, std::size_t len,
                           std::uint64_t off) const {
  auto* dst = static_cast<std::byte*>(buf);
  clip_runs(gather_runs(ino, off + len), off, len,
            [&](std::uint64_t dev_off, std::uint64_t at, std::uint64_t n) {
              dev_->read(dev_off, dst + at, n);
            });
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

FileSystem::DirHeader FileSystem::dir_header(Ino dir,
                                             const Inode& inode) const {
  static_assert(sizeof(DirHeader) <= kDirHeaderSize);
  DirHeader dh{};
  if (inode.size == 0) return dh;  // never written: empty
  data_read(dir, &dh, sizeof(dh), 0);
  // Two slots of cap bytes sit behind the header line, inside the file and
  // the file inside the data region; the live list fills a prefix of one
  // slot.  An empty list reads nothing, so it needs no slot (a header that
  // was never committed reads as all zero).
  const std::uint64_t file =
      std::min(inode.size, total_blocks_ * kBlockSize);
  const bool slots_ok = file >= kDirHeaderSize &&
                        dh.cap % pmem::kCacheLine == 0 &&
                        dh.cap <= (file - kDirHeaderSize) / 2;
  const bool live_ok =
      dh.content_len == 0 ||
      (dh.content_len <= dh.cap && (dh.content_off == kDirHeaderSize ||
                                    dh.content_off == kDirHeaderSize + dh.cap));
  if (!slots_ok || !live_ok) throw FsError("fs: directory header corrupt");
  return dh;
}

FileSystem::DirEntries FileSystem::dir_entries(Ino dir) const {
  const Inode inode = read_inode(dir);
  if (type_of(inode.type) != kTypeDir) throw FsError("fs: not a directory");
  const DirHeader dh = dir_header(dir, inode);
  std::vector<std::byte> raw(dh.content_len);
  if (!raw.empty()) data_read(dir, raw.data(), raw.size(), dh.content_off);
  DirEntries out;
  for (std::size_t pos = 0; pos < raw.size();) {
    DirEntryHeader h{};
    if (raw.size() - pos < sizeof(h)) {
      throw FsError("fs: directory entry overruns its slot");
    }
    std::memcpy(&h, raw.data() + pos, sizeof(h));
    pos += sizeof(h);
    if (h.name_len > raw.size() - pos) {
      throw FsError("fs: directory entry overruns its slot");
    }
    out.emplace_back(
        std::string(reinterpret_cast<const char*>(raw.data() + pos),
                    h.name_len),
        h.ino);
    pos += h.name_len;
  }
  return out;
}

const FileSystem::DirIndex& FileSystem::dir_index(Ino dir) {
  if (const auto it = dirs_.find(dir); it != dirs_.end() && !it->second.stale) {
    return it->second;
  }
  return cache_dir(dir, dir_entries(dir));
}

const FileSystem::DirIndex& FileSystem::cache_dir(Ino dir,
                                                  DirEntries entries) {
  DirIndex& idx = dirs_[dir];
  count_names(idx.entries, -1);
  count_names(entries, 1);
  idx.by_name.clear();
  for (const auto& [name, ino] : entries) idx.by_name.emplace(name, ino);
  idx.entries = std::move(entries);
  idx.stale = false;
  return idx;
}

void FileSystem::count_names(const DirEntries& entries, int delta) {
  for (const auto& [name, ino] : entries) {
    // An out-of-range number (damage) names no inode; Ino 0 wraps past it.
    if (ino - 1u < names_.size()) names_[ino - 1] += delta;
  }
}

/// Flush the device lines backing file range [off, off+len) and fence.
void FileSystem::persist_file_range(Ino ino, std::uint64_t off,
                                    std::uint64_t len) {
  persist_runs(*dev_, gather_runs(ino, off + len), off, len);
}

void FileSystem::dir_write_entries(Ino dir, DirEntries entries) {
  std::vector<std::byte> raw;
  for (const auto& [name, ino] : entries) {
    DirEntryHeader h{ino, static_cast<std::uint16_t>(name.size())};
    const std::size_t pos = raw.size();
    raw.resize(pos + sizeof(h) + name.size());
    std::memcpy(raw.data() + pos, &h, sizeof(h));
    std::memcpy(raw.data() + pos + sizeof(h), name.data(), name.size());
  }
  // Namespace ops are durable at syscall return AND crash-atomic
  // (metadata-journaling semantics).  An in-place rewrite can never be both:
  // a crash mid-flush tears the entry bytes into a parse-corrupting mix of
  // the old and new lists (the property fuzzer found exactly that — a
  // half-stitched name swallowing its neighbour's record).  So directories
  // are shadow-committed: write the new list into the slot the live header
  // does NOT point at, fence it, then flip the single-line header.  Every
  // crash point parses either the whole old list or the whole new one.
  // The DRAM index turns stale until the new list commits.  A throw below
  // can leave either list on media (a faulted header flush keeps the new
  // one), so the index is decoded again at once: no release may count names
  // from the list the rewrite replaced.  If that decode fails too, the
  // index stays stale and the next use decodes whatever the media holds.
  if (const auto it = dirs_.find(dir); it != dirs_.end()) {
    it->second.stale = true;
  }
  try {
    const DirHeader dh = dir_header(dir, read_inode(dir));
    std::uint64_t new_cap = dh.cap;
    std::uint64_t new_off;
    if (raw.size() > dh.cap) {
      // Grow: place the new slot beyond every byte the old header can reach
      // ([kDirHeaderSize, kDirHeaderSize + 2*cap)), so the live list is
      // never overwritten before the flip.
      new_cap = std::max<std::uint64_t>(
          {2 * dh.cap,
           (raw.size() + pmem::kCacheLine - 1) / pmem::kCacheLine *
               pmem::kCacheLine,
           kDirHeaderSize});
      new_off = kDirHeaderSize + new_cap;
    } else {
      new_off = dh.content_off == kDirHeaderSize ? kDirHeaderSize + new_cap
                                                 : kDirHeaderSize;
    }
    ensure_capacity(dir, kDirHeaderSize + 2 * new_cap);
    if (!raw.empty()) {
      data_write(dir, raw.data(), raw.size(), new_off);
      persist_file_range(dir, new_off, raw.size());
    }
    const DirHeader next{dh.seq + 1, new_off, raw.size(), new_cap};
    data_write(dir, &next, sizeof(next), 0);
    persist_file_range(dir, 0, kDirHeaderSize);  // single-line commit
  } catch (...) {
    try {
      (void)dir_index(dir);
    } catch (...) {
      // The list does not decode or its media fails: it stays stale.
    }
    throw;
  }
  dirty_.erase(dir);
  cache_dir(dir, std::move(entries));
}

Ino FileSystem::dir_lookup(Ino dir, const std::string& name) {
  const auto& by_name = dir_index(dir).by_name;
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second;
}

Ino FileSystem::create(Ino dir, const std::string& name, std::uint32_t type) {
  if (name.empty() || name.size() > 255) throw FsError("fs: bad name");
  const DirIndex& idx = dir_index(dir);
  if (idx.by_name.count(name) != 0) throw FsError("fs: name exists: " + name);
  auto entries = idx.entries;
  const Ino ino = alloc_inode(type);
  entries.emplace_back(name, ino);
  try {
    dir_write_entries(dir, std::move(entries));
  } catch (...) {
    // The rewrite faulted, and a faulted header flush can leave the new
    // list on media.  Unless it did, no name reaches the inode and it holds
    // no data: free in DRAM, as a mount frees it and alloc_inode overwrites
    // it whole.
    bool named = true;
    try {
      named = dir_lookup(dir, name) == ino;
    } catch (...) {
      // The directory no longer decodes: keep the inode used.
    }
    if (!named) inode_used_[ino - 1] = false;
    throw;
  }
  return ino;
}

void FileSystem::mark_orphan(Ino ino, Inode inode) {
  inode.type |= kOrphanMark;
  write_inode(ino, inode);
}

void FileSystem::release(Ino ino) {
  Inode inode = read_inode(ino);
  drop_extents(inode, ino);
  free_inode(ino);
}

void FileSystem::unlink(Ino dir, std::string_view leaf, Ino ino,
                        const Inode& inode) {
  const bool last = names_[ino - 1] == 1;
  if (last) mark_orphan(ino, inode);
  dir_remove(dir, leaf);
  if (last) release(ino);
}

void FileSystem::dir_remove(Ino dir, std::string_view name) {
  auto entries = dir_index(dir).entries;
  const auto it =
      std::find_if(entries.begin(), entries.end(),
                   [&](const auto& e) { return e.first == name; });
  if (it == entries.end()) throw FsError("fs: no such entry");
  entries.erase(it);
  dir_write_entries(dir, std::move(entries));
}

Ino FileSystem::resolve(const std::string& path, bool want_parent,
                        std::string* leaf) {
  const auto parts = split_path(path);
  if (want_parent) {
    if (parts.empty()) throw FsError("fs: no parent of /");
    if (leaf != nullptr) *leaf = parts.back();
  }
  Ino cur = 1;
  const std::size_t stop = want_parent ? parts.size() - 1 : parts.size();
  for (std::size_t i = 0; i < stop; ++i) {
    const Ino next = dir_lookup(cur, parts[i]);
    if (next == 0) return 0;
    cur = next;
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Public namespace ops
// ---------------------------------------------------------------------------

void FileSystem::mkdir(const std::string& path) {
  trace::Span span("fs.create");
  std::lock_guard lk(*mu_);
  std::string leaf;
  const Ino parent = resolve(path, /*want_parent=*/true, &leaf);
  if (parent == 0) throw FsError("fs: no such directory: " + path);
  (void)create(parent, leaf, kTypeDir);
}

void FileSystem::mkdirs(const std::string& path) {
  trace::Span span("fs.create");
  std::lock_guard lk(*mu_);
  const auto parts = split_path(path);
  Ino cur = 1;
  for (const auto& p : parts) {
    Ino next = dir_lookup(cur, p);
    if (next == 0) next = create(cur, p, kTypeDir);
    cur = next;
  }
}

bool FileSystem::exists(const std::string& path) {
  trace::Span span("fs.lookup");
  std::lock_guard lk(*mu_);
  return resolve(path, false, nullptr) != 0;
}

bool FileSystem::is_dir(const std::string& path) {
  trace::Span span("fs.lookup");
  std::lock_guard lk(*mu_);
  const Ino ino = resolve(path, false, nullptr);
  return ino != 0 && type_of(read_inode(ino).type) == kTypeDir;
}

void FileSystem::remove(const std::string& path) {
  trace::Span span("fs.remove");
  std::lock_guard lk(*mu_);
  std::string leaf;
  const Ino parent = resolve(path, true, &leaf);
  if (parent == 0) throw FsError("fs: no such path: " + path);
  const Ino ino = dir_lookup(parent, leaf);
  if (ino == 0) throw FsError("fs: no such path: " + path);
  const Inode inode = read_inode(ino);
  if (type_of(inode.type) == kTypeDir && inode.size != 0 &&
      !dir_index(ino).entries.empty()) {
    throw FsError("fs: directory not empty: " + path);
  }
  // Soft-updates ordering: the name removal must be durable BEFORE the inode
  // or its blocks are freed.  The reverse order has a crash window where the
  // directory still names a zeroed inode — a dangling entry that reads as a
  // zero-length file after remount.  This order can at worst strand an
  // unnamed inode and its blocks, which the orphan mark lets mount free.
  unlink(parent, leaf, ino, inode);
}

bool FileSystem::rename(const std::string& from, const std::string& to,
                        bool replace) {
  trace::Span span("fs.rename");
  std::lock_guard lk(*mu_);
  sim::ctx().charge_syscall();
  std::string from_leaf, to_leaf;
  const Ino from_parent = resolve(from, true, &from_leaf);
  const Ino to_parent = resolve(to, true, &to_leaf);
  if (from_parent == 0 || to_parent == 0) {
    throw FsError("fs: rename: no such directory");
  }
  const Ino ino = dir_lookup(from_parent, from_leaf);
  if (ino == 0) throw FsError("fs: rename: no such file: " + from);
  if (from_parent == to_parent && from_leaf == to_leaf) return true;
  const Ino victim = dir_lookup(to_parent, to_leaf);
  bool victim_last = false;
  if (victim != 0) {
    const Inode vi = read_inode(victim);
    if (victim == ino) {
      // Both names already reach the inode (a crashed cross-directory
      // rename): only the source name goes.
      dir_remove(from_parent, from_leaf);
      return true;
    }
    if (type_of(vi.type) != kTypeFile) {
      throw FsError("fs: rename over a directory");
    }
    if (!replace) {
      // Target wins: discard the source instead, in remove()'s order (mark,
      // name removal, free): freeing the source inode while the directory
      // still names it would leave a dangling entry behind a crash.
      unlink(from_parent, from_leaf, ino, read_inode(ino));
      return false;
    }
    // The replaced inode goes with its last name; another one keeps it.
    victim_last = names_[victim - 1] == 1;
    if (victim_last) mark_orphan(victim, vi);
  }
  // Namespace update before any resource free, and — for the same-directory
  // case (the tree engine's publish rename) — as ONE entry-list rewrite:
  // dropping the source name and repointing the target name in separate
  // directory updates would open a crash window where the target is missing
  // entirely (neither the old nor the new value survives) or still names the
  // about-to-be-freed victim inode.
  if (from_parent == to_parent) {
    DirEntries next;
    bool have_to = false;
    for (const auto& e : dir_index(from_parent).entries) {
      if (e.first == from_leaf) continue;  // old name dropped
      next.push_back(e);
      if (e.first == to_leaf) {
        next.back().second = ino;
        have_to = true;
      }
    }
    if (!have_to) next.emplace_back(to_leaf, ino);
    dir_write_entries(from_parent, std::move(next));
  } else {
    // Cross-directory: publish the new name first, then retire the old one.
    // A crash between the two leaves both names on the inode, and the name
    // count keeps it until the last of them goes.
    auto tentries = dir_index(to_parent).entries;
    bool have_to = false;
    for (auto& e : tentries) {
      if (e.first == to_leaf) {
        e.second = ino;
        have_to = true;
      }
    }
    if (!have_to) tentries.emplace_back(to_leaf, ino);
    dir_write_entries(to_parent, std::move(tentries));
    dir_remove(from_parent, from_leaf);
  }
  // Only now, with no name pointing at it, free the replaced inode.  A crash
  // here strands it, orphan-marked, for mount to free.
  if (victim_last) release(victim);
  return true;
}

std::vector<std::string> FileSystem::list(const std::string& path) {
  trace::Span span("fs.lookup");
  std::lock_guard lk(*mu_);
  const Ino ino = resolve(path, false, nullptr);
  if (ino == 0) throw FsError("fs: no such directory: " + path);
  std::vector<std::string> names;
  for (const auto& [n, i] : dir_index(ino).entries) names.push_back(n);
  return names;
}

// ---------------------------------------------------------------------------
// POSIX-style file IO
// ---------------------------------------------------------------------------

File FileSystem::open(const std::string& path, OpenMode mode) {
  trace::Span span(mode == OpenMode::kRead ? "fs.lookup" : "fs.create");
  std::lock_guard lk(*mu_);
  sim::ctx().charge_syscall();
  std::string leaf;
  const Ino parent = resolve(path, true, &leaf);
  if (parent == 0) throw FsError("fs: no such directory for: " + path);
  Ino ino = dir_lookup(parent, leaf);
  if (ino == 0) {
    if (mode == OpenMode::kRead) throw FsError("fs: no such file: " + path);
    ino = create(parent, leaf, kTypeFile);
  } else if (mode == OpenMode::kTruncate) {
    Inode inode = read_inode(ino);
    if (type_of(inode.type) != kTypeFile) {
      throw FsError("fs: not a file: " + path);
    }
    drop_extents(inode, ino);
    write_inode(ino, inode);
  }
  return File(this, ino);
}

std::size_t FileSystem::pwrite(File f, const void* buf, std::size_t len,
                               std::uint64_t off) {
  if (!f.valid()) throw FsError("fs: invalid file");
  auto& c = sim::ctx();
  c.charge_syscall();
  c.charge_cpu_copy(len);  // user->kernel buffer copy
  {
    std::lock_guard lk(*mu_);
    const Inode inode = read_inode(f.ino_);
    if (off + len > inode.size) ensure_capacity(f.ino_, off + len);
  }
  data_write(f.ino_, buf, len, off);
  return len;
}

std::size_t FileSystem::pread(File f, void* buf, std::size_t len,
                              std::uint64_t off) {
  if (!f.valid()) throw FsError("fs: invalid file");
  auto& c = sim::ctx();
  c.charge_syscall();
  std::uint64_t sz;
  {
    std::lock_guard lk(*mu_);
    sz = read_inode(f.ino_).size;
  }
  if (off >= sz) return 0;
  len = std::min<std::uint64_t>(len, sz - off);
  c.charge_cpu_copy(len);  // kernel->user buffer copy
  data_read(f.ino_, buf, len, off);
  return len;
}

void FileSystem::truncate(File f, std::uint64_t size) {
  if (!f.valid()) throw FsError("fs: invalid file");
  std::lock_guard lk(*mu_);
  sim::ctx().charge_syscall();
  Inode inode = read_inode(f.ino_);
  if (size > inode.size) {
    ensure_capacity(f.ino_, size);
  }
  inode = read_inode(f.ino_);
  inode.size = size;
  write_inode(f.ino_, inode);
}

void FileSystem::fsync(File f) {
  if (!f.valid()) throw FsError("fs: invalid file");
  trace::Span span("fs.fsync");
  std::lock_guard lk(*mu_);
  sim::ctx().charge_syscall();
  // Flush the ranges dirtied through the POSIX path since the last fsync,
  // then pay one fence.  (fsync used to issue a bare fence: with nothing
  // flushed it persisted nothing — the checker's empty-fence lint.)
  const auto it = dirty_.find(f.ino_);
  if (it == dirty_.end() || it->second.empty()) return;
  auto ranges = std::move(it->second);
  dirty_.erase(it);
  std::sort(ranges.begin(), ranges.end());
  // Merge at cacheline granularity so no line is flushed twice per fence
  // (extents are block-aligned, so file and device offsets agree mod 64).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& [roff, rlen] : ranges) {
    const std::uint64_t off = roff / pmem::kCacheLine * pmem::kCacheLine;
    const std::uint64_t end = (roff + rlen + pmem::kCacheLine - 1) /
                              pmem::kCacheLine * pmem::kCacheLine;
    if (!merged.empty() && off <= merged.back().first + merged.back().second) {
      const std::uint64_t hi =
          std::max(merged.back().first + merged.back().second, end);
      merged.back().second = hi - merged.back().first;
    } else {
      merged.emplace_back(off, end - off);
    }
  }
  const std::uint64_t fsize = read_inode(f.ino_).size;
  const auto runs = gather_runs(f.ino_, fsize);
  bool flushed = false;
  for (const auto& [doff, dlen] : merged) {
    const std::uint64_t end = std::min<std::uint64_t>(doff + dlen, fsize);
    if (end <= doff) continue;
    clip_runs(runs, doff, end - doff,
              [&](std::uint64_t dev_off, std::uint64_t, std::uint64_t n) {
                dev_->flush(dev_off, n);
                flushed = true;
              });
  }
  if (flushed) dev_->drain();
}

std::uint64_t FileSystem::size(File f) {
  std::lock_guard lk(*mu_);
  return read_inode(f.ino_).size;
}

std::uint64_t FileSystem::size(const std::string& path) {
  trace::Span span("fs.lookup");
  std::lock_guard lk(*mu_);
  const Ino ino = resolve(path, false, nullptr);
  if (ino == 0) throw FsError("fs: no such path: " + path);
  return read_inode(ino).size;
}

std::uint64_t FileSystem::free_blocks() const {
  std::lock_guard lk(*mu_);
  return free_blocks_cache_;
}

std::uint64_t FileSystem::free_inodes() const {
  std::lock_guard lk(*mu_);
  return static_cast<std::uint64_t>(
      std::count(inode_used_.begin(), inode_used_.end(), false));
}

// ---------------------------------------------------------------------------
// DAX mappings
// ---------------------------------------------------------------------------

Mapping FileSystem::map(File f, bool map_sync) {
  if (!f.valid()) throw FsError("fs: invalid file");
  std::lock_guard lk(*mu_);
  sim::ctx().charge_syscall();  // the mmap() call itself
  Mapping m;
  m.fs_ = this;
  m.size_ = read_inode(f.ino_).size;
  m.map_sync_ = map_sync;
  m.runs_ = gather_runs(f.ino_, m.size_);
  return m;
}

Mapping FileSystem::create_mapped(const std::string& path, std::uint64_t sz,
                                  bool map_sync) {
  File f = open(path, OpenMode::kTruncate);
  truncate(f, sz);
  return map(f, map_sync);
}

template <typename Fn>
void Mapping::for_runs(std::uint64_t off, std::size_t len, Fn&& fn) const {
  if (off + len > size_) throw FsError("fs: mapping access out of range");
  clip_runs(runs_, off, len, fn);
}

void Mapping::store(std::uint64_t off, const void* src, std::size_t len) {
  auto* dev = fs_->dev_;
  for_runs(off, len, [&](std::uint64_t dev_off, std::uint64_t src_off,
                         std::uint64_t n) {
    dev->note_write(dev_off, n);
    std::memcpy(dev->raw(dev_off),
                static_cast<const std::byte*>(src) + src_off, n);
    dev->charge_dax_write(dev_off, n, map_sync_);
  });
}

void Mapping::load(std::uint64_t off, void* dst, std::size_t len) const {
  auto* dev = fs_->dev_;
  for_runs(off, len, [&](std::uint64_t dev_off, std::uint64_t dst_off,
                         std::uint64_t n) {
    std::memcpy(static_cast<std::byte*>(dst) + dst_off, dev->raw(dev_off), n);
    dev->charge_dax_read(n, map_sync_);
  });
}

void Mapping::persist(std::uint64_t off, std::size_t len) {
  // One CLWB pass over every run, one fence — a multi-extent file used to
  // pay a full flush+fence per run.
  if (off + len > size_) throw FsError("fs: mapping access out of range");
  persist_runs(*fs_->dev_, runs_, off, len);
}

void Mapping::check_publish(std::uint64_t off, std::size_t len) {
  auto* dev = fs_->dev_;
  for_runs(off, len, [&](std::uint64_t dev_off, std::uint64_t, std::uint64_t n) {
    dev->check_publish(dev_off, n);
  });
}

void Mapping::charge_load(std::size_t bytes) const {
  fs_->dev_->charge_dax_read(bytes, map_sync_);
}

std::span<std::byte> Mapping::direct_write_span(std::uint64_t off,
                                                std::size_t len) {
  if (off + len > size_) throw FsError("fs: mapping access out of range");
  auto* dev = fs_->dev_;
  if (dev->frozen()) {
    // Powered off: hand out scratch DRAM so the caller's stores vanish,
    // exactly like stores through a dead DIMM mapping (and exactly like
    // Pool::direct_write_span).
    thread_local std::vector<std::byte> scratch;
    scratch.assign(len, std::byte{});
    return {scratch.data(), len};
  }
  const std::uint64_t dev_off = contiguous_dev_off(runs_, off, len);
  dev->note_write(dev_off, len);
  dev->charge_dax_write(dev_off, len, map_sync_);
  return {dev->raw(dev_off), len};
}

std::span<const std::byte> Mapping::direct_read_span(std::uint64_t off,
                                                     std::size_t len) const {
  if (off + len > size_) throw FsError("fs: mapping access out of range");
  auto* dev = fs_->dev_;
  const std::uint64_t dev_off = contiguous_dev_off(runs_, off, len);
  dev->check_media(dev_off, len);
  return {dev->raw(dev_off), len};
}

}  // namespace pmemcpy::fs
