// Damaged-image sweep over the on-media decoders (DESIGN.md §6).
//
// Two base images: a seeded flat-layout region (one pool, one hashtable)
// after puts, overwrites, removes, one table growth and one quarantined
// range; and a pmemfs image holding a file long enough to need an indirect
// extent block, in a directory rewritten many times.  Every decoded field
// is set in turn to its boundary values — 0, 1, the field's limit, the
// limit + 1 and all ones — with chunk headers and the quarantine table
// re-stamped with valid checksums, so the bounds behind the checksums are
// what gets tested.  Each case runs in a forked child under a 60 s
// deadline: it must open the pool and check() it, open the hashtable and
// walk it (for_each and a find of every seeded key), or mount the
// filesystem and list() and map() it (or rename or link over the damaged
// entry), cleanly or with a typed PoolError/FsError — never a hang, a
// crash or a sanitizer report.  A directory entry damaged to name another
// file's inode must not let dropping either name free the inode the other
// still names.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/pmemcpy.hpp>

#include "deadline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace {

using pmemcpy::fs::File;
using pmemcpy::fs::FileSystem;
using pmemcpy::fs::FsError;
using pmemcpy::fs::OpenMode;
using pmemcpy::obj::HashTable;
using pmemcpy::obj::Pool;
using pmemcpy::obj::PoolError;
using pmemcpy::pmem::Device;
using pmemcpy::testutil::passes_before_deadline;

constexpr std::uint32_t kSeed = 20;  // seeds the flat-layout base image
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

std::uint64_t word_at(Device& dev, std::uint64_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, dev.raw(at), sizeof(v));
  return v;
}

/// One decoded field: @p width little-endian bytes at device offset @p at,
/// and the largest value its structure's own limits admit.  @p restamp, if
/// set, recomputes the checksum that covers the field after it changes.
struct Field {
  std::string name;
  std::uint64_t at;
  std::size_t width;
  std::uint64_t limit;
  std::function<void(Device&)> restamp;
  std::vector<std::uint64_t> extra;  ///< values beyond the five boundaries
};

/// Set every field of @p fields to each of its boundary values in turn,
/// and run @p body in a forked child on each damaged image.
template <typename... Es, typename Body>
void sweep(Device& dev, const std::vector<Field>& fields, Body&& body) {
  for (const auto& f : fields) {
    const std::uint64_t ones =
        f.width == 8 ? kAllOnes : (std::uint64_t{1} << (8 * f.width)) - 1;
    std::vector<std::uint64_t> values = {0, 1, f.limit, f.limit + 1, ones};
    values.insert(values.end(), f.extra.begin(), f.extra.end());
    for (const std::uint64_t v : values) {
      SCOPED_TRACE(f.name + " = " + std::to_string(v));
      EXPECT_TRUE(passes_before_deadline<Es...>([&] {
        std::memcpy(dev.raw(f.at), &v, f.width);
        if (f.restamp) f.restamp(dev);
        return body();
      }));
    }
  }
}

// ---------------------------------------------------------------------------
// Pool: on-media format (pool-relative offsets).  The quarantine table is a
// header {u32 count, u32 crc32c of the entries} at 128 and entries {u64 off,
// u64 len} from 136; the allocator state {arena_cursor, arena_end,
// bytes_in_use, large_free_head} sits at 4096 and the eleven class-list
// heads at 4224; the undo lane is {u64 used} at 8192 with entries {u64 off,
// u64 len, pre-image padded to 8} behind it; the heap starts at 12288, each
// chunk headed by {u64 payload_size, u32 class, u32 check} where check =
// crc32c(first 12 bytes, seed 0xA110C8ED), and a free chunk's next pointer
// is its first payload word.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kHeapStart = 12288;

void stamp_chunk(Device& dev, std::uint64_t at) {
  const std::uint32_t check = pmemcpy::crc32c(dev.raw(at), 12, 0xA110C8EDu);
  std::memcpy(dev.raw(at + 12), &check, sizeof(check));
}

struct PoolImage {
  pmemcpy::PmemNode node{pmemcpy::PmemNode::Options{.capacity = 8ull << 20}};
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  PoolImage() {
    std::mt19937_64 rng(kSeed);
    const auto bytes = [&] {
      // Mostly class-sized values, with every eighth past the largest
      // class (64 KiB chunks) so the large free list sees traffic too.
      return rng() % 8 == 0 ? 70000 + rng() % 30000 : 1 + rng() % 3000;
    };
    pmemcpy::Config cfg;
    cfg.node = &node;
    cfg.nbuckets = 8;  // grows once, to 32 buckets, past 32 keys
    {
      pmemcpy::PMEM p(cfg);
      p.mmap("mutation");
      for (int i = 0; i < 48; ++i) {
        p.store("k" + std::to_string(i), std::vector<char>(bytes(), 'p'));
      }
      for (int i = 0; i < 48; i += 3) {
        p.store("k" + std::to_string(i), std::vector<char>(bytes(), 'o'));
      }
      for (int i = 1; i < 48; i += 5) p.remove("k" + std::to_string(i));
      p.munmap();
    }
    const auto pool = node.open_pool("mutation");
    EXPECT_EQ(node.table_for(pool, pool->root())->nbuckets(), 32u);
    pool->drain_magazines();
    base = pool->base();
    size = pool->size();
    // Quarantine the line at the arena cursor, then allocate across it:
    // the arena hops the range without writing a header there.
    const std::uint64_t cursor = word_at(node.device(), base + 4096);
    EXPECT_TRUE(pool->quarantine(cursor, 64).is_ok());
    (void)pool->alloc(256);
    const auto rep = pool->check();
    EXPECT_TRUE(rep.ok()) << (rep.issues.empty() ? "" : rep.issues.front());
  }

  std::vector<Field> fields() {
    Device& dev = node.device();
    const std::uint64_t cursor = word_at(dev, base + 4096);
    std::vector<Field> out;
    // Undo lane: `used` alone (its bytes are stale entries of past
    // batches), then one planted entry pre-imaging the allocator state,
    // whose target and length are damaged.
    out.push_back({"undo used", base + 8192, 8, 4096 - 8, nullptr, {}});
    const auto plant = [this](Device& d) {
      const std::uint64_t used = 16 + 32;
      std::memcpy(d.raw(base + 8192), &used, 8);
      std::memcpy(d.raw(base + 8216), d.raw(base + 4096), 32);
    };
    const auto planted = [&](const std::string& name, std::uint64_t at,
                             std::uint64_t limit, std::uint64_t keep_at,
                             std::uint64_t keep) {
      out.push_back({name, at, 8, limit,
                     [plant, keep_at, keep](Device& d) {
                       plant(d);
                       std::memcpy(d.raw(keep_at), &keep, 8);
                     },
                     {}});
    };
    planted("undo entry off", base + 8200, size - 32, base + 8208, 32);
    planted("undo entry len", base + 8208, 32, base + 8200, 4096);
    // Quarantine table: count and crc as they are, entry fields re-stamped.
    const std::uint64_t q = base + 128;
    std::uint32_t crc = 0;
    std::memcpy(&crc, dev.raw(q + 4), sizeof(crc));
    out.push_back({"quarantine count", q, 4, 128, nullptr, {}});
    out.push_back({"quarantine crc", q + 4, 4, crc, nullptr, {}});
    const auto restamp_quarantine = [q](Device& d) {
      std::uint32_t count = 0;
      std::memcpy(&count, d.raw(q), sizeof(count));
      const std::uint32_t c = pmemcpy::crc32c(d.raw(q + 8), count * 16u);
      std::memcpy(d.raw(q + 4), &c, sizeof(c));
    };
    const std::uint64_t qoff = word_at(dev, q + 8);
    const std::uint64_t qlen = word_at(dev, q + 16);
    out.push_back({"quarantine entry off", q + 8, 8, size - qlen,
                   restamp_quarantine, {}});
    out.push_back({"quarantine entry len", q + 16, 8, size - qoff,
                   restamp_quarantine, {}});
    // Free-list heads: the last chunk position below the cursor is the
    // limit.
    for (int c = 0; c < 11; ++c) {
      out.push_back({"class head " + std::to_string(c), base + 4224 + 8 * c,
                     8, cursor - 64, nullptr, {}});
    }
    out.push_back(
        {"large head", base + 4096 + 24, 8, cursor - 64, nullptr, {}});
    // Chunk sizes: the first chunk, a seeded pick and the last, each with
    // its checksum re-stamped; 2^64 - 16 wraps the walk's advance to 0.
    std::vector<std::uint64_t> chunks;
    for (std::uint64_t pos = kHeapStart; pos < cursor;) {
      const std::uint64_t payload = word_at(dev, base + pos);
      std::uint32_t check = 0;
      std::memcpy(&check, dev.raw(base + pos + 12), sizeof(check));
      if (check != pmemcpy::crc32c(dev.raw(base + pos), 12, 0xA110C8EDu)) {
        pos += 64;  // the quarantined line, hopped without a header
        continue;
      }
      chunks.push_back(pos);
      pos += 16 + payload;
    }
    std::mt19937_64 rng(kSeed);
    for (const std::uint64_t pos :
         {chunks.front(), chunks[rng() % chunks.size()], chunks.back()}) {
      const std::uint64_t at = base + pos;
      out.push_back({"payload_size of the chunk at " + std::to_string(pos),
                     at, 8, cursor - pos - 16,
                     [at](Device& d) { stamp_chunk(d, at); },
                     {kAllOnes - 15}});
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Hashtable: on-media format (pool-relative offsets).  The pool header at 64
// holds the root, the table header's offset, at +24; the table header is
// {buckets_off, count}; the bucket array starts {nbuckets, generation (0 or
// 1)} and its heads start 64 bytes in; a node is {next[2] by generation,
// val_off, size word (val_size in the low 48 bits, key_len in the high 16),
// meta, key hash} followed by the key.
// ---------------------------------------------------------------------------

std::vector<Field> table_fields(PoolImage& img) {
  Device& dev = img.node.device();
  const std::uint64_t base = img.base;
  const std::uint64_t size = img.size;
  const std::uint64_t table = word_at(dev, base + 64 + 24);
  const std::uint64_t array = word_at(dev, base + table);
  const std::uint64_t cap = word_at(dev, base + array - 16);
  const std::uint64_t gen = word_at(dev, base + array + 8);
  EXPECT_EQ(gen, 1u) << "the image's one growth moved its chains";
  std::uint64_t head_at = base + array + 64;
  while (word_at(dev, head_at) == 0) head_at += 8;
  const std::uint64_t node = word_at(dev, head_at);
  const std::uint64_t size_word = word_at(dev, base + node + 24);
  constexpr std::uint64_t kValSizeMask = (std::uint64_t{1} << 48) - 1;
  return {
      {"table buckets_off", base + table, 8, size - 64, nullptr, {}},
      {"array count", base + array, 8, (cap - 64) / 8, nullptr, {}},
      {"array generation", base + array + 8, 8, 1, nullptr, {}},
      {"bucket head", head_at, 8, size - 48, nullptr, {}},
      {"node next[gen]", base + node + 8 * gen, 8, size - 48, nullptr, {}},
      // The limit keeps the key length and maximizes val_size; one past it
      // carries into the key length.
      {"node size word", base + node + 24, 8, size_word | kValSizeMask,
       nullptr, {}},
      // Any hash decodes: a wrong one only hides the node from lookups.
      {"node key hash", base + node + 40, 8, kAllOnes, nullptr, {}},
  };
}

TEST(ImageMutation, TableOpensAndWalksOrThrowsTyped) {
  PoolImage img;
  const auto fields = table_fields(img);
  sweep<PoolError>(img.node.device(), fields, [&] {
    Pool p = Pool::open(img.node.device(), img.base);
    const HashTable t = HashTable::open(p, p.root());
    t.for_each([](std::string_view, const pmemcpy::obj::ValueRef&) {});
    for (int i = 0; i < 48; ++i) (void)t.find("k" + std::to_string(i));
    return true;
  });
}

TEST(ImageMutation, PoolOpensAndChecksOrThrowsTyped) {
  PoolImage img;
  const auto fields = img.fields();
  sweep<PoolError>(img.node.device(), fields, [&] {
    const Pool p = Pool::open(img.node.device(), img.base);
    (void)p.check();
    return true;
  });
}

// ---------------------------------------------------------------------------
// pmemfs: on-media format.  The superblock is {magic, u32 version, pad,
// total_blocks, inode_count, bitmap_rel, itable_rel, data_rel}; inode i sits
// at itable + (i - 1) * 256 as {u32 type, u32 nextents, u64 size,
// {u64 start, u64 len} ext[12], u64 indirect}, extents counted in 4 KiB
// blocks; an indirect block is {u64 next, u64 count, extents}; a
// directory's first block starts with {seq, content_off, content_len,
// cap}, and an entry is {u32 ino, u16 name_len, 2 pad bytes, name}.
// ---------------------------------------------------------------------------

constexpr std::size_t kFsBytes = 8ull << 20;

std::uint64_t inode_at(Device& dev, pmemcpy::fs::Ino ino) {
  return word_at(dev, 40) + (ino - 1) * 256;
}

std::uint64_t block_at(Device& dev, std::uint64_t blk) {
  return word_at(dev, 48) + blk * 4096;
}

/// Device offset of the first live entry of directory @p dir, whose header
/// sits in its first block.
std::uint64_t first_entry_at(Device& dev, pmemcpy::fs::Ino dir) {
  const std::uint64_t hdr =
      block_at(dev, word_at(dev, inode_at(dev, dir) + 16));
  return hdr + word_at(dev, hdr + 8);
}

struct FsImage {
  Device dev{kFsBytes};
  pmemcpy::fs::Ino dir = 0;
  pmemcpy::fs::Ino big = 0;

  FsImage() {
    FileSystem fs = FileSystem::format(dev, 0, kFsBytes);
    fs.mkdir("/d");
    // 20 fragmented 16-block extents: 12 inline, 8 in one indirect block;
    // every pad file rewrites the directory, and the removals rewrite it
    // smaller again.
    File f = fs.open("/d/big", OpenMode::kTruncate);
    for (int i = 0; i < 20; ++i) {
      File pad = fs.open("/d/pad" + std::to_string(i), OpenMode::kTruncate);
      fs.truncate(pad, 4096);
      fs.truncate(f, fs.size(f) + (1 << 16));
    }
    for (int i = 0; i < 20; i += 4) fs.remove("/d/pad" + std::to_string(i));
    const std::vector<char> data(fs.size(f), 'b');
    fs.pwrite(f, data.data(), data.size(), 0);
    fs.fsync(f);
    big = f.ino();
    dir = fs.open("/d", OpenMode::kRead).ino();
  }

  std::vector<Field> fields() {
    const std::uint64_t total = word_at(dev, 16);
    const std::uint64_t inodes = word_at(dev, 24);
    const std::uint64_t itable = word_at(dev, 40);
    const std::uint64_t data = word_at(dev, 48);
    std::vector<Field> out = {
        {"sb total_blocks", 16, 8, (kFsBytes - data) / 4096, nullptr, {}},
        {"sb inode_count", 24, 8, (data - itable) / 256, nullptr, {}},
        {"sb bitmap_rel", 32, 8, itable - (total + 7) / 8, nullptr, {}},
        {"sb itable_rel", 40, 8, data - inodes * 256, nullptr, {}},
        {"sb data_rel", 48, 8, kFsBytes - total * 4096, nullptr, {}},
    };
    for (const auto& [name, ino] : {std::pair{"file", big}, {"dir", dir}}) {
      const std::uint64_t at = inode_at(dev, ino);
      const std::string n = std::string(name) + " inode ";
      out.push_back({n + "nextents", at + 4, 4, 12, nullptr, {}});
      out.push_back(
          {n + "size", at + 8, 8, word_at(dev, at + 8), nullptr, {}});
      out.push_back({n + "indirect", at + 208, 8, total - 1, nullptr, {}});
    }
    const std::uint64_t ind =
        block_at(dev, word_at(dev, inode_at(dev, big) + 208));
    out.push_back({"indirect next", ind, 8, total - 1, nullptr, {}});
    out.push_back({"indirect count", ind + 8, 8, 254, nullptr, {}});
    const std::uint64_t hdr =
        block_at(dev, word_at(dev, inode_at(dev, dir) + 16));
    const std::uint64_t cap = word_at(dev, hdr + 24);
    const std::uint64_t len = word_at(dev, hdr + 16);
    const std::uint64_t dir_size = word_at(dev, inode_at(dev, dir) + 8);
    out.push_back({"dir content_off", hdr + 8, 8, 64 + cap, nullptr, {}});
    out.push_back({"dir content_len", hdr + 16, 8, cap, nullptr, {}});
    out.push_back({"dir cap", hdr + 24, 8, (dir_size - 64) / 2, nullptr, {}});
    out.push_back({"entry name_len", hdr + word_at(dev, hdr + 8) + 4, 2,
                   len - 8, nullptr, {}});
    return out;
  }
};

TEST(ImageMutation, FsMountsListsAndMapsOrThrowsTyped) {
  FsImage img;
  const auto fields = img.fields();
  sweep<FsError>(img.dev, fields, [&] {
    FileSystem fs = FileSystem::mount(img.dev, 0);
    (void)fs.list("/");
    for (const auto& name : fs.list("/d")) {
      const File f = fs.open("/d/" + name, OpenMode::kRead);
      auto m = fs.map(f);
      std::vector<std::byte> buf(std::min<std::uint64_t>(m.size(), 1 << 16));
      m.load(0, buf.data(), buf.size());
    }
    return true;
  });
}

// An entry naming a damaged inode number: a rename within the directory
// over that name, a link of an unnamed file over it, and is_dir() of it
// (which answers from the DRAM inode map) must check the number before
// anything uses it.
TEST(ImageMutation, FsRenamesOverADamagedEntryOrThrowsTyped) {
  FsImage img;
  const std::uint64_t entry = first_entry_at(img.dev, img.dir);
  std::uint16_t name_len = 0;
  std::memcpy(&name_len, img.dev.raw(entry + 4), sizeof(name_len));
  const std::string target =
      "/d/" + std::string(reinterpret_cast<const char*>(img.dev.raw(entry + 8)),
                          name_len);
  const std::vector<Field> fields = {
      {"entry ino", entry, 4, word_at(img.dev, 24), nullptr, {}}};
  const std::pair<const char*, std::function<void(FileSystem&)>> ops[] = {
      {"rename /d/src",
       [&](FileSystem& fs) {
         (void)fs.open("/d/src", OpenMode::kTruncate);
         fs.rename("/d/src", target);
       }},
      {"link an unnamed file",
       [&](FileSystem& fs) { (void)fs.link(fs.create_unnamed(), target); }},
      {"is_dir", [&](FileSystem& fs) { (void)fs.is_dir(target); }},
  };
  for (const auto& [what, op] : ops) {
    SCOPED_TRACE(std::string(what) + " over " + target);
    sweep<FsError>(img.dev, fields, [&] {
      FileSystem fs = FileSystem::mount(img.dev, 0);
      op(fs);
      return true;
    });
  }
}

// Only damage names an inode twice: here /d/b's entry names /a's inode.
// Dropping either name, by a rename over /d/b or by a remove, must leave
// the other reading its 4,096 bytes, and the next create must take a fresh
// inode.
TEST(ImageMutation, FsKeepsAnInodeThatADamagedEntryNamesTwice) {
  Device dev{kFsBytes};
  pmemcpy::fs::Ino ino = 0;
  pmemcpy::fs::Ino dir = 0;
  {
    FileSystem fs = FileSystem::format(dev, 0, kFsBytes);
    fs.mkdir("/d");
    for (const char* name : {"/a", "/d/b", "/d/c"}) {
      fs.truncate(fs.open(name, OpenMode::kTruncate), 4096);
    }
    ino = fs.open("/a", OpenMode::kRead).ino();
    dir = fs.open("/d", OpenMode::kRead).ino();
  }
  std::memcpy(dev.raw(first_entry_at(dev, dir)), &ino, sizeof(ino));
  struct Drop {
    const char* what;
    std::function<void(FileSystem&)> op;
    const char* kept;
  };
  const Drop drops[] = {
      {"rename-over /d/b", [](FileSystem& fs) { fs.rename("/d/c", "/d/b"); },
       "/a"},
      {"remove /d/b", [](FileSystem& fs) { fs.remove("/d/b"); }, "/a"},
      {"remove /a", [](FileSystem& fs) { fs.remove("/a"); }, "/d/b"},
  };
  for (const Drop& d : drops) {
    SCOPED_TRACE(d.what);
    Device copy(kFsBytes);
    std::memcpy(copy.raw(0), dev.raw(0), kFsBytes);
    FileSystem fs = FileSystem::mount(copy, 0);
    ASSERT_EQ(fs.open("/d/b", OpenMode::kRead).ino(), ino);
    d.op(fs);
    const File kept = fs.open(d.kept, OpenMode::kRead);
    EXPECT_EQ(kept.ino(), ino);
    std::vector<std::byte> buf(4096);
    EXPECT_EQ(fs.pread(kept, buf.data(), buf.size(), 0), buf.size());
    EXPECT_NE(fs.open("/d/n", OpenMode::kTruncate).ino(), ino);
  }
}

// Damage can also name a free inode: the next create must not hand it out
// as a second name, whose removal would free what /d/b still names.
TEST(ImageMutation, FsNeverHandsOutAFreeInodeThatADamagedEntryNames) {
  Device dev{kFsBytes};
  pmemcpy::fs::Ino next = 0;
  pmemcpy::fs::Ino dir = 0;
  {
    FileSystem fs = FileSystem::format(dev, 0, kFsBytes);
    fs.mkdir("/d");
    fs.truncate(fs.open("/d/b", OpenMode::kTruncate), 4096);
    next = fs.open("/d/n", OpenMode::kTruncate).ino();  // first fit's next
    fs.remove("/d/n");
    dir = fs.open("/d", OpenMode::kRead).ino();
  }
  std::memcpy(dev.raw(first_entry_at(dev, dir)), &next, sizeof(next));
  FileSystem fs = FileSystem::mount(dev, 0);
  ASSERT_EQ(fs.open("/d/b", OpenMode::kRead).ino(), next);
  EXPECT_NE(fs.open("/d/x", OpenMode::kTruncate).ino(), next);
}

}  // namespace
