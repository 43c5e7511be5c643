// Hierarchical-layout engine: one DAX file per entry under a root
// directory.  Each file starts with the 8-byte meta word; writes land in a
// unique temp file that commit() renames over the final path (so concurrent
// same-key puts last-write-win instead of racing on one inode, and crashes
// never expose partial entries).  The payload region is reserved up front
// as a direct_write_span over the temp file's extent (reserve-then-
// serialize, DESIGN.md §12) and serialization lands straight in it;
// tree_finalize() then stores the meta word, persists the whole file in one
// coalesced flush pass, and renames it visible.
//
// The batch path defers the persist+publish+rename of each staged entry to
// Batch::commit().  The filesystem already fences per-file, so unlike the
// table engine there is no cross-entry fence coalescing to win here —
// batching only buys the deferred-visibility semantics of the contract.
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace pmemcpy::engine {

namespace {

/// Each entry file starts with its meta word.
constexpr std::size_t kTreeHeader = 8;

/// Process-wide temp-name counter: rank threads share the filesystem, so
/// per-store counters would collide.
std::atomic<std::uint64_t> g_tmp_seq{0};

/// Whether @p name is a temp file of make_pending(): "<leaf>.tmp.<12 digits>".
bool is_tree_temp(std::string_view name) {
  constexpr std::string_view kTag = ".tmp.";
  constexpr std::size_t kDigits = 12;
  if (name.size() < kTag.size() + kDigits) return false;
  const std::string_view digits = name.substr(name.size() - kDigits);
  return name.substr(name.size() - kDigits - kTag.size(), kTag.size()) ==
             kTag &&
         std::all_of(digits.begin(), digits.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

void reclaim_temps_under(fs::FileSystem& fs, const std::string& dir) {
  for (const auto& name : fs.list(dir.empty() ? "/" : dir)) {
    const std::string path = dir + "/" + name;
    if (fs.is_dir(path)) {
      reclaim_temps_under(fs, path);
    } else if (is_tree_temp(name)) {
      fs.remove(path);
    }
  }
}

/// A fully written, not yet published entry: everything finalize() needs.
struct TreePending {
  fs::Mapping mapping;
  std::string tmp_path;
  std::string final_path;
  std::uint64_t meta;
  std::size_t size;
  bool keep_existing;
  std::uint32_t crc = 0;
};

/// Persist + publish the file and rename it over the final path.
void tree_finalize(fs::FileSystem& fs, TreePending& p) {
  const std::uint64_t meta =
      (p.meta & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(p.crc) << 32);
  p.mapping.store(0, &meta, sizeof(meta));
  p.mapping.persist(0, kTreeHeader + p.size);
  p.mapping.check_publish(0, kTreeHeader + p.size);
  fs.rename(p.tmp_path, p.final_path, /*replace=*/!p.keep_existing);
}

void tree_discard(fs::FileSystem& fs, const TreePending& p) {
  if (fs.exists(p.tmp_path)) fs.remove(p.tmp_path);
}

/// Reserved destination for one entry's payload (reserve-then-serialize,
/// DESIGN.md §12): a SpanSink straight over the file's extent when the
/// payload range is physically contiguous (the common case — entry files
/// are created in fresh extents), else a MappingSink streaming through the
/// runs.  Both land every byte in PMEM directly; only the span variant can
/// also hand out reserved_span().
class TreeDest {
 public:
  TreeDest(fs::Mapping& m, std::size_t size) {
    try {
      span_ = m.direct_write_span(kTreeHeader, size);
      span_sink_.emplace(span_);
    } catch (const fs::FsError&) {
      map_sink_.emplace(m, kTreeHeader);
    }
  }

  serial::Sink& sink() {
    return span_sink_ ? static_cast<serial::Sink&>(*span_sink_) : *map_sink_;
  }
  [[nodiscard]] std::span<std::byte> span() const noexcept { return span_; }

 private:
  std::span<std::byte> span_;
  std::optional<serial::SpanSink> span_sink_;
  std::optional<serial::MappingSink> map_sink_;
};

class TreeEntry final : public Engine::Entry {
 public:
  explicit TreeEntry(fs::Mapping mapping) : mapping_(std::move(mapping)) {
    std::uint64_t meta = 0;
    // Header load is metadata-sized; charge it as such.
    mapping_.load(0, &meta, sizeof(meta));
    info_ = EntryInfo{mapping_.size() - kTreeHeader, meta};
  }

  EntryInfo info() const override { return info_; }

  void read(std::uint64_t off, void* dst, std::size_t len) override {
    if (off + len > info_.size) {
      throw serial::SerialError("entry read out of range");
    }
    mapping_.load(kTreeHeader + off, dst, len);
  }

  std::span<const std::byte> stored_span(std::size_t charge_bytes) override {
    try {
      // Media-probed direct view over the payload extent; the consumption
      // charge covers only the slice the caller will decode.
      auto s = mapping_.direct_read_span(kTreeHeader, info_.size);
      mapping_.charge_load(charge_bytes);
      return s;
    } catch (const fs::FsError&) {
      // Fragmented file: fall back to a charged bounce copy (rare — entry
      // files are written once into fresh extents).  The bounce is a DRAM
      // pass the read audit must see, but under its own exempted counter:
      // it is the engine's fallback, not a staging decision above it.
      if (bounce_.empty() && info_.size > 0) {
        bounce_.resize(info_.size);
        mapping_.load(kTreeHeader, bounce_.data(), info_.size);
        trace::count(trace::Counter::kCopyReadBounceBytes, info_.size);
      } else {
        mapping_.charge_load(charge_bytes);
      }
      return {bounce_.data(), info_.size};
    }
  }

 private:
  fs::Mapping mapping_;
  EntryInfo info_;
  std::vector<std::byte> bounce_;
};

/// Shared between a TreeBatch and its handles, so a handle committed after
/// the batch died parks its entry here until the state dies (discard).
struct TreeBatchState {
  fs::FileSystem* fs;
  std::vector<TreePending> staged;

  ~TreeBatchState() {
    for (const auto& p : staged) tree_discard(*fs, p);
  }
};

/// The engine's one put handle.  Without a batch (@p st null) commit()
/// finalizes the entry; inside one it stages it for TreeBatch::commit().
class TreeBatchPut final : public Engine::PutHandle {
 public:
  TreeBatchPut(fs::FileSystem& fs, std::shared_ptr<TreeBatchState> st,
               TreePending pending)
      : fs_(&fs), st_(std::move(st)), pending_(std::move(pending)),
        dest_(pending_.mapping, pending_.size) {}

  ~TreeBatchPut() override {
    if (!done_) tree_discard(*fs_, pending_);
  }

  serial::Sink& sink() override { return dest_.sink(); }
  std::span<std::byte> reserved_span() override { return dest_.span(); }

  void commit(std::uint32_t payload_crc) override {
    if (done_) return;
    pending_.crc = payload_crc;
    if (st_) {
      st_->staged.push_back(std::move(pending_));
    } else {
      tree_finalize(*fs_, pending_);
    }
    done_ = true;
  }

 private:
  fs::FileSystem* fs_;
  std::shared_ptr<TreeBatchState> st_;
  TreePending pending_;
  TreeDest dest_;
  bool done_ = false;
};

TreePending make_pending(fs::FileSystem& fs, const std::string& root,
                         const std::string& key, std::size_t size,
                         std::uint64_t meta, bool keep_existing,
                         bool map_sync) {
  const std::string path = root + "/" + key;
  const std::size_t slash = path.rfind('/');
  if (slash > 0 && slash != std::string::npos) {
    const std::string dir = path.substr(0, slash);
    if (!fs.exists(dir)) fs.mkdirs(dir);
  }
  // Fixed-width sequence so the temp name's LENGTH never depends on how
  // many temps this process made before: variable-length names leak the
  // process history into directory-entry byte counts and break run-to-run
  // counter determinism (tests/determinism_test.cpp).
  char seq[24];
  std::snprintf(seq, sizeof(seq), ".tmp.%012llu",
                static_cast<unsigned long long>(
                    g_tmp_seq.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp = path + seq;
  auto mapping = fs.create_mapped(tmp, kTreeHeader + size, map_sync);
  return TreePending{std::move(mapping), tmp,  path,
                     meta,               size, keep_existing};
}

class TreeBatch final : public Engine::Batch {
 public:
  TreeBatch(fs::FileSystem& fs, std::string root, bool map_sync)
      : root_(std::move(root)), map_sync_(map_sync),
        st_(std::make_shared<TreeBatchState>()) {
    st_->fs = &fs;
  }

  std::unique_ptr<Engine::PutHandle> put(const std::string& key,
                                         std::size_t size, std::uint64_t meta,
                                         bool keep_existing) override {
    trace::Span span("engine.put");
    trace::count(trace::Counter::kEnginePuts);
    return std::make_unique<TreeBatchPut>(
        *st_->fs, st_,
        make_pending(*st_->fs, root_, key, size, meta, keep_existing,
                     map_sync_));
  }

  void commit() override {
    trace::Span span("engine.batch_commit");
    trace::count(trace::Counter::kBatchCommits);
    trace::observe(trace::Hist::kBatchSize,
                   static_cast<double>(st_->staged.size()));
    for (auto& p : st_->staged) tree_finalize(*st_->fs, p);
    st_->staged.clear();
  }

  std::size_t staged() const override { return st_->staged.size(); }

 private:
  std::string root_;
  bool map_sync_;
  std::shared_ptr<TreeBatchState> st_;
};

class TreeEngine final : public Engine {
 public:
  TreeEngine(fs::FileSystem& fs, std::string root, bool map_sync)
      : fs_(&fs), root_(std::move(root)), map_sync_(map_sync) {
    fs_->mkdirs(root_);
  }

  std::unique_ptr<PutHandle> put(const std::string& key, std::size_t size,
                                 std::uint64_t meta,
                                 bool keep_existing) override {
    trace::Span span("engine.put");
    trace::count(trace::Counter::kEnginePuts);
    return std::make_unique<TreeBatchPut>(
        *fs_, nullptr,
        make_pending(*fs_, root_, key, size, meta, keep_existing, map_sync_));
  }

  std::unique_ptr<Entry> find(const std::string& key) override {
    trace::Span span("engine.get");
    trace::count(trace::Counter::kEngineGets);
    const std::string path = root_ + "/" + key;
    if (!fs_->exists(path)) return nullptr;
    auto f = fs_->open(path, fs::OpenMode::kRead);
    return std::make_unique<TreeEntry>(fs_->map(f, map_sync_));
  }

  bool erase(const std::string& key) override {
    const std::string path = root_ + "/" + key;
    if (!fs_->exists(path)) return false;
    fs_->remove(path);
    return true;
  }

  void for_each_prefix(
      const std::string& prefix,
      const std::function<void(const std::string&, const EntryInfo&)>& fn)
      override {
    walk("", root_, prefix, fn);
  }

  std::unique_ptr<Batch> begin_batch() override {
    return std::make_unique<TreeBatch>(*fs_, root_, map_sync_);
  }

 private:
  /// Recursive directory walk visiting every entry whose key starts with
  /// @p prefix.  Descends only into directories that can contain matches.
  void walk(const std::string& key_so_far, const std::string& dir,
            const std::string& prefix,
            const std::function<void(const std::string&, const EntryInfo&)>&
                fn) {
    if (!fs_->exists(dir)) return;
    for (const auto& name : fs_->list(dir)) {
      if (is_tree_temp(name)) continue;  // in flight
      const std::string key =
          key_so_far.empty() ? name : key_so_far + "/" + name;
      const std::string path = dir + "/" + name;
      if (fs_->is_dir(path)) {
        const std::string key_dir = key + "/";
        const std::size_t n = std::min(key_dir.size(), prefix.size());
        if (key_dir.compare(0, n, prefix, 0, n) == 0) {
          walk(key, path, prefix, fn);
        }
        continue;
      }
      if (key.size() < prefix.size() ||
          key.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      auto f = fs_->open(path, fs::OpenMode::kRead);
      auto m = fs_->map(f, map_sync_);
      std::uint64_t meta = 0;
      m.load(0, &meta, sizeof(meta));
      fn(key, EntryInfo{m.size() - kTreeHeader, meta});
    }
  }

  fs::FileSystem* fs_;
  std::string root_;
  bool map_sync_;
};

}  // namespace

std::unique_ptr<Engine> make_tree_engine(fs::FileSystem& fs, std::string root,
                                         bool map_sync) {
  return std::make_unique<TreeEngine>(fs, std::move(root), map_sync);
}

void reclaim_tree_temps(fs::FileSystem& fs) { reclaim_temps_under(fs, ""); }

}  // namespace pmemcpy::engine
