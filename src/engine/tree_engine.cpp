// Hierarchical-layout engine: one DAX file per entry under a root
// directory.  Each file starts with the 8-byte meta word; writes land in an
// unnamed file (O_TMPFILE) that commit() links at the final path (linkat),
// so concurrent same-key puts last-write-win instead of racing on one
// inode, and crashes never expose partial entries: the next mount frees an
// unnamed file a crash stranded.  The payload region is reserved up front
// as a direct_write_span over the file's extent (reserve-then-serialize,
// DESIGN.md §12) and serialization lands straight in it; tree_finalize()
// then stores the meta word, persists the whole file in one coalesced flush
// pass, and links it visible in one directory rewrite.
//
// The batch path defers the persist+publish+link of each staged entry to
// Batch::commit().  The filesystem already fences per-file, so unlike the
// table engine there is no cross-entry fence coalescing to win here —
// batching only buys the deferred-visibility semantics of the contract.
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace pmemcpy::engine {

namespace {

/// Each entry file starts with its meta word.
constexpr std::size_t kTreeHeader = 8;

/// An entry's unnamed file, discarded when dropped unless link() took it.
/// A discard that faults leaves the file orphan-marked for the next mount
/// to free.
class UnnamedFile {
 public:
  explicit UnnamedFile(fs::FileSystem& fs)
      : fs_(&fs), file_(fs.create_unnamed()) {}
  UnnamedFile(UnnamedFile&& o) noexcept
      : fs_(o.fs_), file_(std::exchange(o.file_, {})) {}
  UnnamedFile& operator=(UnnamedFile&&) = delete;
  ~UnnamedFile() {
    if (!file_.valid()) return;
    try {
      fs_->discard(file_);
    } catch (...) {
    }
  }

  [[nodiscard]] fs::File get() const noexcept { return file_; }
  /// Hand the file to link(), which consumes it even when it throws.
  void link(const std::string& path, bool replace) {
    (void)fs_->link(std::exchange(file_, {}), path, replace);
  }

 private:
  fs::FileSystem* fs_;
  fs::File file_;
};

/// A fully written, not yet published entry: everything finalize() needs.
struct TreePending {
  fs::Mapping mapping;
  UnnamedFile file;
  std::string final_path;
  std::uint64_t meta;
  std::size_t size;
  bool keep_existing;
  std::uint32_t crc = 0;
};

/// Persist + publish the file and link it at the final path.  An entry
/// whose file link() already took is skipped, so a batch commit retried
/// after a throw never stores into a file it no longer owns.
void tree_finalize(TreePending& p) {
  if (!p.file.get().valid()) return;
  const std::uint64_t meta =
      (p.meta & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(p.crc) << 32);
  p.mapping.store(0, &meta, sizeof(meta));
  p.mapping.persist(0, kTreeHeader + p.size);
  p.mapping.check_publish(0, kTreeHeader + p.size);
  p.file.link(p.final_path, /*replace=*/!p.keep_existing);
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
  std::vector<TreePending> staged;
};

/// The engine's one put handle.  Without a batch (@p st null) commit()
/// finalizes the entry; inside one it stages it for TreeBatch::commit().
class TreeBatchPut final : public Engine::PutHandle {
 public:
  TreeBatchPut(std::shared_ptr<TreeBatchState> st, TreePending pending)
      : st_(std::move(st)), pending_(std::move(pending)),
        dest_(pending_.mapping, pending_.size) {}

  serial::Sink& sink() override { return dest_.sink(); }
  std::span<std::byte> reserved_span() override { return dest_.span(); }

  void commit(std::uint32_t payload_crc) override {
    if (done_) return;
    pending_.crc = payload_crc;
    if (st_) {
      st_->staged.push_back(std::move(pending_));
    } else {
      tree_finalize(pending_);
    }
    done_ = true;
  }

 private:
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
  // The leaf becomes the file's name.  Reject a bad one as the put opens:
  // link() would reject it only after a batch published what it staged
  // before this entry.
  fs::FileSystem::check_name(std::string_view(path).substr(slash + 1));
  if (slash > 0 && slash != std::string::npos) {
    const std::string dir = path.substr(0, slash);
    if (!fs.exists(dir)) fs.mkdirs(dir);
  }
  UnnamedFile file(fs);
  fs.truncate(file.get(), kTreeHeader + size);
  auto mapping = fs.map(file.get(), map_sync);
  return TreePending{std::move(mapping), std::move(file), path, meta, size,
                     keep_existing};
}

class TreeBatch final : public Engine::Batch {
 public:
  TreeBatch(fs::FileSystem& fs, std::string root, bool map_sync)
      : fs_(&fs), root_(std::move(root)), map_sync_(map_sync),
        st_(std::make_shared<TreeBatchState>()) {}

  std::unique_ptr<Engine::PutHandle> put(const std::string& key,
                                         std::size_t size, std::uint64_t meta,
                                         bool keep_existing) override {
    trace::Span span("engine.put");
    trace::count(trace::Counter::kEnginePuts);
    return std::make_unique<TreeBatchPut>(
        st_, make_pending(*fs_, root_, key, size, meta, keep_existing,
                          map_sync_));
  }

  void commit() override {
    trace::Span span("engine.batch_commit");
    trace::count(trace::Counter::kBatchCommits);
    trace::observe(trace::Hist::kBatchSize,
                   static_cast<double>(st_->staged.size()));
    for (auto& p : st_->staged) tree_finalize(p);
    st_->staged.clear();
  }

  std::size_t staged() const override { return st_->staged.size(); }

 private:
  fs::FileSystem* fs_;
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
        nullptr,
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

  void for_each_prefix(const std::string& prefix,
                       const std::function<void(const std::string&)>& fn)
      override {
    walk("", root_, prefix, fn);
  }

  std::unique_ptr<Batch> begin_batch() override {
    return std::make_unique<TreeBatch>(*fs_, root_, map_sync_);
  }

 private:
  /// Recursive directory walk visiting every entry whose key starts with
  /// @p prefix.  Descends only into directories that can contain matches,
  /// and reads names only: no entry file is opened.
  void walk(const std::string& key_so_far, const std::string& dir,
            const std::string& prefix,
            const std::function<void(const std::string&)>& fn) {
    if (!fs_->exists(dir)) return;
    for (const auto& name : fs_->list(dir)) {
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
      if (key.starts_with(prefix)) fn(key);
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

}  // namespace pmemcpy::engine
