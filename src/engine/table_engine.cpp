// Flat-layout engine: entries live in one obj::HashTable inside one
// obj::Pool.  A put publishes on commit() through Inserter::publish, a
// batch through HashTable::publish_group: the same two-fence protocol,
// paid once per put or once per batch (see DESIGN.md §8).
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/pool.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <utility>
#include <vector>

namespace pmemcpy::engine {

namespace {

class TableEntry final : public Engine::Entry {
 public:
  TableEntry(std::shared_ptr<obj::Pool> pool, obj::ValueRef ref)
      : pool_(std::move(pool)), ref_(ref) {}

  EntryInfo info() const override { return {ref_.val_size, ref_.meta}; }

  void read(std::uint64_t off, void* dst, std::size_t len) override {
    if (off + len > ref_.val_size) {
      throw serial::SerialError("entry read out of range");
    }
    pool_->read(ref_.val_off + off, dst, len);
  }

  std::span<const std::byte> stored_span(std::size_t charge_bytes) override {
    // Zero-copy bypasses the checked read path, so probe for injected
    // media errors explicitly before handing out the span.
    pool_->verify_media(ref_.val_off, ref_.val_size);
    pool_->charge_read(charge_bytes);
    return {pool_->direct(ref_.val_off), ref_.val_size};
  }

  std::uint64_t dev_off() const override {
    return pool_->base() + ref_.val_off;
  }

 private:
  std::shared_ptr<obj::Pool> pool_;
  obj::ValueRef ref_;
};

/// Staged reservations shared between a TableBatch and its PutHandles (the
/// handles outlive neither the entries they stage nor orphan them: a handle
/// committed after the batch died parks its Inserter here until the state
/// itself dies, which discards it).
struct TableBatchState {
  struct Staged {
    obj::HashTable::Inserter ins;
    bool keep_existing;
  };
  std::shared_ptr<obj::HashTable> table;
  std::vector<Staged> staged;
};

/// The engine's one put handle.  Without a batch (@p st null) commit()
/// publishes the entry; inside one it stages the reservation for
/// TableBatch::commit().
class TableBatchPut final : public Engine::PutHandle {
 public:
  TableBatchPut(std::shared_ptr<TableBatchState> st,
                obj::HashTable::Inserter ins, bool keep_existing)
      : st_(std::move(st)),
        ins_(std::move(ins)),
        // value() charges the reservation's DAX write once; cache the span
        // so sink() and reserved_span() share that single charge.
        span_(ins_.value()),
        sink_(span_),
        keep_existing_(keep_existing) {}

  serial::Sink& sink() override { return sink_; }
  std::span<std::byte> reserved_span() override { return span_; }
  void commit(std::uint32_t payload_crc) override {
    if (done_) return;
    ins_.set_meta_high(payload_crc);
    done_ = true;
    if (!st_) {
      // In keep mode `false` means an existing entry won the race and was
      // kept — exactly what the caller asked for, so not an error.
      (void)ins_.publish(keep_existing_);
      return;
    }
    // The checker's scope stack is LIFO per thread: pop this put's scope
    // now, while it is still innermost — the group commit publishes staged
    // entries in an unrelated order.
    ins_.close_checker_scope();
    st_->staged.push_back({std::move(ins_), keep_existing_});
  }

 private:
  std::shared_ptr<TableBatchState> st_;
  obj::HashTable::Inserter ins_;
  std::span<std::byte> span_;
  serial::SpanSink sink_;
  bool keep_existing_;
  bool done_ = false;
};

class TableBatch final : public Engine::Batch {
 public:
  explicit TableBatch(std::shared_ptr<obj::HashTable> table)
      : st_(std::make_shared<TableBatchState>()) {
    st_->table = std::move(table);
  }

  std::unique_ptr<Engine::PutHandle> put(const std::string& key,
                                         std::size_t size, std::uint64_t meta,
                                         bool keep_existing) override {
    trace::Span span("engine.put");
    trace::count(trace::Counter::kEnginePuts);
    return std::make_unique<TableBatchPut>(
        st_, st_->table->reserve(key, size, meta), keep_existing);
  }

  void commit() override {
    trace::Span span("engine.batch_commit");
    trace::count(trace::Counter::kBatchCommits);
    trace::observe(trace::Hist::kBatchSize,
                   static_cast<double>(st_->staged.size()));
    std::vector<obj::HashTable::GroupPut> group;
    group.reserve(st_->staged.size());
    for (auto& s : st_->staged) {
      group.push_back({&s.ins, s.keep_existing, false});
    }
    st_->table->publish_group(group);
    st_->staged.clear();  // published Inserters destruct as no-ops
  }

  std::size_t staged() const override { return st_->staged.size(); }

 private:
  std::shared_ptr<TableBatchState> st_;
};

class TableEngine final : public Engine {
 public:
  TableEngine(std::shared_ptr<obj::Pool> pool,
              std::shared_ptr<obj::HashTable> table)
      : pool_(std::move(pool)), table_(std::move(table)) {}

  std::unique_ptr<PutHandle> put(const std::string& key, std::size_t size,
                                 std::uint64_t meta,
                                 bool keep_existing) override {
    trace::Span span("engine.put");
    trace::count(trace::Counter::kEnginePuts);
    return std::make_unique<TableBatchPut>(
        nullptr, table_->reserve(key, size, meta), keep_existing);
  }

  std::unique_ptr<Entry> find(const std::string& key) override {
    trace::Span span("engine.get");
    trace::count(trace::Counter::kEngineGets);
    auto ref = table_->find(key);
    if (!ref) return nullptr;
    return std::make_unique<TableEntry>(pool_, *ref);
  }

  bool erase(const std::string& key) override { return table_->erase(key); }

  void for_each_prefix(
      const std::string& prefix,
      const std::function<void(const std::string&, const EntryInfo&)>& fn)
      override {
    table_->for_each_prefix(
        prefix, [&](std::string_view key, const obj::ValueRef& ref) {
          fn(std::string(key), EntryInfo{ref.val_size, ref.meta});
        });
  }

  std::unique_ptr<Batch> begin_batch() override {
    return std::make_unique<TableBatch>(table_);
  }

  bool quarantine(std::size_t dev_off, std::size_t len) override {
    // Translate the device-absolute range into the pool; ranges outside it
    // are not ours to fence.
    if (len == 0) return false;
    const std::size_t base = pool_->base();
    if (dev_off < base || dev_off - base >= pool_->size() ||
        len > pool_->size() - (dev_off - base)) {
      return false;
    }
    return pool_->quarantine(dev_off - base, len).is_ok();
  }

 private:
  std::shared_ptr<obj::Pool> pool_;
  std::shared_ptr<obj::HashTable> table_;
};

}  // namespace

std::unique_ptr<Engine> make_table_engine(
    std::shared_ptr<obj::Pool> pool, std::shared_ptr<obj::HashTable> table) {
  return std::make_unique<TableEngine>(std::move(pool), std::move(table));
}

}  // namespace pmemcpy::engine
