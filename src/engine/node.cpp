#include <pmemcpy/core/node.hpp>

#include <cstring>

namespace pmemcpy {

namespace {

constexpr std::uint64_t kRegMagic = 0x504f4f4c52454731ull;  // "POOLREG1"
constexpr std::size_t kRegNameLen = 48;
constexpr std::size_t kRegMaxPools = 62;
constexpr std::size_t kRegOff = 64;

struct RegHeaderDisk {
  std::uint64_t magic;
  std::uint64_t count;
};
struct RegEntryDisk {
  char name[kRegNameLen];
  std::uint64_t base;
  std::uint64_t size;
};

std::atomic<PmemNode*> g_default_node{nullptr};

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

}  // namespace

PmemNode::PmemNode() : PmemNode(Options{}) {}

PmemNode::PmemNode(Options opts)
    : opts_(opts),
      dev_(std::make_unique<pmem::Device>(opts.capacity, opts.crash_shadow)) {
  pool_area_begin_ = round_up(
      kRegOff + sizeof(RegHeaderDisk) + kRegMaxPools * sizeof(RegEntryDisk),
      4096);
  pool_area_end_ = round_up(
      static_cast<std::size_t>(static_cast<double>(opts.capacity) *
                               opts.pool_fraction),
      4096);
  if (pool_area_end_ < pool_area_begin_) pool_area_end_ = pool_area_begin_;
  store_registry();  // empty registry
  fs_.emplace(fs::FileSystem::format(*dev_, pool_area_end_,
                                     opts.capacity - pool_area_end_));
}

void PmemNode::load_registry() {
  RegHeaderDisk hdr{};
  dev_->read(kRegOff, &hdr, sizeof(hdr));
  registry_.clear();
  if (hdr.magic != kRegMagic) return;
  for (std::uint64_t i = 0; i < hdr.count && i < kRegMaxPools; ++i) {
    RegEntryDisk e{};
    dev_->read(kRegOff + sizeof(hdr) + i * sizeof(e), &e, sizeof(e));
    RegistryEntry entry;
    entry.name.assign(e.name, strnlen(e.name, kRegNameLen));
    entry.base = e.base;
    entry.size = e.size;
    registry_.push_back(std::move(entry));
  }
}

void PmemNode::store_registry() {
  RegHeaderDisk hdr{kRegMagic, registry_.size()};
  dev_->write(kRegOff, &hdr, sizeof(hdr));
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    RegEntryDisk e{};
    std::memset(&e, 0, sizeof(e));
    std::strncpy(e.name, registry_[i].name.c_str(), kRegNameLen - 1);
    e.base = registry_[i].base;
    e.size = registry_[i].size;
    dev_->write(kRegOff + sizeof(hdr) + i * sizeof(e), &e, sizeof(e));
  }
  // Persist only the written prefix: entries past hdr.count are never read,
  // and flushing all kRegMaxPools slots pays for untouched cachelines.
  dev_->persist(kRegOff,
                sizeof(hdr) + registry_.size() * sizeof(RegEntryDisk));
}

std::optional<PmemNode::RegistryEntry> PmemNode::find_pool(
    const std::string& name) const {
  for (const auto& e : registry_) {
    if (e.name == name) return e;
  }
  return std::nullopt;
}

std::shared_ptr<obj::Pool> PmemNode::create_pool(const std::string& name,
                                                 std::size_t size,
                                                 obj::PoolOptions opts) {
  std::lock_guard lk(mu_);
  if (name.size() >= kRegNameLen) {
    throw obj::PoolError("pool name too long: " + name);
  }
  if (find_pool(name)) throw obj::PoolError("pool exists: " + name);
  if (registry_.size() >= kRegMaxPools) {
    throw obj::PoolError("pool registry full");
  }
  std::uint64_t base = pool_area_begin_;
  for (const auto& e : registry_) base = std::max(base, e.base + e.size);
  if (size == 0) size = pool_area_end_ - base;
  if (base + size > pool_area_end_) {
    throw obj::PoolError("pool area exhausted");
  }
  auto pool = std::make_shared<obj::Pool>(
      obj::Pool::create(*dev_, base, size, opts));
  registry_.push_back(RegistryEntry{name, base, size});
  store_registry();
  open_pools_[name] = pool;
  return pool;
}

std::shared_ptr<obj::Pool> PmemNode::open_pool(const std::string& name,
                                               obj::PoolOptions opts) {
  std::lock_guard lk(mu_);
  if (auto it = open_pools_.find(name); it != open_pools_.end()) {
    return it->second;
  }
  const auto entry = find_pool(name);
  if (!entry) throw obj::PoolError("no such pool: " + name);
  auto pool =
      std::make_shared<obj::Pool>(obj::Pool::open(*dev_, entry->base, opts));
  open_pools_[name] = pool;
  return pool;
}

std::shared_ptr<obj::Pool> PmemNode::open_or_create_pool(
    const std::string& name, std::size_t size, obj::PoolOptions opts) {
  {
    std::lock_guard lk(mu_);
    if (auto it = open_pools_.find(name); it != open_pools_.end()) {
      return it->second;
    }
  }
  if (has_pool(name)) return open_pool(name, opts);
  return create_pool(name, size, opts);
}

bool PmemNode::has_pool(const std::string& name) {
  std::lock_guard lk(mu_);
  return find_pool(name).has_value();
}

std::shared_ptr<obj::HashTable> PmemNode::table_for(
    const std::shared_ptr<obj::Pool>& pool, std::uint64_t header_off) {
  std::lock_guard lk(mu_);
  const auto key = std::make_pair(pool.get(), header_off);
  if (auto it = tables_.find(key); it != tables_.end()) return it->second;
  auto table = std::make_shared<obj::HashTable>(
      obj::HashTable::open(*pool, header_off));
  tables_[key] = table;
  return table;
}

void PmemNode::remount() {
  std::lock_guard lk(mu_);
  tables_.clear();
  open_pools_.clear();
  load_registry();
  fs_.emplace(fs::FileSystem::mount(*dev_, pool_area_end_));
}

PmemNode* PmemNode::default_node() noexcept {
  return g_default_node.load(std::memory_order_acquire);
}

void PmemNode::set_default(PmemNode* node) noexcept {
  g_default_node.store(node, std::memory_order_release);
}

}  // namespace pmemcpy
