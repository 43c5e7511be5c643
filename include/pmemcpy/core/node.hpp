// The node-local PMEM environment (paper Figure 1: every compute node has
// DRAM + PMEM; I/O libraries persist to the node-local PMEM).
//
// A PmemNode owns the emulated device and carves it into:
//   * a pool area — named libpmemobj-style pools (pMEMCPY's flat hashtable
//     layout lives in one of these), tracked by a small persistent registry
//     so pools can be re-opened after a simulated crash, and
//   * a filesystem area — an EXT4-DAX-like filesystem (used by the baseline
//     libraries via POSIX and by pMEMCPY's hierarchical layout via DAX).
//
// Because ranks are threads of one process, Pool and HashTable instances
// (which carry DRAM locks) must be shared; PmemNode keeps those shared
// instances in process-local registries.
#pragma once

#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/pool.hpp>

#include <map>
#include <memory>
#include <optional>
#include <string>

namespace pmemcpy {

class PmemNode {
 public:
  struct Options {
    /// Emulated PMEM capacity in bytes.
    std::size_t capacity = 256ull << 20;
    /// Fraction of capacity reserved for object pools (rest is filesystem).
    double pool_fraction = 0.5;
    /// Track unpersisted cachelines so tests can simulate power failure.
    bool crash_shadow = false;
  };

  PmemNode();  // default Options
  explicit PmemNode(Options opts);

  [[nodiscard]] pmem::Device& device() noexcept { return *dev_; }
  [[nodiscard]] fs::FileSystem& fs() noexcept { return *fs_; }

  // --- named pools -----------------------------------------------------------

  /// Create a pool; @p size 0 means "the rest of the pool area".
  std::shared_ptr<obj::Pool> create_pool(const std::string& name,
                                         std::size_t size,
                                         obj::PoolOptions opts = {});
  /// Open an existing pool (shared instance; recovery runs on first open).
  std::shared_ptr<obj::Pool> open_pool(const std::string& name,
                                       obj::PoolOptions opts = {});
  std::shared_ptr<obj::Pool> open_or_create_pool(const std::string& name,
                                                 std::size_t size,
                                                 obj::PoolOptions opts = {});
  [[nodiscard]] bool has_pool(const std::string& name);

  /// Shared HashTable instance bound to (pool, header offset).
  std::shared_ptr<obj::HashTable> table_for(
      const std::shared_ptr<obj::Pool>& pool, std::uint64_t header_off);

  /// Simulate a node restart: drop all shared DRAM state and re-mount the
  /// device image (typically after device().simulate_crash()).
  void remount();

  // --- process-global default node -------------------------------------------

  /// The node PMEM::mmap uses when the Config names none.
  static PmemNode* default_node() noexcept;
  static void set_default(PmemNode* node) noexcept;

 private:
  struct RegistryEntry {
    std::string name;
    std::uint64_t base;
    std::uint64_t size;
  };
  void load_registry();
  void store_registry();
  [[nodiscard]] std::optional<RegistryEntry> find_pool(
      const std::string& name) const;

  Options opts_;
  std::unique_ptr<pmem::Device> dev_;
  std::optional<fs::FileSystem> fs_;

  std::mutex mu_;
  std::vector<RegistryEntry> registry_;
  std::uint64_t pool_area_begin_ = 0;
  std::uint64_t pool_area_end_ = 0;
  std::map<std::string, std::shared_ptr<obj::Pool>> open_pools_;
  std::map<std::pair<obj::Pool*, std::uint64_t>,
           std::shared_ptr<obj::HashTable>>
      tables_;
};

/// RAII: install a node as the process default for its lifetime.
class ScopedDefaultNode {
 public:
  explicit ScopedDefaultNode(PmemNode& node) noexcept
      : prev_(PmemNode::default_node()) {
    PmemNode::set_default(&node);
  }
  ~ScopedDefaultNode() { PmemNode::set_default(prev_); }
  ScopedDefaultNode(const ScopedDefaultNode&) = delete;
  ScopedDefaultNode& operator=(const ScopedDefaultNode&) = delete;

 private:
  PmemNode* prev_;
};

}  // namespace pmemcpy
