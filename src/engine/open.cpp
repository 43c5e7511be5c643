// Collective engine-open paths: rank 0 creates the persistent container
// (the pool and its table, or the tree root directory), a barrier makes it
// visible, then every rank binds to the shared process-local instances.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/par/comm.hpp>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

namespace pmemcpy::engine {

namespace {

/// Option field if set (>= 0), else the env var if parseable, else @p fallback.
int knob_or_env(int opt, const char* env, int fallback) {
  if (opt >= 0) return opt;
  if (const char* v = std::getenv(env); v != nullptr && *v != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && parsed >= 0 && parsed <= 1024) {
      return static_cast<int>(parsed);
    }
  }
  return fallback;
}

}  // namespace

std::unique_ptr<Engine> open_pool_engine(PmemNode& node,
                                         const PoolEngineOptions& opts,
                                         par::Comm* comm) {
  const bool leader = comm == nullptr || comm->rank() == 0;
  obj::PoolOptions popts;
  popts.map_sync = opts.map_sync;

  if (leader) {
    auto pool = node.open_or_create_pool(opts.name, opts.pool_size, popts);
    pool->set_map_sync(opts.map_sync);
    if (pool->root() == 0) {
      auto table = obj::HashTable::create(*pool, opts.nbuckets);
      pool->set_root(table.header_off());
    }
  }
  if (comm) comm->barrier();

  auto pool = node.open_pool(opts.name, popts);
  pool->set_expected_contenders(comm ? comm->size() : 1);
  // Allocator hot-path defaults (DESIGN.md §14): engines arm magazines and
  // metadata stripes unless the caller or environment says otherwise.  Raw
  // Pool users keep the classic fully-serialized semantics (K=0, S=1).
  pool->set_magazine_size(
      knob_or_env(opts.magazine_size, "PMEMCPY_MAGAZINE_SIZE", 8));
  pool->set_alloc_stripes(std::max(
      1, knob_or_env(opts.alloc_stripes, "PMEMCPY_ALLOC_STRIPES", 8)));
  auto table = node.table_for(pool, pool->root());
  table->set_auto_grow(opts.auto_grow);
  return make_table_engine(std::move(pool), std::move(table));
}

std::unique_ptr<Engine> open_tree_engine(PmemNode& node,
                                         const std::string& root,
                                         bool map_sync, par::Comm* comm) {
  const bool leader = comm == nullptr || comm->rank() == 0;
  if (leader && !node.fs().exists(root)) {
    node.fs().mkdirs(root);
  }
  if (comm) comm->barrier();
  return make_tree_engine(node.fs(), root, map_sync);
}

}  // namespace pmemcpy::engine
