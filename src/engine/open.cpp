// Collective engine-open paths: rank 0 creates the persistent container
// (the pool and its table, or the tree root directory), a barrier makes it
// visible, then every rank binds to the shared process-local instances.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/par/comm.hpp>

#include <string>
#include <utility>

namespace pmemcpy::engine {

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
  // Allocator hot-path default (DESIGN.md §14): engines arm magazines of 8
  // unless the caller says otherwise.  Raw Pool users keep the classic
  // fully-locked semantics (K=0).
  pool->set_magazine_size(opts.magazine_size < 0 ? 8 : opts.magazine_size);
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
