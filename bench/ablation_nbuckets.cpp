// ABL-BUCKETS: the paper's §3 claim that hashtable metadata "utilizes the
// high parallelism and random access characteristics of PMEM".  Sweeps the
// bucket count for a metadata-heavy workload (many tiny variables from many
// ranks): too few buckets serialize metadata updates on long chains; enough
// buckets let rank-parallel latency-bound updates proceed independently.
#include "figures_common.hpp"

namespace {

using namespace figbench;

double run_with_buckets(std::size_t nbuckets, PmemNode& node,
                        const wk::Decomposition& dec, int nvars, int nranks) {
  node.device().reset_page_touches();
  auto result = pmemcpy::par::Runtime::run(
      nranks, [&](pmemcpy::par::Comm& comm) {
        const Box& mine =
            dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
        pmemcpy::Config cfg;
        cfg.node = &node;
        cfg.nbuckets = nbuckets;
        cfg.auto_grow_table = false;  // the sweep pins the bucket count
        pmemcpy::PMEM pmem{cfg};
        pmem.mmap("/b" + std::to_string(nbuckets), comm);
        std::vector<double> buf;
        for (int v = 0; v < nvars; ++v) {
          wk::fill_box(buf, v, dec.global, mine);
          pmem.alloc<double>(var_name(v), dec.global);
          pmem.store(var_name(v), buf.data(), 3, mine.offset.data(),
                     mine.count.data());
        }
        pmem.munmap();
      });
  return result.max_time;
}

}  // namespace

int main() {
  constexpr int kProcs = 24;
  constexpr int kVars = 500;  // 500 vars x 24 ranks = 12000 pieces + dims
  const auto dec = wk::decompose(static_cast<std::size_t>(kProcs) * 128,
                                 kProcs);  // tiny pieces: metadata dominates
  std::printf("ablation_nbuckets: %d tiny variables at %d procs "
              "(~%zu metadata entries)\n",
              kVars, kProcs,
              static_cast<std::size_t>(kVars) * (kProcs + 1));
  std::printf("%-10s %12s %16s\n", "nbuckets", "write(s)", "entries/bucket");

  // 64 buckets already chains ~195 entries per bucket; the sweep starts
  // there so its rows stay comparable with the recorded ones.
  for (const std::size_t nb : {64ull, 256ull, 4096ull, 65536ull}) {
    PmemNode::Options o;
    o.capacity = 1ull << 30;
    o.pool_fraction = 0.9;
    PmemNode node(o);
    const double t = run_with_buckets(nb, node, dec, kVars, kProcs);
    const double load =
        static_cast<double>(kVars) * (kProcs + 1) / static_cast<double>(nb);
    std::printf("%-10zu %12.4f %16.1f\n", nb, t, load);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: long chains (few buckets) pay linear key "
              "walks per insert — latency-bound PMEM reads — while large "
              "tables keep chains short and updates parallel.\n");
  return 0;
}
