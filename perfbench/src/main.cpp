// perfbench: the repository benchmark binary (driven by perfbench/run.py).
//
//   perfbench --workload <checkpoint|analysis|small_kv|tree_vars>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny] [--inject-fault]
//
// One run: generate the seeded inputs, run one warm-up repetition, then
// repeat (fresh node -> write phase -> read phase) for the time budget.
// --trace 0 reports the end-to-end metrics of the untraced repetitions.
// --trace 1 splits the budget between untraced repetitions, traced ones
// (spans and counters per layer) and the layer replays.  The last stdout
// line is one JSON object: correct, attempted, failed and every metric.
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace {

using namespace perfbench;
namespace trace = pmemcpy::trace;
using pmemcpy::sim::Charge;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (0 when there are no samples).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Rep {
  double setup_s = 0.0;
  PhaseResult write;
  PhaseResult read;
  TraceTally write_trace;
  TraceTally read_trace;
};

/// Fresh node (set-up) -> write phase -> read phase.
Rep run_rep(Workload& wl, bool traced) {
  Rep rep;
  const auto t0 = Clock::now();
  auto node = wl.make_node();
  rep.setup_s = seconds_since(t0);
  rep.write = wl.write(*node, traced ? &rep.write_trace : nullptr);
  rep.read = wl.read(*node, traced ? &rep.read_trace : nullptr);
  return rep;
}

/// Does the critical rank's charge split add up to the phase's simulated
/// time?  Every advance of a rank's clock is attributed to one category.
bool split_sums(const PhaseResult& p) {
  double sum = 0.0;
  for (const double c : p.crit_charge) sum += c;
  return std::fabs(sum - p.sim_s) <= 1e-9 * std::max(1.0, p.sim_s);
}

/// Spans whose summed self time is reported as "<span>_sim_self_s".
constexpr const char* kSelfSpans[] = {
    "core.put",   "core.get",        "core.batch_commit", "core.mmap",
    "engine.put", "engine.get",      "engine.batch_commit",
    "pool.alloc", "pool.free",       "pool.refill",       "pool.flushback",
    "tx.commit",  "ht.publish",      "ht.publish_group",  "ht.rehash",
    "fs.fsync",   "par.barrier"};

/// Charge categories reported per phase for the critical rank.
constexpr Charge kSplit[] = {Charge::kCpuCopy,     Charge::kPmemRead,
                             Charge::kPmemWrite,   Charge::kPmemPersist,
                             Charge::kNetwork,     Charge::kSyscall,
                             Charge::kPageFault,   Charge::kOther};

void per_layer_metrics(const std::vector<Rep>& traced, Metrics& m,
                       bool* correct) {
  const double n = static_cast<double>(traced.size());
  TraceTally all;
  TraceTally writes;
  std::uint64_t puts = 0;
  double user_w = 0.0, user_r = 0.0, dev_w = 0.0, dev_r = 0.0;
  std::vector<double> imbalance;
  std::array<std::vector<double>, kNumCharges> wsplit, rsplit;
  for (const Rep& rep : traced) {
    all.merge(rep.write_trace);
    all.merge(rep.read_trace);
    writes.merge(rep.write_trace);
    puts += rep.write.ops.put_us.size();
    user_w += static_cast<double>(rep.write.ops.user_bytes);
    user_r += static_cast<double>(rep.read.ops.user_bytes);
    dev_w += static_cast<double>(rep.write.dev_bytes_written);
    dev_r += static_cast<double>(rep.read.dev_bytes_read);
    imbalance.push_back(rep.write.busy_imbalance);
    for (int k = 0; k < kNumCharges; ++k) {
      wsplit[static_cast<std::size_t>(k)].push_back(
          rep.write.crit_charge[static_cast<std::size_t>(k)]);
      rsplit[static_cast<std::size_t>(k)].push_back(
          rep.read.crit_charge[static_cast<std::size_t>(k)]);
    }
  }
  using C = trace::Counter;
  const auto per_rep = [&](double v) { return v / n; };
  const auto cnt = [&](C c) { return static_cast<double>(all.counter(c)); };
  const double dputs = static_cast<double>(puts);

  for (const char* span : kSelfSpans) {
    m.set(std::string(span) + "_sim_self_s", per_rep(all.self(span)), "s");
  }
  m.set("serial.serialize_sim_s", per_rep(all.self("core.serialize")), "s");

  const double hits = cnt(C::kReadCacheHits);
  const double lookups = hits + cnt(C::kReadCacheMisses);
  m.set("core.cache_hit_ratio", ratio(hits, lookups), "ratio");
  m.set("core.cache_lookups", per_rep(lookups), "count");
  m.set("core.cache_evictions", per_rep(cnt(C::kReadCacheEvictions)), "count");
  const double staged = cnt(C::kCopyStagedBytes) + cnt(C::kCopyReadStagedBytes);
  m.set("core.staged_bytes", per_rep(staged), "B");
  if (staged != 0.0) *correct = false;  // the zero-copy data path regressed

  m.set("pool.lane_acq_per_put",
        ratio(static_cast<double>(writes.counter(C::kAllocLaneAcquisitions)),
              dputs),
        "count");
  m.set("pool.queue_s",
        per_rep(all.hist_sum[static_cast<std::size_t>(
            trace::Hist::kShardQueueDelay)]),
        "s");
  m.set("pool.magazine_hit_ratio",
        ratio(cnt(C::kAllocMagazineHits), cnt(C::kAllocOps)), "ratio");
  const auto rehashes = all.spans.find("ht.rehash");
  m.set("ht.rehash_count",
        per_rep(rehashes == all.spans.end()
                    ? 0.0
                    : static_cast<double>(rehashes->second)),
        "count");

  m.set("dev.write_amp", ratio(dev_w, user_w), "ratio");
  m.set("dev.read_amp", ratio(dev_r, user_r), "ratio");
  m.set("dev.flushes_per_put",
        ratio(static_cast<double>(writes.counter(C::kFlushOps)), dputs),
        "count");
  m.set("dev.fences_per_put",
        ratio(static_cast<double>(writes.counter(C::kFenceOps)), dputs),
        "count");
  m.set("dev.lines_flushed_per_put",
        ratio(static_cast<double>(writes.counter(C::kLinesFlushed)), dputs),
        "count");
  for (const Charge c : kSplit) {
    const auto k = static_cast<std::size_t>(c);
    m.set(std::string("dev.write.charge_") + trace::charge_name(c) + "_s",
          median(wsplit[k]), "s");
    m.set(std::string("dev.read.charge_") + trace::charge_name(c) + "_s",
          median(rsplit[k]), "s");
  }
  m.set("par.rank_imbalance", median(imbalance), "ratio");
  m.set("trace.dropped_spans", static_cast<double>(all.dropped), "count");
  if (all.dropped != 0) *correct = false;
}

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

RunResult run(const Options& opts) {
  RunResult out;
  auto wl = make_workload(opts);
  const auto gen0 = Clock::now();
  wl->generate();
  const double gen_s = seconds_since(gen0);
  std::printf("%s\n", wl->describe().c_str());
  std::fflush(stdout);

  std::vector<double> setup;
  const auto account = [&](const Rep& rep) {
    for (const PhaseResult* p : {&rep.write, &rep.read}) {
      out.attempted += p->ops.attempted;
      out.failed += p->ops.failed;
      if (!split_sums(*p)) {
        std::fprintf(stderr, "charge split does not sum to the phase time\n");
        out.correct = false;
      }
    }
  };

  // Warm-up: a whole discarded repetition, charged to its set-up sample
  // together with input generation.
  {
    const Rep warm = run_rep(*wl, false);
    account(warm);
    setup.push_back(gen_s + warm.setup_s + warm.write.host_s +
                    warm.read.host_s);
  }
  wl->expect.arm(opts.inject_fault);

  // Untraced repetitions: the end-to-end numbers.
  const double untraced_budget = opts.trace ? 0.3 * opts.seconds : opts.seconds;
  const std::size_t min_reps = opts.trace ? 2 : 3;
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  while (reps.size() < min_reps || seconds_since(t0) < untraced_budget) {
    reps.push_back(run_rep(*wl, false));
    account(reps.back());
    setup.push_back(reps.back().setup_s);
  }

  std::vector<double> wsim, rsim, whost, rhost, host_sum, put_us, get_us;
  for (const Rep& rep : reps) {
    wsim.push_back(rep.write.sim_s);
    rsim.push_back(rep.read.sim_s);
    whost.push_back(rep.write.host_s);
    rhost.push_back(rep.read.host_s);
    host_sum.push_back(rep.write.host_s + rep.read.host_s);
    put_us.insert(put_us.end(), rep.write.ops.put_us.begin(),
                  rep.write.ops.put_us.end());
    get_us.insert(get_us.end(), rep.read.ops.get_us.begin(),
                  rep.read.ops.get_us.end());
  }
  Metrics& m = out.metrics;
  m.set("write_sim_s", median(wsim), "s");
  m.set("read_sim_s", median(rsim), "s");
  m.set("write_host_s", median(whost), "s");
  m.set("read_host_s", median(rhost), "s");
  m.set("put_host_p50_us", percentile(put_us, 0.50), "us");
  m.set("put_host_p99_us", percentile(put_us, 0.99), "us");
  m.set("get_host_p50_us", percentile(get_us, 0.50), "us");
  m.set("get_host_p99_us", percentile(get_us, 0.99), "us");
  m.set("put_calls", static_cast<double>(put_us.size()), "count");
  m.set("get_calls", static_cast<double>(get_us.size()), "count");
  m.set("reps", static_cast<double>(reps.size()), "count");

  if (opts.trace) {
    std::vector<Rep> traced;
    const auto t1 = Clock::now();
    while (traced.empty() || seconds_since(t1) < 0.4 * opts.seconds) {
      traced.push_back(run_rep(*wl, true));
      account(traced.back());
    }
    per_layer_metrics(traced, m, &out.correct);
    std::vector<double> traced_sum;
    for (const Rep& rep : traced) {
      traced_sum.push_back(rep.write.host_s + rep.read.host_s);
    }
    m.set("trace.overhead", ratio(median(traced_sum), median(host_sum)),
          "ratio");
    run_replays(wl->profile(), 0.3 * opts.seconds, m);
  }

  m.set("setup_s", median(setup), "s");
  m.set("op_fail_ratio",
        ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio");
  if (out.failed != 0) out.correct = false;
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <checkpoint|analysis|small_kv|"
               "tree_vars> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--inject-fault]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = value() == "1";
    } else if (a == "--tiny") {
      opts.tiny = true;
    } else if (a == "--inject-fault") {
      opts.inject_fault = true;
    } else {
      usage();
    }
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0)) usage();
  try {
    const RunResult r = run(opts);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        r.correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), r.metrics.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
