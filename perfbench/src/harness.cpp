// Phase runner, trace harvesting and metric output.
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace trace = pmemcpy::trace;
namespace sim = pmemcpy::sim;

namespace {

/// Call fn(i, linear) for every element of a 3-D @p box, where i is its
/// box-ordered index and linear its row-major index in @p global.
template <typename Fn>
void for_each_element(const Dimensions& global, const Box& box, Fn&& fn) {
  std::size_t i = 0;
  for (std::size_t x = 0; x < box.count[0]; ++x) {
    for (std::size_t y = 0; y < box.count[1]; ++y) {
      const std::size_t row =
          ((box.offset[0] + x) * global[1] + box.offset[1] + y) * global[2] +
          box.offset[2];
      for (std::size_t z = 0; z < box.count[2]; ++z) fn(i++, row + z);
    }
  }
}

}  // namespace

void fill_box(std::vector<double>& out, std::uint64_t seed, int var,
              const Dimensions& global, const Box& box) {
  out.resize(box.elements());
  for_each_element(global, box, [&](std::size_t i, std::size_t linear) {
    out[i] = element(seed, var, linear);
  });
}

std::size_t count_mismatches(const double* got, std::uint64_t seed, int var,
                             const Dimensions& global, const Box& box) {
  std::size_t bad = 0;
  for_each_element(global, box, [&](std::size_t i, std::size_t linear) {
    bad += got[i] != element(seed, var, linear) ? 1 : 0;
  });
  return bad;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (const auto& it : items_) {
    if (it.name == name) throw std::logic_error("metric set twice: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("metric is not finite: " + name);
  }
  items_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char num[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", items_[i].value);
    out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

void OpTally::merge(const OpTally& o) {
  attempted += o.attempted;
  failed += o.failed;
  user_bytes += o.user_bytes;
  put_us.insert(put_us.end(), o.put_us.begin(), o.put_us.end());
  get_us.insert(get_us.end(), o.get_us.begin(), o.get_us.end());
}

void TraceTally::harvest() {
  const std::vector<trace::SpanData> snap = trace::snapshot();
  // Self time = duration minus the part covered by direct children.
  std::vector<std::int64_t> child_ns(snap.size() + 1, 0);
  for (const auto& s : snap) {
    if (s.parent != 0 && s.parent <= snap.size()) {
      child_ns[s.parent] += s.duration_ns();
    }
  }
  for (const auto& s : snap) {
    if (s.end_ns < 0) continue;
    self_s[s.name] +=
        static_cast<double>(s.duration_ns() - child_ns[s.id]) * 1e-9;
    ++spans[s.name];
  }
  for (int c = 0; c < kNumCounters; ++c) {
    counters[static_cast<std::size_t>(c)] +=
        trace::counter(static_cast<trace::Counter>(c));
  }
  for (int h = 0; h < kNumHists; ++h) {
    hist_sum[static_cast<std::size_t>(h)] +=
        trace::histogram(static_cast<trace::Hist>(h)).sum;
  }
  dropped += trace::dropped_spans();
  trace::reset();
}

void TraceTally::merge(const TraceTally& o) {
  for (const auto& [k, v] : o.self_s) self_s[k] += v;
  for (const auto& [k, v] : o.spans) spans[k] += v;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    counters[i] += o.counters[i];
  }
  for (std::size_t i = 0; i < hist_sum.size(); ++i) {
    hist_sum[i] += o.hist_sum[i];
  }
  dropped += o.dropped;
}

double TraceTally::self(const std::string& span) const {
  const auto it = self_s.find(span);
  return it == self_s.end() ? 0.0 : it->second;
}

void RankCtx::round_sync() {
  comm.barrier();
  // Second collective: every rank has left (and closed the span of) the
  // barrier before rank 0 drains the registry.
  (void)comm.allreduce_max(0);
  if (trace != nullptr && comm.rank() == 0) trace->harvest();
  (void)comm.allreduce_max(0);
}

PhaseResult run_phase(PmemNode& node, TraceTally* tally,
                      const std::function<void(RankCtx&)>& body) {
  PhaseResult out;
  std::vector<OpTally> ops(kRanks);
  for (auto& o : ops) {  // keep reallocation out of the timed loops
    o.put_us.reserve(std::size_t{1} << 16);
    o.get_us.reserve(std::size_t{1} << 16);
  }
  std::vector<std::array<double, kNumCharges>> charged(kRanks);
  auto& dev = node.device();
  const std::uint64_t written0 = dev.bytes_written();
  const std::uint64_t read0 = dev.bytes_read();
  // Each phase maps the region afresh, as a separate application run would.
  dev.reset_page_touches();
  if (tally != nullptr) {
    trace::reset();
    trace::set_enabled(true);
  }
  pmemcpy::par::Runtime::Result res;
  const auto t0 = Clock::now();
  try {
    res = pmemcpy::par::Runtime::run(kRanks, [&](pmemcpy::par::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      RankCtx ctx{comm, ops[r], tally};
      body(ctx);
      const sim::Context& c = sim::ctx();
      for (int k = 0; k < kNumCharges; ++k) {
        charged[r][static_cast<std::size_t>(k)] =
            c.charged(static_cast<sim::Charge>(k));
      }
    });
  } catch (...) {
    trace::set_enabled(false);
    throw;
  }
  out.host_s = seconds_since(t0);
  if (tally != nullptr) {
    tally->harvest();
    trace::set_enabled(false);
  }
  out.sim_s = res.max_time;
  const auto crit = static_cast<std::size_t>(
      std::max_element(res.rank_times.begin(), res.rank_times.end()) -
      res.rank_times.begin());
  out.crit_charge = charged[crit];
  double busy_max = 0.0;
  double busy_min = 0.0;
  for (std::size_t r = 0; r < charged.size(); ++r) {
    double busy = 0.0;
    for (int k = 0; k < kNumCharges; ++k) {
      if (k != static_cast<int>(sim::Charge::kNetwork)) {
        busy += charged[r][static_cast<std::size_t>(k)];
      }
    }
    busy_max = r == 0 ? busy : std::max(busy_max, busy);
    busy_min = r == 0 ? busy : std::min(busy_min, busy);
  }
  out.busy_imbalance = busy_max > 0.0 ? (busy_max - busy_min) / busy_max : 0.0;
  out.dev_bytes_written = dev.bytes_written() - written0;
  out.dev_bytes_read = dev.bytes_read() - read0;
  for (const auto& o : ops) out.ops.merge(o);
  return out;
}

}  // namespace perfbench
