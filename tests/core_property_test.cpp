// Property-style sweeps of the pMEMCPY core: random decompositions round-
// trip for every dtype and rank count, overlapping reads assemble correctly,
// staged/direct modes agree bit-for-bit, and the trace layer's accounting
// invariants hold over real workloads (span nesting, charge attribution,
// counter/checker agreement).
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/trace/trace.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <random>

namespace {

using pmemcpy::Box;
using pmemcpy::Config;
using pmemcpy::Dimensions;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;

PmemNode::Options node_opts() {
  PmemNode::Options o;
  o.capacity = 96ull << 20;
  return o;
}

/// Typed generator pattern, exact for every supported dtype.
template <typename T>
T pattern(std::size_t lin) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(lin % 100000);
  } else {
    return static_cast<T>(lin * 2654435761u);
  }
}

template <typename T>
void roundtrip_random_boxes(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> nd_d(1, 4);
  const std::size_t nd = nd_d(rng);
  Dimensions global(nd);
  std::uniform_int_distribution<std::size_t> dim_d(2, 12);
  for (auto& d : global) d = dim_d(rng);

  PmemNode node(node_opts());
  Config cfg;
  cfg.node = &node;
  PMEM pmem{cfg};
  pmem.mmap("/prop");
  pmem.alloc<T>("v", global);

  // Partition dim 0 into contiguous slabs written as separate pieces.
  const Box gbox(Dimensions(nd, 0), global);
  std::size_t at = 0;
  while (at < global[0]) {
    std::uniform_int_distribution<std::size_t> cnt_d(1, global[0] - at);
    Box piece(Dimensions(nd, 0), global);
    piece.offset[0] = at;
    piece.count[0] = cnt_d(rng);
    at += piece.count[0];
    std::vector<T> data(piece.elements());
    pmemcpy::for_each_row(global, piece,
                          [&](std::size_t lin, std::size_t n, std::size_t off) {
                            for (std::size_t i = 0; i < n; ++i) {
                              data[off + i] = pattern<T>(lin + i);
                            }
                          });
    pmem.store("v", data.data(), static_cast<int>(nd), piece.offset.data(),
               piece.count.data());
  }

  // Read random sub-boxes (crossing piece boundaries) and verify.
  for (int trial = 0; trial < 8; ++trial) {
    Box want;
    want.offset.resize(nd);
    want.count.resize(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      std::uniform_int_distribution<std::size_t> off_d(0, global[d] - 1);
      want.offset[d] = off_d(rng);
      std::uniform_int_distribution<std::size_t> cnt_d(1,
                                                       global[d] - want.offset[d]);
      want.count[d] = cnt_d(rng);
    }
    std::vector<T> out(want.elements());
    pmem.load("v", out.data(), static_cast<int>(nd), want.offset.data(),
              want.count.data());
    pmemcpy::for_each_row(global, want,
                          [&](std::size_t lin, std::size_t n, std::size_t off) {
                            for (std::size_t i = 0; i < n; ++i) {
                              ASSERT_EQ(out[off + i], pattern<T>(lin + i))
                                  << "seed=" << seed << " lin=" << lin + i;
                            }
                          });
  }
  pmem.munmap();
}

class CorePropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CorePropertyTest, DoubleRandomBoxes) {
  roundtrip_random_boxes<double>(GetParam());
}
TEST_P(CorePropertyTest, FloatRandomBoxes) {
  roundtrip_random_boxes<float>(GetParam() + 1000);
}
TEST_P(CorePropertyTest, U32RandomBoxes) {
  roundtrip_random_boxes<std::uint32_t>(GetParam() + 2000);
}
TEST_P(CorePropertyTest, I64RandomBoxes) {
  roundtrip_random_boxes<std::int64_t>(GetParam() + 3000);
}
TEST_P(CorePropertyTest, U8RandomBoxes) {
  roundtrip_random_boxes<std::uint8_t>(GetParam() + 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorePropertyTest, ::testing::Range(0u, 10u));

TEST(CorePropertyModes, StagedAndDirectBitIdentical) {
  // The same stores through the direct and staged paths must produce
  // identical persistent bytes (only the cost differs).
  for (const bool staged : {false, true}) {
    PmemNode node(node_opts());
    Config cfg;
    cfg.node = &node;
    cfg.force_dram_staging = staged;
    PMEM pmem{cfg};
    pmem.mmap("/modes");
    std::vector<double> v(4096);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 0.5;
    const std::size_t dims = v.size(), off = 0;
    pmem.alloc<double>("A", 1, &dims);
    pmem.store("A", v.data(), 1, &off, &dims);
    std::vector<double> out(v.size());
    pmem.load("A", out.data(), 1, &off, &dims);
    EXPECT_EQ(out, v) << "staged=" << staged;
    pmem.munmap();
  }
}

TEST(CorePropertyParallel, RankCountSweepRoundtrips) {
  namespace wk = pmemcpy::wk;
  for (const int nranks : {1, 2, 6, 12}) {
    PmemNode node(node_opts());
    const auto dec = wk::decompose(16 * 16 * 16, nranks);
    pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
      const Box& mine =
          dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
      Config cfg;
      cfg.node = &node;
      PMEM pmem{cfg};
      pmem.mmap("/sweep", comm);
      std::vector<double> buf;
      wk::fill_box(buf, 0, dec.global, mine);
      pmem.alloc<double>("f", dec.global);
      pmem.store("f", buf.data(), 3, mine.offset.data(), mine.count.data());
      comm.barrier();
      // Every rank reads the *whole* array (crosses all pieces).
      const Box all(Dimensions(3, 0), dec.global);
      std::vector<double> out(all.elements());
      pmem.load("f", out.data(), 3, all.offset.data(), all.count.data());
      EXPECT_EQ(wk::verify_box(out, 0, dec.global, all), 0u)
          << "nranks=" << nranks << " rank=" << comm.rank();
      pmem.munmap();
    });
  }
}

TEST(CoreCrash, PublishedEntriesSurviveUnpublishedDont) {
  PmemNode::Options o = node_opts();
  o.crash_shadow = true;
  PmemNode node(o);
  Config cfg;
  cfg.node = &node;
  {
    PMEM pmem{cfg};
    pmem.mmap("/cr");
    std::vector<double> v(2048, 7.0);
    pmem.store("committed", v);
    pmem.store("epoch", std::int32_t{5});
    pmem.munmap();
  }
  {
    // Mid-flight reservation at crash time.
    auto pool = node.open_pool("_cr");
    auto table = node.table_for(pool, pool->root());
    auto ins = table->reserve("half-written", 8192);
    auto span = ins.value();
    std::memset(span.data(), 0x5A, span.size());
    node.device().simulate_crash();
  }
  node.remount();
  {
    PMEM pmem{cfg};
    pmem.mmap("/cr");
    EXPECT_EQ(pmem.load<std::int32_t>("epoch"), 5);
    const auto v = pmem.load<std::vector<double>>("committed");
    EXPECT_EQ(v.size(), 2048u);
    EXPECT_DOUBLE_EQ(v[2047], 7.0);
    EXPECT_FALSE(pmem.exists("half-written"));
    pmem.munmap();
  }
}

// --- trace-layer invariants over real workloads ------------------------------

namespace trace = pmemcpy::trace;

/// Arms tracing around a scope and restores the prior process-wide state.
struct ScopedTrace {
  ScopedTrace() : was(trace::enabled()) {
    trace::set_enabled(true);
    trace::reset();
  }
  ~ScopedTrace() {
    trace::reset();
    trace::set_enabled(was);
  }
  bool was;
};

/// A mixed serial workload touching every traced layer: scalar puts, a
/// batched group, an array piece, loads and a scrub.
void traced_workload(PmemNode& node) {
  Config cfg;
  cfg.node = &node;
  PMEM pmem{cfg};
  pmem.mmap("/traced");
  pmem.store("s", 41);
  {
    auto b = pmem.batch();
    pmem.store("a", std::int64_t{1});
    pmem.store("b", std::string("group"));
    b.commit();
  }
  std::vector<double> v(2048);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i);
  const std::size_t dims = v.size(), off = 0;
  pmem.alloc<double>("arr", 1, &dims);
  pmem.store("arr", v.data(), 1, &off, &dims);
  EXPECT_EQ(pmem.load<int>("s"), 41);
  std::vector<double> out(v.size());
  pmem.load("arr", out.data(), 1, &off, &dims);
  EXPECT_EQ(out, v);
  EXPECT_TRUE(pmem.scrub().ok());
  pmem.munmap();
}

TEST(TraceProperty, ChildSpanDurationsSumWithinParent) {
  ScopedTrace armed;
  // Multi-rank run: per-rank span stacks must nest independently.
  namespace wk = pmemcpy::wk;
  PmemNode node(node_opts());
  const auto dec = wk::decompose(12 * 12 * 12, 4);
  pmemcpy::par::Runtime::run(4, [&](pmemcpy::par::Comm& comm) {
    const Box& mine = dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
    Config cfg;
    cfg.node = &node;
    PMEM pmem{cfg};
    pmem.mmap("/nest", comm);
    std::vector<double> buf;
    wk::fill_box(buf, 0, dec.global, mine);
    pmem.alloc<double>("f", dec.global);
    pmem.store("f", buf.data(), 3, mine.offset.data(), mine.count.data());
    comm.barrier();
    std::vector<double> out(mine.elements());
    pmem.load("f", out.data(), 3, mine.offset.data(), mine.count.data());
    pmem.munmap();
  });

  const auto spans = trace::snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(trace::dropped_spans(), 0u);
  std::map<std::uint64_t, std::int64_t> child_ns;
  std::map<std::uint64_t, std::int64_t> child_count;
  std::map<std::uint64_t, const trace::SpanData*> index;
  for (const auto& s : spans) {
    index[s.id] = &s;
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent != 0) {
      child_ns[s.parent] += s.duration_ns();
      ++child_count[s.parent];
    }
  }
  for (const auto& [id, sum] : child_ns) {
    ASSERT_TRUE(index.count(id));
    const trace::SpanData& parent = *index.at(id);
    // Children run on the parent's thread inside the parent's window, so
    // their durations sum to at most the parent's (± 1 ns integer rounding
    // per child).
    EXPECT_LE(sum, parent.duration_ns() + child_count[id])
        << parent.name << " id=" << id;
  }
}

TEST(TraceProperty, SpanChargeAttributionSumsToDuration) {
  ScopedTrace armed;
  PmemNode node(node_opts());
  trace::reset();
  traced_workload(node);
  const auto spans = trace::snapshot();
  ASSERT_FALSE(spans.empty());
  for (const auto& s : spans) {
    double attributed = 0.0;
    for (int c = 0; c < trace::kNumChargeKinds; ++c) {
      EXPECT_GE(s.charge_sec[c], 0.0) << s.name;
      attributed += s.charge_sec[c];
    }
    // Every Context::advance() and sync_to() is categorised, so the
    // per-category deltas reproduce the wall time (up to ns rounding of
    // the two endpoint timestamps and float accumulation order).
    EXPECT_NEAR(attributed, static_cast<double>(s.duration_ns()) * 1e-9,
                1e-8)
        << s.name;
  }
}

TEST(TraceProperty, DeviceChargedTimeMatchesSpanAttribution) {
  ScopedTrace armed;
  PmemNode node(node_opts());
  trace::reset();
  auto& c = pmemcpy::sim::ctx();
  double before[trace::kNumChargeKinds];
  for (int i = 0; i < trace::kNumChargeKinds; ++i) {
    before[i] = c.charged(static_cast<pmemcpy::sim::Charge>(i));
  }
  {
    trace::Span outer("prop.outer");
    traced_workload(node);
  }
  const auto spans = trace::snapshot();
  const trace::SpanData* outer = nullptr;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "prop.outer") outer = &s;
  }
  ASSERT_NE(outer, nullptr);
  // The simulated time the device (and every other module) charged to the
  // context during the workload is exactly what the enclosing span
  // attributes — the trace adds no time of its own and loses none.
  for (int i = 0; i < trace::kNumChargeKinds; ++i) {
    const auto why = static_cast<pmemcpy::sim::Charge>(i);
    EXPECT_NEAR(outer->charge_sec[i], c.charged(why) - before[i], 1e-12)
        << "charge category " << i;
  }
}

TEST(TraceProperty, CounterTotalsMatchCheckerReport) {
  ScopedTrace armed;
  PmemNode node(node_opts());
  node.device().enable_checker();
  trace::reset();  // both tallies now start from the same instant
  // Under the persist-check CI config the checker has been armed since node
  // construction (PMEMCPY_PERSIST_CHECK=1), so its totals already include
  // pre-reset construction traffic the trace never saw.  Snapshot it and
  // compare deltas: in a plain build the snapshot is simply zero.
  auto& dev = node.device();
  const auto before = dev.checker()->report();
  traced_workload(node);
  // Plant one of each lint on the last line, which the workload never
  // touches: a duplicate flush (same epoch, no store in between), a clean
  // flush (next epoch) and a fence that orders nothing.
  const std::size_t off = dev.capacity() - 64;
  const std::uint64_t word = 7;
  dev.write(off, &word, sizeof(word));
  dev.flush(off, sizeof(word));
  dev.flush(off, sizeof(word));
  dev.drain();
  dev.flush(off, sizeof(word));
  dev.drain();
  dev.drain();
  const auto rep = dev.checker()->report();
  // The checker counts each tally on its trace counter as it records it,
  // so the two accountings agree while the device is still live.
  using pmemcpy::check::Report;
  const std::pair<trace::Counter, std::uint64_t Report::*> mirrored[] = {
      {trace::Counter::kCleanFlushes, &Report::clean_flushes},
      {trace::Counter::kDuplicateFlushes, &Report::duplicate_flushes},
      {trace::Counter::kEmptyFences, &Report::empty_fences},
      {trace::Counter::kCorrectnessViolations,
       &Report::correctness_violations},
  };
  for (const auto& [c, field] : mirrored) {
    EXPECT_EQ(trace::counter(c), rep.*field - before.*field)
        << trace::counter_name(c);
  }
  EXPECT_EQ(trace::counter(trace::Counter::kCleanFlushes), 1u);
  EXPECT_EQ(trace::counter(trace::Counter::kDuplicateFlushes), 1u);
  EXPECT_EQ(trace::counter(trace::Counter::kEmptyFences), 1u);
  // Consume the planted findings: the checker CI config aborts on any
  // left at device destruction.
  (void)dev.checker()->take_report();
}

TEST(TraceProperty, PutPathStagesNoDramBytes) {
  ScopedTrace armed;
  PmemNode node(node_opts());
  // The acceptance gate of the zero-copy refactor (DESIGN.md §12), held as
  // a tier-1 invariant: single puts, group commits and array stores stage
  // nothing in DRAM on either layout — every serialized byte lands in the
  // reserved PMEM span (or streams through the DAX mapping) directly.
  for (const auto layout :
       {pmemcpy::Layout::kHashTable, pmemcpy::Layout::kHierarchical}) {
    trace::reset();
    Config cfg;
    cfg.node = &node;
    cfg.layout = layout;
    cfg.serializer = pmemcpy::serial::SerializerId::kBinary;
    PMEM pmem{cfg};
    pmem.mmap(layout == pmemcpy::Layout::kHashTable ? "/zc_flat"
                                                    : "/zc_tree");
    pmem.store("s", 41);
    {
      auto b = pmem.batch();
      pmem.store("a", std::int64_t{1});
      pmem.store("b", std::string("group"));
      b.commit();
    }
    std::vector<double> v(512, 1.5);
    const std::size_t dims = v.size(), off = 0;
    pmem.alloc<double>("arr", 1, &dims);
    pmem.store("arr", v.data(), 1, &off, &dims);
    EXPECT_EQ(pmem.load<int>("s"), 41);
    pmem.munmap();
    EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedBytes), 0u)
        << "layout " << static_cast<int>(layout);
    EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedPuts), 0u)
        << "layout " << static_cast<int>(layout);
    EXPECT_GT(trace::counter(trace::Counter::kCopyDirectBytes), 0u)
        << "layout " << static_cast<int>(layout);
  }
}

TEST(TraceProperty, ForcedStagingIsChargedToTheAudit) {
  ScopedTrace armed;
  PmemNode node(node_opts());
  trace::reset();
  Config cfg;
  cfg.node = &node;
  cfg.force_dram_staging = true;  // the ADIOS-style ablation
  PMEM pmem{cfg};
  pmem.mmap("/zc_staged");
  pmem.store("s", 41);
  EXPECT_EQ(trace::counter(trace::Counter::kCopyStagedPuts), 1u);
  EXPECT_GT(trace::counter(trace::Counter::kCopyStagedBytes), 0u);
  pmem.munmap();
}

/// Self charge of category @p why in the last span named @p name: its
/// inclusive charge minus its children's.
double self_charge(const std::vector<trace::SpanData>& spans,
                   std::string_view name, pmemcpy::sim::Charge why) {
  const trace::SpanData* span = nullptr;
  for (const auto& s : spans) {
    if (name == s.name) span = &s;
  }
  if (span == nullptr) return -1.0;
  double self = span->charge(why);
  for (const auto& s : spans) {
    if (s.parent == span->id) self -= s.charge(why);
  }
  return self;
}

TEST(TraceProperty, SymmetricGetChargesOneWholeBlobRead) {
  // The one get path (DESIGN.md §13): with the read cache off, a symmetric
  // piece load reads its whole blob once, in place, and checks its CRC over
  // that span — no second read for the header.  The staging ablation
  // charges the same read plus one DRAM copy of the payload.
  using pmemcpy::sim::Charge;
  ScopedTrace armed;
  auto& c = pmemcpy::sim::ctx();
  const auto& pm = c.model().pmem;
  const std::vector<double> v(4096, 2.5);
  const std::size_t dims = v.size(), off = 0;
  for (const auto layout :
       {pmemcpy::Layout::kHashTable, pmemcpy::Layout::kHierarchical}) {
    for (const bool staged : {false, true}) {
      SCOPED_TRACE(std::string(layout == pmemcpy::Layout::kHashTable
                                   ? "table"
                                   : "tree") +
                   (staged ? ", staged" : ", direct"));
      PmemNode node(node_opts());
      Config cfg;
      cfg.node = &node;
      cfg.layout = layout;
      cfg.force_dram_staging = staged;
      PMEM pmem{cfg};
      pmem.mmap("/get");
      pmem.alloc<double>("A", 1, &dims);
      pmem.store("A", v.data(), 1, &off, &dims);
      std::size_t blob_bytes = 0;
      pmem.for_each_raw([&](const std::string& key,
                            std::span<const std::byte> blob, std::uint64_t) {
        if (key.find("#p:") != std::string::npos) blob_bytes = blob.size();
      });
      ASSERT_GT(blob_bytes, v.size() * sizeof(double));
      trace::reset();
      std::vector<double> out(v.size());
      pmem.load("A", out.data(), 1, &off, &dims);
      EXPECT_EQ(out, v);
      const auto spans = trace::snapshot();
      const double read =
          pm.read_latency + static_cast<double>(blob_bytes) /
                                c.shared_bw(pm.read_stream_bw,
                                            pm.read_total_bw);
      EXPECT_NEAR(self_charge(spans, "core.get", Charge::kPmemRead), read,
                  1e-12);
      const std::size_t payload = v.size() * sizeof(double);
      const double copy_before = c.charged(Charge::kCpuCopy);
      c.charge_cpu_copy(payload);
      const double copy =
          staged ? c.charged(Charge::kCpuCopy) - copy_before : 0.0;
      EXPECT_NEAR(self_charge(spans, "core.get", Charge::kCpuCopy), copy,
                  1e-12);
      EXPECT_EQ(trace::counter(trace::Counter::kCopyReadDirectBytes),
                staged ? 0u : payload);
      EXPECT_EQ(trace::counter(trace::Counter::kCopyReadStagedBytes),
                staged ? payload : 0u);
      pmem.munmap();
    }
  }
}

TEST(CoreCrash, OverwriteTornByCrashKeepsOldValue) {
  PmemNode::Options o = node_opts();
  o.crash_shadow = true;
  PmemNode node(o);
  Config cfg;
  cfg.node = &node;
  {
    PMEM pmem{cfg};
    pmem.mmap("/cr2");
    pmem.store("x", std::uint64_t{111});
    pmem.munmap();
  }
  {
    // Simulate a crash in the middle of an overwrite: reserve the new value
    // but never publish (the link-in is the atomic commit point).
    auto pool = node.open_pool("_cr2");
    auto table = node.table_for(pool, pool->root());
    auto ins = table->reserve("x", 64);
    auto span = ins.value();
    std::memset(span.data(), 0xFF, span.size());
    node.device().simulate_crash();
  }
  node.remount();
  {
    PMEM pmem{cfg};
    pmem.mmap("/cr2");
    EXPECT_EQ(pmem.load<std::uint64_t>("x"), 111u);
    pmem.munmap();
  }
}

TEST(CoreCrash, CrashMidSerializeIntoReservedSpanLeavesNoTrace) {
  // Zero-copy hazard check (DESIGN.md §12): with reserve-then-serialize the
  // serializer writes into PMEM *before* commit, so a crash mid-serialize
  // leaves a half-filled reserved blob in the pool.  It must be unreachable
  // after recovery (the link-in never happened) and the scrubber must not
  // count the torn bytes as corruption.
  PmemNode::Options o = node_opts();
  o.crash_shadow = true;
  PmemNode node(o);
  Config cfg;
  cfg.node = &node;
  {
    PMEM pmem{cfg};
    pmem.mmap("/crz");
    pmem.store("x", std::int32_t{7});
    pmem.munmap();
  }
  {
    auto pool = node.open_pool("_crz");
    auto table = node.table_for(pool, pool->root());
    auto ins = table->reserve("y", 64);
    auto span = ins.value();
    std::memset(span.data(), 0xAB, span.size() / 2);  // serializer half-done
    node.device().simulate_crash();
  }
  node.remount();
  {
    PMEM pmem{cfg};
    pmem.mmap("/crz");
    EXPECT_FALSE(pmem.exists("y"));
    EXPECT_EQ(pmem.load<std::int32_t>("x"), 7);
    EXPECT_TRUE(pmem.scrub().ok());
    pmem.munmap();
  }
}

TEST(CoreCrash, TreeCrashMidSerializeLeavesNoTrace) {
  // Same hazard on the hierarchical layout: the payload span is reserved
  // over the entry's unnamed file, so a crash mid-serialize strands a half-
  // filled file that no name reaches, and the remount frees it.  Recovery
  // must neither surface the key nor let the scrubber flag the stranded
  // bytes.
  PmemNode::Options o = node_opts();
  o.crash_shadow = true;
  PmemNode node(o);
  Config cfg;
  cfg.node = &node;
  cfg.layout = pmemcpy::Layout::kHierarchical;
  {
    PMEM pmem{cfg};
    pmem.mmap("/crzt");
    pmem.store("x", std::int32_t{7});
    pmem.munmap();
  }
  {
    auto eng = pmemcpy::engine::open_tree_engine(node, "/crzt", false, nullptr);
    auto put = eng->put("y", 64, 0, false);
    ASSERT_FALSE(put->reserved_span().empty());
    std::vector<std::byte> half(32, std::byte{0xCD});
    put->sink().write(half.data(), half.size());
    node.device().simulate_crash();
    // The handle dies here, post-crash; its cleanup writes vanish with the
    // frozen device rather than mutating the crash image.
  }
  node.remount();
  {
    PMEM pmem{cfg};
    pmem.mmap("/crzt");
    EXPECT_FALSE(pmem.exists("y"));
    EXPECT_EQ(pmem.load<std::int32_t>("x"), 7);
    EXPECT_TRUE(pmem.scrub().ok());
    pmem.munmap();
  }
}

}  // namespace
