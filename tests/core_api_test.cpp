// End-to-end tests of the public pMEMCPY API (paper Figure 2).
#include <pmemcpy/pmemcpy.hpp>

#include <gtest/gtest.h>

#include <numeric>

namespace {

using pmemcpy::Box;
using pmemcpy::Config;
using pmemcpy::Dimensions;
using pmemcpy::Layout;
using pmemcpy::PMEM;
using pmemcpy::PmemNode;

PmemNode::Options small_node() {
  PmemNode::Options o;
  o.capacity = 64ull << 20;
  return o;
}

struct Particle {
  double x = 0, y = 0, z = 0;
  std::int32_t species = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x, y, z, species);
  }
  friend bool operator==(const Particle&, const Particle&) = default;
};

class CoreApiTest : public ::testing::TestWithParam<
                        std::tuple<Layout, pmemcpy::serial::SerializerId>> {
 protected:
  CoreApiTest() : node_(small_node()) {}

  Config config() const {
    Config c;
    c.node = &node_;
    c.layout = std::get<0>(GetParam());
    c.serializer = std::get<1>(GetParam());
    return c;
  }

  mutable PmemNode node_;
};

TEST_P(CoreApiTest, ScalarRoundtrip) {
  PMEM pmem{config()};
  pmem.mmap("/scalars");
  const double pi = 3.14159;
  pmem.store("pi", pi);
  pmem.store("answer", std::int32_t{42});
  EXPECT_DOUBLE_EQ(pmem.load<double>("pi"), pi);
  EXPECT_EQ(pmem.load<std::int32_t>("answer"), 42);
  pmem.munmap();
}

TEST_P(CoreApiTest, ScalarOverwrite) {
  PMEM pmem{config()};
  pmem.mmap("/scalars");
  pmem.store("x", std::uint64_t{1});
  pmem.store("x", std::uint64_t{2});
  EXPECT_EQ(pmem.load<std::uint64_t>("x"), 2u);
  pmem.munmap();
}

TEST_P(CoreApiTest, StructRoundtrip) {
  PMEM pmem{config()};
  pmem.mmap("/structs");
  Particle p{1.5, -2.5, 3.5, 7};
  pmem.store("p", p);
  EXPECT_EQ(pmem.load<Particle>("p"), p);
  pmem.munmap();
}

TEST_P(CoreApiTest, VectorRoundtrip) {
  PMEM pmem{config()};
  pmem.mmap("/vectors");
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 0.0);
  pmem.store("v", v);
  EXPECT_EQ(pmem.load<std::vector<double>>("v"), v);
  pmem.munmap();
}

TEST_P(CoreApiTest, Array1DRoundtrip) {
  PMEM pmem{config()};
  pmem.mmap("/arrays");
  const std::size_t dims = 100;
  pmem.alloc<double>("A", 1, &dims);
  std::vector<double> data(100);
  std::iota(data.begin(), data.end(), 0.0);
  const std::size_t off = 0, cnt = 100;
  pmem.store("A", data.data(), 1, &off, &cnt);

  std::vector<double> out(100, -1.0);
  pmem.load("A", out.data(), 1, &off, &cnt);
  EXPECT_EQ(out, data);
  pmem.munmap();
}

TEST_P(CoreApiTest, LoadDims) {
  PMEM pmem{config()};
  pmem.mmap("/dims");
  Dimensions dims{40, 30, 20};
  pmem.alloc<float>("cube", dims);
  EXPECT_EQ(pmem.load_dims("cube"), dims);
  int nd = 0;
  std::size_t raw[8] = {};
  pmem.load_dims("cube", &nd, raw);
  EXPECT_EQ(nd, 3);
  EXPECT_EQ(raw[0], 40u);
  EXPECT_EQ(raw[2], 20u);
  pmem.munmap();
}

TEST_P(CoreApiTest, Array3DPiecesSymmetric) {
  PMEM pmem{config()};
  pmem.mmap("/cube");
  Dimensions global{8, 8, 8};
  pmem.alloc<double>("cube", global);
  // Two pieces: top and bottom halves.
  std::vector<double> top(4 * 8 * 8), bottom(4 * 8 * 8);
  std::iota(top.begin(), top.end(), 0.0);
  std::iota(bottom.begin(), bottom.end(), 1000.0);
  const std::size_t off_top[3] = {0, 0, 0};
  const std::size_t off_bot[3] = {4, 0, 0};
  const std::size_t cnt[3] = {4, 8, 8};
  pmem.store("cube", top.data(), 3, off_top, cnt);
  pmem.store("cube", bottom.data(), 3, off_bot, cnt);

  std::vector<double> out(4 * 8 * 8, -1);
  pmem.load("cube", out.data(), 3, off_bot, cnt);
  EXPECT_EQ(out, bottom);
  pmem.load("cube", out.data(), 3, off_top, cnt);
  EXPECT_EQ(out, top);
  pmem.munmap();
}

TEST_P(CoreApiTest, Array3DNonSymmetricRead) {
  PMEM pmem{config()};
  pmem.mmap("/cube2");
  Dimensions global{8, 8, 8};
  pmem.alloc<double>("c", global);
  std::vector<double> top(4 * 8 * 8), bottom(4 * 8 * 8);
  for (std::size_t i = 0; i < top.size(); ++i) top[i] = double(i);
  for (std::size_t i = 0; i < bottom.size(); ++i) bottom[i] = double(i) + 256;
  const std::size_t off_top[3] = {0, 0, 0};
  const std::size_t off_bot[3] = {4, 0, 0};
  const std::size_t cnt[3] = {4, 8, 8};
  pmem.store("c", top.data(), 3, off_top, cnt);
  pmem.store("c", bottom.data(), 3, off_bot, cnt);

  // Read a slab crossing both pieces: rows 2..5.
  const std::size_t roff[3] = {2, 0, 0};
  const std::size_t rcnt[3] = {4, 8, 8};
  std::vector<double> out(4 * 8 * 8, -1);
  pmem.load("c", out.data(), 3, roff, rcnt);
  // Row-major: global element (i,j,k) = i*64 + j*8 + k.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t jk = 0; jk < 64; ++jk) {
      const std::size_t gi = i + 2;
      const double expect =
          gi < 4 ? double(gi * 64 + jk) : double((gi - 4) * 64 + jk) + 256;
      ASSERT_EQ(out[i * 64 + jk], expect) << "i=" << i << " jk=" << jk;
    }
  }
  pmem.munmap();
}

TEST_P(CoreApiTest, ExistsRemove) {
  PMEM pmem{config()};
  pmem.mmap("/ns");
  EXPECT_FALSE(pmem.exists("gone"));
  pmem.store("x", 1.0);
  EXPECT_TRUE(pmem.exists("x"));
  pmem.remove("x");
  EXPECT_FALSE(pmem.exists("x"));
  EXPECT_THROW(pmem.remove("x"), pmemcpy::KeyError);
  pmem.munmap();
}

TEST_P(CoreApiTest, LoadMissingThrows) {
  PMEM pmem{config()};
  pmem.mmap("/missing");
  EXPECT_THROW((void)pmem.load<double>("nope"), pmemcpy::KeyError);
  EXPECT_THROW(pmem.load_dims("nope"), pmemcpy::KeyError);
  pmem.munmap();
}

TEST_P(CoreApiTest, DTypeMismatchThrows) {
  PMEM pmem{config()};
  pmem.mmap("/types");
  pmem.store("d", 1.0);
  EXPECT_THROW((void)pmem.load<float>("d"), pmemcpy::TypeError);
  pmem.munmap();
}

TEST_P(CoreApiTest, UseBeforeMmapThrows) {
  PMEM pmem{config()};
  EXPECT_THROW(pmem.store("x", 1.0), pmemcpy::StateError);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSerializers, CoreApiTest,
    ::testing::Combine(
        ::testing::Values(Layout::kHashTable, Layout::kHierarchical),
        ::testing::Values(pmemcpy::serial::SerializerId::kBp4,
                          pmemcpy::serial::SerializerId::kBinary,
                          pmemcpy::serial::SerializerId::kRaw,
                          pmemcpy::serial::SerializerId::kCapnp)),
    [](const auto& info) {
      const auto layout = std::get<0>(info.param);
      const auto ser = std::get<1>(info.param);
      std::string name =
          layout == Layout::kHashTable ? "Table" : "Tree";
      switch (ser) {
        case pmemcpy::serial::SerializerId::kBp4: name += "Bp4"; break;
        case pmemcpy::serial::SerializerId::kBinary: name += "Binary"; break;
        case pmemcpy::serial::SerializerId::kRaw: name += "Raw"; break;
        case pmemcpy::serial::SerializerId::kCapnp: name += "Capnp"; break;
      }
      return name;
    });

TEST(CoreApiParallel, CollectiveWriteRead) {
  PmemNode node(small_node());
  constexpr int kRanks = 4;
  constexpr std::size_t kPer = 100;
  auto result = pmemcpy::par::Runtime::run(kRanks, [&](pmemcpy::par::Comm& comm) {
    Config cfg;
    cfg.node = &node;
    PMEM pmem{cfg};
    pmem.mmap("/parallel.pmem", comm);
    const std::size_t dimsf = kPer * kRanks;
    pmem.alloc<double>("A", 1, &dimsf);
    std::vector<double> data(kPer);
    for (std::size_t i = 0; i < kPer; ++i) {
      data[i] = double(comm.rank() * 1000 + i);
    }
    const std::size_t off = kPer * static_cast<std::size_t>(comm.rank());
    const std::size_t cnt = kPer;
    pmem.store("A", data.data(), 1, &off, &cnt);
    comm.barrier();
    // Symmetric read-back.
    std::vector<double> out(kPer, -1);
    pmem.load("A", out.data(), 1, &off, &cnt);
    EXPECT_EQ(out, data);
    // Cross-rank read: the next rank's slice.
    const std::size_t noff =
        kPer * static_cast<std::size_t>((comm.rank() + 1) % kRanks);
    pmem.load("A", out.data(), 1, &noff, &cnt);
    EXPECT_EQ(out[0], double(((comm.rank() + 1) % kRanks) * 1000));
    pmem.munmap();
  });
  EXPECT_GT(result.max_time, 0.0);
}

TEST_P(CoreApiTest, ExistsAfterAllocOnly) {
  PMEM pmem{config()};
  pmem.mmap("/alloc-only");
  Dimensions dims{4, 4};
  pmem.alloc<double>("declared", dims);
  EXPECT_TRUE(pmem.exists("declared"));  // dims entry counts
  EXPECT_EQ(pmem.load_dims("declared"), dims);
  pmem.munmap();
}

TEST_P(CoreApiTest, RemoveArrayClearsPiecesAndDims) {
  PMEM pmem{config()};
  pmem.mmap("/rm");
  Dimensions dims{8};
  pmem.alloc<double>("arr", dims);
  std::vector<double> v(4, 1.0);
  const std::size_t off_a = 0, off_b = 4, cnt = 4;
  pmem.store("arr", v.data(), 1, &off_a, &cnt);
  pmem.store("arr", v.data(), 1, &off_b, &cnt);
  pmem.remove("arr");
  EXPECT_FALSE(pmem.exists("arr"));
  EXPECT_THROW(pmem.load_dims("arr"), pmemcpy::KeyError);
  std::vector<double> out(4);
  EXPECT_THROW(pmem.load("arr", out.data(), 1, &off_a, &cnt),
               pmemcpy::KeyError);
  // The id can be reused afterwards.
  pmem.alloc<double>("arr", dims);
  pmem.store("arr", v.data(), 1, &off_a, &cnt);
  pmem.load("arr", out.data(), 1, &off_a, &cnt);
  EXPECT_EQ(out, v);
  pmem.munmap();
}

TEST(CoreApiParallelTree, HierarchicalCollectiveWriteRead) {
  PmemNode node(small_node());
  constexpr int kRanks = 4;
  constexpr std::size_t kPer = 64;
  pmemcpy::par::Runtime::run(kRanks, [&](pmemcpy::par::Comm& comm) {
    Config cfg;
    cfg.node = &node;
    cfg.layout = Layout::kHierarchical;
    PMEM pmem{cfg};
    pmem.mmap("/tree-par.bp", comm);
    const std::size_t dimsf = kPer * kRanks;
    pmem.alloc<double>("grp/A", 1, &dimsf);
    std::vector<double> data(kPer);
    for (std::size_t i = 0; i < kPer; ++i) {
      data[i] = comm.rank() * 10.0 + double(i);
    }
    const std::size_t off = kPer * static_cast<std::size_t>(comm.rank());
    const std::size_t cnt = kPer;
    pmem.store("grp/A", data.data(), 1, &off, &cnt);
    comm.barrier();
    std::vector<double> out(kPer, -1);
    pmem.load("grp/A", out.data(), 1, &off, &cnt);
    EXPECT_EQ(out, data);
    // Whole-array read crosses all ranks' piece files.
    std::vector<double> all(dimsf);
    const std::size_t zero = 0;
    pmem.load("grp/A", all.data(), 1, &zero, &dimsf);
    EXPECT_DOUBLE_EQ(all[kPer * 2], 20.0);
    pmem.munmap();
  });
}

TEST(CoreApiStaging, StagedMatchesDirect) {
  PmemNode node(small_node());
  Config direct;
  direct.node = &node;
  direct.pool_size = 12ull << 20;  // two pools must fit the pool area
  Config staged = direct;
  staged.force_dram_staging = true;

  PMEM a{direct}, b{staged};
  a.mmap("/direct");
  b.mmap("/staged");
  std::vector<double> v(4096);
  std::iota(v.begin(), v.end(), 0.5);
  const std::size_t dims = v.size(), off = 0;
  a.alloc<double>("A", 1, &dims);
  b.alloc<double>("A", 1, &dims);
  a.store("A", v.data(), 1, &off, &dims);
  b.store("A", v.data(), 1, &off, &dims);
  std::vector<double> out(v.size());
  a.load("A", out.data(), 1, &off, &dims);
  EXPECT_EQ(out, v);
  b.load("A", out.data(), 1, &off, &dims);
  EXPECT_EQ(out, v);
  a.munmap();
  b.munmap();
}

TEST_P(CoreApiTest, AttributesRoundtripAndList) {
  PMEM pmem{config()};
  pmem.mmap("/attrs");
  const std::size_t dims = 8, off = 0;
  std::vector<double> v(8, 1.0);
  pmem.alloc<double>("temp", 1, &dims);
  pmem.store("temp", v.data(), 1, &off, &dims);
  pmem.store_attribute("temp", "units", std::string("kelvin"));
  pmem.store_attribute("temp", "scale", 1.5);
  EXPECT_EQ(pmem.load_attribute<std::string>("temp", "units"), "kelvin");
  EXPECT_DOUBLE_EQ(pmem.load_attribute<double>("temp", "scale"), 1.5);
  EXPECT_EQ(pmem.attributes("temp"),
            (std::vector<std::string>{"scale", "units"}));
  EXPECT_EQ(pmem.ids(), (std::vector<std::string>{"temp"}));
  pmem.remove("temp");
  EXPECT_TRUE(pmem.attributes("temp").empty());
  EXPECT_THROW((void)pmem.load_attribute<double>("temp", "scale"),
               pmemcpy::KeyError);
  pmem.munmap();
}

TEST_P(CoreApiTest, RemoveLeavesIdsSharingAPrefix) {
  // remove() collects pieces and attributes in one scan under "<id>#";
  // ids that merely start with the removed id keep every entry.
  PMEM pmem{config()};
  pmem.mmap("/rm-prefix");
  const std::size_t dims = 4, off = 0;
  const std::vector<double> v(4, 2.0);
  for (const std::string id : {"t", "t2", "t#x"}) {
    pmem.alloc<double>(id, 1, &dims);
    pmem.store(id, v.data(), 1, &off, &dims);
    pmem.store_attribute(id, "units", std::string("K"));
  }
  pmem.remove("t");
  EXPECT_FALSE(pmem.exists("t"));
  EXPECT_TRUE(pmem.attributes("t").empty());
  for (const std::string id : {"t2", "t#x"}) {
    std::vector<double> out(4);
    pmem.load(id, out.data(), 1, &off, &dims);
    EXPECT_EQ(out, v) << id;
    EXPECT_EQ(pmem.load_attribute<std::string>(id, "units"), "K") << id;
  }
  pmem.munmap();
}

TEST(CoreApiHierarchical, SlashCreatesDirectories) {
  PmemNode node(small_node());
  Config cfg;
  cfg.node = &node;
  cfg.layout = Layout::kHierarchical;
  PMEM pmem{cfg};
  pmem.mmap("/out.bp");
  pmem.store("fields/density", 1.25);
  pmem.store("fields/energy", 2.5);
  EXPECT_TRUE(node.fs().is_dir("/out.bp/fields"));
  EXPECT_DOUBLE_EQ(pmem.load<double>("fields/density"), 1.25);
  pmem.munmap();
}

}  // namespace
