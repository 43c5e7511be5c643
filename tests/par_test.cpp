// Tests for the thread-based MPI-like runtime: collectives move the right
// bytes, clocks synchronise, errors propagate.
#include <pmemcpy/par/comm.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace {

using pmemcpy::par::Comm;
using pmemcpy::par::Runtime;
using pmemcpy::sim::ctx;

TEST(RuntimeTest, RunsAllRanks) {
  std::atomic<int> sum{0};
  auto res = Runtime::run(7, [&](Comm& c) { sum += c.rank(); });
  EXPECT_EQ(sum.load(), 21);
  EXPECT_EQ(res.rank_times.size(), 7u);
}

TEST(RuntimeTest, InvalidRankCountThrows) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(RuntimeTest, ExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(Runtime::run(4,
                            [&](Comm& c) {
                              if (c.rank() == 2) {
                                throw std::runtime_error("rank 2 died");
                              }
                              c.barrier();  // would deadlock without abort
                            }),
               std::runtime_error);
}

TEST(RuntimeTest, ReportsCriticalPathTime) {
  auto res = Runtime::run(4, [&](Comm& c) {
    ctx().advance(c.rank() == 3 ? 5.0 : 1.0);
  });
  EXPECT_GE(res.max_time, 5.0);
  EXPECT_LT(res.max_time, 5.1);
}

TEST(CommTest, BarrierSynchronisesClocks) {
  Runtime::run(4, [&](Comm& c) {
    ctx().advance(static_cast<double>(c.rank()));  // ranks at 0..3
    c.barrier();
    EXPECT_GE(ctx().now(), 3.0);  // everyone at max + barrier cost
  });
}

TEST(CommTest, Bcast) {
  Runtime::run(5, [&](Comm& c) {
    std::uint64_t v = c.rank() == 2 ? 777u : 0u;
    c.bcast(&v, sizeof(v), 2);
    EXPECT_EQ(v, 777u);
  });
}

TEST(CommTest, Allgather) {
  Runtime::run(6, [&](Comm& c) {
    const std::uint32_t mine = static_cast<std::uint32_t>(c.rank() * 10);
    std::vector<std::uint32_t> all(6);
    c.allgather(&mine, sizeof(mine), all.data());
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)],
                static_cast<std::uint32_t>(i * 10));
    }
  });
}

TEST(CommTest, AllgatherCountMismatchThrows) {
  EXPECT_THROW(Runtime::run(2,
                            [&](Comm& c) {
                              const char x[2] = {'x', 'y'};
                              std::vector<char> recv(4);
                              // Rank 0 contributes one byte, rank 1 two.
                              c.allgather(x, c.rank() + 1u, recv.data());
                            }),
               std::invalid_argument);
}

TEST(CommTest, GathervOnlyRootReceives) {
  Runtime::run(3, [&](Comm& c) {
    const std::uint64_t mine = static_cast<std::uint64_t>(c.rank()) + 1;
    std::vector<std::size_t> counts{8, 8, 8};
    std::vector<std::size_t> displs{0, 8, 16};
    std::vector<std::uint64_t> recv(3, 0);
    c.gatherv(&mine, 8, c.rank() == 1 ? recv.data() : nullptr, counts, displs,
              1);
    if (c.rank() == 1) {
      EXPECT_EQ(recv, (std::vector<std::uint64_t>{1, 2, 3}));
    }
  });
}

TEST(CommTest, AlltoallvTransposes) {
  constexpr int kN = 4;
  Runtime::run(kN, [&](Comm& c) {
    // Rank r sends byte value (r*kN + d) to rank d.
    std::vector<std::uint8_t> send(kN);
    std::vector<std::size_t> counts(kN, 1), sdispls(kN), rdispls(kN);
    for (int d = 0; d < kN; ++d) {
      send[static_cast<std::size_t>(d)] =
          static_cast<std::uint8_t>(c.rank() * kN + d);
      sdispls[static_cast<std::size_t>(d)] = static_cast<std::size_t>(d);
      rdispls[static_cast<std::size_t>(d)] = static_cast<std::size_t>(d);
    }
    std::vector<std::uint8_t> recv(kN);
    c.alltoallv(send.data(), counts, sdispls, recv.data(), counts, rdispls);
    for (int s = 0; s < kN; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)],
                static_cast<std::uint8_t>(s * kN + c.rank()));
    }
  });
}

TEST(CommTest, AlltoallvZeroCounts) {
  Runtime::run(3, [&](Comm& c) {
    std::vector<std::size_t> zeros(3, 0), displs(3, 0);
    c.alltoallv(nullptr, zeros, displs, nullptr, zeros, displs);
    (void)c;
  });
}

TEST(CommTest, AlltoallvCountMismatchThrows) {
  EXPECT_THROW(
      Runtime::run(2,
                   [&](Comm& c) {
                     std::vector<std::uint8_t> send(2), recv(4);
                     std::vector<std::size_t> scounts{1, 1}, sdispls{0, 1};
                     // Rank 0 expects two bytes from rank 1, which sends one.
                     const std::size_t from1 = c.rank() == 0 ? 2 : 1;
                     std::vector<std::size_t> rcounts{1, from1};
                     std::vector<std::size_t> rdispls{0, 1};
                     c.alltoallv(send.data(), scounts, sdispls, recv.data(),
                                 rcounts, rdispls);
                   }),
      std::invalid_argument);
}

TEST(CommTest, SendRecvDelivers) {
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      const std::uint64_t v = 0xCAFEBABE;
      c.send(1, /*tag=*/7, &v, sizeof(v));
    } else {
      std::uint64_t v = 0;
      c.recv(0, 7, &v, sizeof(v));
      EXPECT_EQ(v, 0xCAFEBABEu);
    }
  });
}

TEST(CommTest, SendRecvOrderedPerTag) {
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      for (std::uint32_t i = 0; i < 10; ++i) c.send(1, 1, &i, sizeof(i));
    } else {
      for (std::uint32_t i = 0; i < 10; ++i) {
        std::uint32_t v = 99;
        c.recv(0, 1, &v, sizeof(v));
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(CommTest, RecvAdvancesClockPastSender) {
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      ctx().advance(2.0);
      const int v = 1;
      c.send(1, 0, &v, sizeof(v));
    } else {
      int v = 0;
      c.recv(0, 0, &v, sizeof(v));
      EXPECT_GE(ctx().now(), 2.0);  // message can't arrive before it was sent
    }
  });
}

TEST(CommTest, ExscanSum) {
  Runtime::run(5, [&](Comm& c) {
    const auto mine = static_cast<std::uint64_t>(c.rank() + 1);  // 1..5
    const auto pre = c.exscan_sum(mine);
    // exscan of 1,2,3,4,5 -> 0,1,3,6,10
    const std::uint64_t expect[] = {0, 1, 3, 6, 10};
    EXPECT_EQ(pre, expect[c.rank()]);
  });
}

TEST(CommTest, Reductions) {
  Runtime::run(6, [&](Comm& c) {
    const double mine = static_cast<double>(c.rank());
    EXPECT_DOUBLE_EQ(c.allreduce_sum(mine), 15.0);
    EXPECT_DOUBLE_EQ(c.allreduce_max(mine), 5.0);
  });
}

TEST(CommTest, NetworkChargedForRemoteBytes) {
  Runtime::run(4, [&](Comm& c) {
    std::vector<std::byte> buf(1 << 20);
    std::vector<std::byte> recv(4 << 20);
    c.allgather(buf.data(), buf.size(), recv.data());
    EXPECT_GT(ctx().charged(pmemcpy::sim::Charge::kNetwork), 0.0);
  });
}

TEST(CommTest, SingleRankCollectivesWork) {
  Runtime::run(1, [&](Comm& c) {
    c.barrier();
    std::uint64_t v = 5;
    c.bcast(&v, sizeof(v), 0);
    std::vector<std::uint64_t> all(1);
    c.allgather(&v, sizeof(v), all.data());
    EXPECT_EQ(all[0], 5u);
    EXPECT_EQ(c.exscan_sum(3), 0u);
  });
}

TEST(CommTest, ManyRanksStress) {
  // More ranks than the host has cores: exercises the scheduler paths.
  Runtime::run(48, [&](Comm& c) {
    for (int i = 0; i < 5; ++i) {
      const auto sum =
          c.allreduce_sum(static_cast<std::uint64_t>(c.rank()));
      EXPECT_EQ(sum, 48u * 47u / 2u);
      c.barrier();
    }
  });
}

}  // namespace
