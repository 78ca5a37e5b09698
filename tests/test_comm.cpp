#include "comm/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"

namespace rahooi::comm {
namespace {

TEST(Comm, SingleRankWorldIsTrivial) {
  Runtime::run(1, [](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    EXPECT_EQ(world.size(), 1);
    double v = 3.0;
    world.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 3.0);
  });
}

TEST(Comm, AllreduceMaxTakesElementwiseMaximum) {
  Runtime::run(4, [](Comm& world) {
    double v[2] = {static_cast<double>(world.rank()),
                   -static_cast<double>(world.rank())};
    world.allreduce_max(v, 2);
    EXPECT_DOUBLE_EQ(v[0], 3.0);   // max over ranks 0..3
    EXPECT_DOUBLE_EQ(v[1], 0.0);   // max of {0, -1, -2, -3}
  });
}

TEST(Comm, RanksAreDistinct) {
  std::atomic<int> mask{0};
  Runtime::run(4, [&](Comm& world) {
    mask.fetch_or(1 << world.rank());
    EXPECT_EQ(world.size(), 4);
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0}, after{0};
  Runtime::run(4, [&](Comm& world) {
    before.fetch_add(1);
    world.barrier();
    // All ranks must have incremented before any passes the barrier.
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(Comm, BcastDistributesRootBuffer) {
  Runtime::run(4, [](Comm& world) {
    std::vector<double> data(5, world.rank() == 2 ? 7.0 : 0.0);
    world.bcast(data.data(), 5, 2);
    for (double v : data) EXPECT_DOUBLE_EQ(v, 7.0);
  });
}

TEST(Comm, ReduceSumLandsOnRoot) {
  Runtime::run(3, [](Comm& world) {
    std::vector<int> in(4, world.rank() + 1);  // ranks contribute 1,2,3
    std::vector<int> out(4, -1);
    world.reduce_sum(in.data(), out.data(), 4, 0);
    if (world.rank() == 0) {
      for (int v : out) EXPECT_EQ(v, 6);
    }
  });
}

TEST(Comm, AllreduceSumEveryRankGetsTotal) {
  Runtime::run(5, [](Comm& world) {
    std::vector<double> data(3);
    for (int i = 0; i < 3; ++i) data[i] = world.rank() * 10.0 + i;
    world.allreduce_sum(data.data(), 3);
    // sum over r of (10r + i) = 10*10 + 5i
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(data[i], 100.0 + 5 * i);
  });
}

TEST(Comm, AllreduceScalar) {
  Runtime::run(4, [](Comm& world) {
    const double total = world.allreduce_scalar(world.rank() + 1.0);
    EXPECT_DOUBLE_EQ(total, 10.0);
  });
}

/// Rank `r`'s reduce-scatter input entry `i`: magnitudes differ by rank so
/// the summation order shows in the rounding, and entries marked by `neg0`
/// are -0 on every rank (their sum from +0 is +0).
template <typename T>
T scatter_input(int r, idx_t i, bool neg0) {
  if (neg0) return -T{0};
  static constexpr double kScale[] = {1.0, 1e6, 1e-3, 1e3};
  CounterRng rng(77);
  return static_cast<T>(kScale[r] * rng.normal(static_cast<std::uint64_t>(
                                        i * 4 + static_cast<idx_t>(r))));
}

template <typename T>
void check_reduce_scatter(int p, const std::vector<idx_t>& counts,
                          idx_t blocks) {
  Runtime::run(p, [&](Comm& world) {
    const idx_t group = std::accumulate(counts.begin(), counts.end(),
                                        idx_t{0});
    // The first entry of every destination segment is a -0 marker.
    std::vector<bool> neg0(static_cast<std::size_t>(group), false);
    idx_t seg = 0;
    for (const idx_t c : counts) {
      if (c > 0) neg0[static_cast<std::size_t>(seg)] = true;
      seg += c;
    }
    std::vector<T> in(static_cast<std::size_t>(group * blocks));
    for (idx_t i = 0; i < group * blocks; ++i) {
      in[static_cast<std::size_t>(i)] = scatter_input<T>(
          world.rank(), i, neg0[static_cast<std::size_t>(i % group)]);
    }
    const idx_t mine = counts[static_cast<std::size_t>(world.rank())];
    idx_t offset = 0;
    for (int r = 0; r < world.rank(); ++r) offset += counts[r];
    std::vector<T> out(static_cast<std::size_t>(mine * blocks),
                       static_cast<T>(-7));
    world.reduce_scatter_sum(in.data(), out.data(), counts, blocks);
    // Reference: +0 plus every rank's entry in rank order.
    for (idx_t b = 0; b < blocks; ++b) {
      for (idx_t i = 0; i < mine; ++i) {
        const idx_t g = b * group + offset + i;
        T expect = T{};
        for (int r = 0; r < p; ++r) {
          expect += scatter_input<T>(
              r, g, neg0[static_cast<std::size_t>(g % group)]);
        }
        const T got = out[static_cast<std::size_t>(b * mine + i)];
        EXPECT_EQ(std::memcmp(&got, &expect, sizeof(T)), 0)
            << "P=" << p << " blocks=" << blocks << " rank " << world.rank()
            << " block " << b << " entry " << i << ": " << got << " vs "
            << expect;
      }
    }
  });
}

TEST(Comm, ReduceScatterSplitsTheSum) {
  // Uneven counts with a zero count, including segments longer than the
  // collective's accumulation chunk; `blocks` = 1 is the MPI contract and
  // 3 the block-strided layout dist_ttm posts.
  const std::vector<std::vector<idx_t>> counts_by_p = {
      {0, 300}, {131, 0, 2}, {3, 257, 0, 1}};
  for (const auto& counts : counts_by_p) {
    const int p = static_cast<int>(counts.size());
    for (const idx_t blocks : {1, 3}) {
      check_reduce_scatter<double>(p, counts, blocks);
      check_reduce_scatter<float>(p, counts, blocks);
    }
  }
}

TEST(Comm, AllgathervConcatenatesByRank) {
  Runtime::run(4, [](Comm& world) {
    const std::vector<idx_t> counts = {1, 2, 3, 4};
    std::vector<int> in(counts[world.rank()], world.rank());
    std::vector<int> out(10, -1);
    world.allgatherv(in.data(), out.data(), counts);
    const std::vector<int> expect = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
    EXPECT_EQ(out, expect);
  });
}

TEST(Comm, AllgatherEqualCounts) {
  Runtime::run(3, [](Comm& world) {
    std::vector<double> in(2, world.rank() + 0.5);
    std::vector<double> out(6);
    world.allgather(in.data(), out.data(), 2);
    for (int r = 0; r < 3; ++r) {
      EXPECT_DOUBLE_EQ(out[2 * r], r + 0.5);
      EXPECT_DOUBLE_EQ(out[2 * r + 1], r + 0.5);
    }
  });
}

TEST(Comm, AlltoallvTransposesBlocks) {
  // Rank s sends value 100*s + r to rank r.
  Runtime::run(4, [](Comm& world) {
    const int p = world.size();
    std::vector<int> send(p);
    std::vector<idx_t> sdispls(p), recvcounts(p, 1), rdispls(p);
    for (int r = 0; r < p; ++r) {
      send[r] = 100 * world.rank() + r;
      sdispls[r] = r;
      rdispls[r] = r;
    }
    std::vector<int> recv(p, -1);
    world.alltoallv(send.data(), sdispls, recv.data(), recvcounts, rdispls);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(recv[s], 100 * s + world.rank());
    }
  });
}

TEST(Comm, SendRecvTaggedMessages) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<double> a = {1, 2, 3};
      const std::vector<double> b = {9};
      // Send out of order; tags must disambiguate.
      world.send(b.data(), 1, 1, /*tag=*/7);
      world.send(a.data(), 3, 1, /*tag=*/5);
    } else {
      std::vector<double> a(3), b(1);
      world.recv(a.data(), 3, 0, /*tag=*/5);
      world.recv(b.data(), 1, 0, /*tag=*/7);
      EXPECT_DOUBLE_EQ(a[1], 2.0);
      EXPECT_DOUBLE_EQ(b[0], 9.0);
    }
  });
}

TEST(Comm, SplitByParity) {
  Runtime::run(6, [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Collectives work inside the subcommunicator.
    double v = world.rank();
    sub.allreduce_sum(&v, 1);
    const double expect = world.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_DOUBLE_EQ(v, expect);
  });
}

TEST(Comm, SplitKeyControlsRankOrder) {
  Runtime::run(4, [](Comm& world) {
    // Reverse order: key = -rank.
    Comm sub = world.split(0, -world.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - world.rank());
  });
}

TEST(Comm, SplitSingletonGroups) {
  Runtime::run(3, [](Comm& world) {
    Comm sub = world.split(world.rank(), 0);
    EXPECT_EQ(sub.size(), 1);
    EXPECT_EQ(sub.rank(), 0);
    double v = 5;
    sub.allreduce_sum(&v, 1);  // trivial but must not hang
    EXPECT_DOUBLE_EQ(v, 5.0);
  });
}

TEST(Comm, RepeatedSplitsDoNotInterfere) {
  Runtime::run(4, [](Comm& world) {
    Comm row = world.split(world.rank() / 2, world.rank());
    Comm col = world.split(world.rank() % 2, world.rank());
    double v = 1;
    row.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 2.0);
    v = 1;
    col.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 2.0);
  });
}

TEST(Comm, CommStatsRecorded) {
  std::vector<Stats> per_rank;
  Runtime::run(4, [](Comm& world) {
    std::vector<double> data(100, 1.0);
    world.allreduce_sum(data.data(), 100);
  }, &per_rank);
  ASSERT_EQ(per_rank.size(), 4u);
  const double expect = 2.0 * 100 * sizeof(double) * 3 / 4;  // 2n(P-1)/P
  for (const Stats& s : per_rank) {
    EXPECT_DOUBLE_EQ(
        s.comm_bytes[static_cast<int>(CollectiveKind::allreduce)], expect);
    EXPECT_EQ(s.messages[static_cast<int>(CollectiveKind::allreduce)], 1u);
  }
}

TEST(Comm, ExceptionInRankPropagates) {
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& world) {
                     world.barrier();
                     if (world.rank() == 1) {
                       throw std::runtime_error("rank failure");
                     }
                   }),
      std::runtime_error);
}

TEST(Comm, ManySmallCollectivesStressSlotReuse) {
  Runtime::run(4, [](Comm& world) {
    for (int iter = 0; iter < 50; ++iter) {
      double v = world.rank() + iter;
      world.allreduce_sum(&v, 1);
      EXPECT_DOUBLE_EQ(v, 6.0 + 4.0 * iter);
      std::vector<int> g(4);
      int mine = world.rank();
      world.allgather(&mine, g.data(), 1);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(g[r], r);
    }
  });
}

}  // namespace
}  // namespace rahooi::comm
