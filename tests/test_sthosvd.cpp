#include "core/sthosvd.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "comm/runtime.hpp"
#include "la/qr.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::core {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
dist::DistTensor<T> distribute(const dist::ProcessorGrid& grid,
                               const tensor::Tensor<T>& serial) {
  return dist::DistTensor<T>::generate(
      grid, serial.dims(),
      [&serial](const std::vector<la::idx_t>& g) { return serial.at(g); });
}

// Low-rank test tensor with orthonormal factors plus scaled Gaussian noise.
template <typename T>
tensor::Tensor<T> lowrank_plus_noise(const std::vector<la::idx_t>& dims,
                                     const std::vector<la::idx_t>& ranks,
                                     double noise, std::uint64_t seed) {
  tensor::Tensor<T> core = random_tensor<T>(ranks, seed);
  tensor::Tensor<T> x = core;
  for (std::size_t j = 0; j < dims.size(); ++j) {
    auto u = la::orthonormalize<T>(
        random_matrix<T>(dims[j], ranks[j], seed + 100 + j));
    x = tensor::ttm(x, static_cast<int>(j), u.cref(), la::Op::none);
  }
  if (noise > 0.0) {
    CounterRng rng(seed + 999);
    const double scale = noise * x.norm() / std::sqrt(double(x.size()));
    for (la::idx_t i = 0; i < x.size(); ++i) {
      x[i] += static_cast<T>(scale * rng.normal(i));
    }
  }
  return x;
}

TEST(Sthosvd, ErrorSpecifiedMeetsTolerance) {
  auto x = lowrank_plus_noise<double>({10, 9, 8}, {3, 3, 3}, 0.02, 42);
  for (double eps : {0.3, 0.1, 0.05}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, {1, 2, 2});
      auto xd = distribute(grid, x);
      auto res = sthosvd(xd, eps);
      EXPECT_LE(res.relative_error(), eps) << "eps=" << eps;
    });
  }
}

TEST(Sthosvd, ErrorIdentityMatchesDenseReconstruction) {
  // ||X||^2 - ||G||^2 must equal the true squared reconstruction error.
  auto x = lowrank_plus_noise<double>({8, 7, 6}, {2, 2, 2}, 0.05, 43);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto res = sthosvd(xd, 0.1);
    auto tucker = res.replicated();
    const double dense_err = tensor::relative_error(x, tucker);
    EXPECT_NEAR(res.relative_error(), dense_err, 1e-8);
  });
}

TEST(Sthosvd, RecoversExactLowRank) {
  auto x = lowrank_plus_noise<double>({9, 8, 7}, {2, 3, 2}, 0.0, 44);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid, x);
    auto res = sthosvd(xd, 1e-6);
    EXPECT_EQ(res.ranks(), (std::vector<la::idx_t>{2, 3, 2}));
    EXPECT_LT(res.relative_error(), 1e-6);
  });
}

TEST(Sthosvd, FixedRankShapesAndOrthogonality) {
  auto x = random_tensor<double>({10, 8, 6}, 45);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 2});
    auto xd = distribute(grid, x);
    auto res = sthosvd_fixed_rank(xd, {4, 3, 2});
    EXPECT_EQ(res.ranks(), (std::vector<la::idx_t>{4, 3, 2}));
    for (int j = 0; j < 3; ++j) {
      EXPECT_LT(la::orthogonality_error<double>(res.factors[j]), 1e-10);
    }
    EXPECT_EQ(res.compressed_size(), 4 * 3 * 2 + 10 * 4 + 8 * 3 + 6 * 2);
  });
}

TEST(Sthosvd, GridInvariantError) {
  auto x = lowrank_plus_noise<double>({8, 8, 8}, {3, 3, 3}, 0.03, 46);
  double reference = -1.0;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    reference = sthosvd(xd, 0.1).relative_error();
  });
  for (const std::vector<int>& gdims :
       {std::vector<int>{1, 2, 2}, {2, 2, 1}, {1, 1, 4}}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, gdims);
      auto xd = distribute(grid, x);
      EXPECT_NEAR(sthosvd(xd, 0.1).relative_error(), reference, 1e-9);
    });
  }
}

TEST(Sthosvd, TighterToleranceGivesLargerRanks) {
  auto x = lowrank_plus_noise<double>({12, 10, 8}, {4, 4, 4}, 0.1, 47);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    auto loose = sthosvd(xd, 0.3);
    auto tight = sthosvd(xd, 0.05);
    EXPECT_LE(loose.compressed_size(), tight.compressed_size());
    EXPECT_LE(tight.relative_error(), loose.relative_error() + 1e-12);
  });
}

TEST(Sthosvd, SingleRankWorldMatchesSerialSemantics) {
  auto x = lowrank_plus_noise<float>({8, 7, 6}, {2, 2, 2}, 0.01, 48);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    auto res = sthosvd(xd, 0.05f);
    EXPECT_LE(res.relative_error(), 0.05);
    auto tucker = res.replicated();
    EXPECT_NEAR(tensor::relative_error(x, tucker), res.relative_error(),
                1e-4);
  });
}

TEST(Sthosvd, PhaseBreakdownCoversGramEvdTtm) {
  auto x = random_tensor<double>({8, 8, 8}, 49);
  std::vector<Stats> per_rank;
  comm::Runtime::run(
      2,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {2, 1, 1});
        auto xd = distribute(grid, x);
        (void)sthosvd(xd, 0.1);
      },
      &per_rank);
  for (const Stats& s : per_rank) {
    EXPECT_GT(s.flops[static_cast<int>(Phase::gram)], 0.0);
    EXPECT_GT(s.flops[static_cast<int>(Phase::evd)], 0.0);
    EXPECT_GT(s.flops[static_cast<int>(Phase::ttm)], 0.0);
    EXPECT_EQ(s.flops[static_cast<int>(Phase::qr)], 0.0);
    EXPECT_EQ(s.flops[static_cast<int>(Phase::contraction)], 0.0);
  }
}

TEST(Sthosvd, RejectsBadArguments) {
  auto x = random_tensor<double>({4, 4}, 50);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1});
    auto xd = distribute(grid, x);
    EXPECT_THROW(sthosvd(xd, 1.5), precondition_error);
    EXPECT_THROW(sthosvd(xd, -0.1), precondition_error);
    EXPECT_THROW(sthosvd_fixed_rank(xd, {5, 1}), precondition_error);
    EXPECT_THROW(sthosvd_fixed_rank(xd, {1}), precondition_error);
  });
}

TEST(Sthosvd, QrSvdChoosesGramRanksAndMeetsEps) {
  // Well-conditioned fp64 input: the TSQR + SVD kernel sees the same
  // spectrum as Gram + EVD, so both pick the same ranks and both meet eps.
  auto x = lowrank_plus_noise<double>({10, 9, 8}, {3, 3, 3}, 0.02, 42);
  for (double eps : {0.3, 0.1, 0.05}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, {1, 2, 2});
      auto xd = distribute(grid, x);
      auto gram = sthosvd(xd, eps);
      auto qr = sthosvd(xd, eps, SvdMethod::qr_svd);
      EXPECT_EQ(qr.ranks(), gram.ranks()) << "eps=" << eps;
      EXPECT_LE(gram.relative_error(), eps) << "eps=" << eps;
      EXPECT_LE(qr.relative_error(), eps) << "eps=" << eps;
    });
  }
}

TEST(Sthosvd, RankSpecifiedOnlyMethodsRejectEps) {
  // ST-HOSVD has no warm factor and eps leaves the rank open: the LLSV
  // dispatch rejects both subspace-iteration methods on every rank.
  auto x = random_tensor<double>({6, 5, 4}, 52);
  std::atomic<int> thrown{0};
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    for (const SvdMethod m :
         {SvdMethod::subspace_iteration, SvdMethod::randomized}) {
      try {
        (void)sthosvd(xd, 0.1, m);
      } catch (const precondition_error&) {
        ++thrown;
      }
    }
  });
  EXPECT_EQ(thrown.load(), 4);
}

TEST(Sthosvd, FourWayTensor) {
  auto x = lowrank_plus_noise<double>({6, 5, 7, 4}, {2, 2, 2, 2}, 0.02, 51);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2, 1});
    auto xd = distribute(grid, x);
    auto res = sthosvd(xd, 0.1);
    EXPECT_LE(res.relative_error(), 0.1);
    auto tucker = res.replicated();
    EXPECT_NEAR(tensor::relative_error(x, tucker), res.relative_error(),
                1e-8);
  });
}

}  // namespace
}  // namespace rahooi::core
