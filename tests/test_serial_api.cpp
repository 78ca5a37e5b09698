#include "core/serial_api.hpp"

#include <gtest/gtest.h>

#include "comm/runtime.hpp"
#include "la/qr.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::core {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
tensor::Tensor<T> lowrank(const std::vector<la::idx_t>& dims,
                          const std::vector<la::idx_t>& ranks, double noise,
                          std::uint64_t seed) {
  tensor::Tensor<T> x = random_tensor<T>(ranks, seed);
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

TEST(SerialApi, SthosvdMeetsTolerance) {
  auto x = lowrank<double>({10, 9, 8}, {3, 3, 3}, 0.03, 40);
  auto res = sthosvd_serial(x, 0.1);
  EXPECT_LE(res.rel_error, 0.1);
  EXPECT_NEAR(tensor::relative_error(x, res.tucker), res.rel_error, 1e-9);
  EXPECT_GT(res.compression_ratio, 1.0);
}

TEST(SerialApi, SthosvdFixedRankShapes) {
  auto x = random_tensor<double>({8, 7, 6}, 41);
  auto res = sthosvd_serial_fixed_rank(x, {3, 2, 4});
  EXPECT_EQ(res.tucker.ranks(), (std::vector<la::idx_t>{3, 2, 4}));
}

TEST(SerialApi, HooiRecoversLowRank) {
  auto x = lowrank<double>({10, 9, 8}, {2, 2, 2}, 0.0, 42);
  HooiOptions o;
  o.svd_method = SvdMethod::subspace_iteration;
  o.use_dimension_tree = true;
  auto res = hooi_serial(x, {2, 2, 2}, o);
  EXPECT_LT(res.rel_error, 1e-6);
}

TEST(SerialApi, MatchesDistributedResult) {
  auto x = lowrank<double>({9, 8, 7}, {3, 2, 2}, 0.05, 43);
  auto serial = sthosvd_serial(x, 0.1);
  double dist_err = -1;
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2});
    auto xd = dist::DistTensor<double>::generate(
        grid, x.dims(),
        [&x](const std::vector<la::idx_t>& g) { return x.at(g); });
    const double err = sthosvd(xd, 0.1).relative_error();
    if (world.rank() == 0) dist_err = err;
  });
  EXPECT_NEAR(serial.rel_error, dist_err, 1e-9);
}

TEST(SerialApi, RankAdaptiveMeetsTolerance) {
  auto x = lowrank<float>({12, 11, 10}, {3, 3, 3}, 0.04, 44);
  RankAdaptiveOptions opt;
  opt.tolerance = 0.1;
  auto res = rank_adaptive_serial(x, {4, 4, 4}, opt);
  EXPECT_LE(res.rel_error, 0.1 + 1e-6);
  EXPECT_LE(tensor::relative_error(x, res.tucker), 0.1 + 1e-3);
}

TEST(SerialApi, FourWayDouble) {
  auto x = lowrank<double>({6, 5, 4, 7}, {2, 2, 2, 2}, 0.02, 45);
  auto res = sthosvd_serial(x, 0.05);
  EXPECT_LE(res.rel_error, 0.05);
  EXPECT_EQ(res.tucker.ndims(), 4);
}

// Misuse fails fast with precondition_error (entry validation,
// docs/ROBUSTNESS.md) instead of crashing mid-solve.
TEST(SerialApiMisuse, HooiRejectsRanksAboveDims) {
  auto x = random_tensor<double>({4, 4, 4}, 50);
  const std::vector<la::idx_t> too_big{5, 2, 2};
  EXPECT_THROW(hooi_serial(x, too_big, HooiOptions{}), precondition_error);
}

TEST(SerialApiMisuse, HooiRejectsRankCountMismatch) {
  auto x = random_tensor<double>({4, 4, 4}, 51);
  const std::vector<la::idx_t> wrong_order{2, 2};
  EXPECT_THROW(hooi_serial(x, wrong_order, HooiOptions{}),
               precondition_error);
}

TEST(SerialApiMisuse, HooiRejectsInvalidOptions) {
  auto x = random_tensor<double>({4, 4, 4}, 52);
  const std::vector<la::idx_t> ranks{2, 2, 2};
  HooiOptions bad;
  bad.max_iters = 0;
  EXPECT_THROW(hooi_serial(x, ranks, bad), precondition_error);
}

TEST(SerialApiMisuse, RankAdaptiveRejectsInvalidOptions) {
  auto x = random_tensor<double>({4, 4, 4}, 53);
  const std::vector<la::idx_t> ranks{2, 2, 2};
  RankAdaptiveOptions bad;
  bad.tolerance = 0.0;
  EXPECT_THROW(rank_adaptive_serial(x, ranks, bad), precondition_error);
  bad = {};
  bad.growth_factor = 1.0;
  EXPECT_THROW(rank_adaptive_serial(x, ranks, bad), precondition_error);
}

}  // namespace
}  // namespace rahooi::core
