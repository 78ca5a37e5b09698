#include "tensor/ttm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/qr.hpp"
#include "test_util.hpp"

namespace rahooi::tensor {
namespace {

using testutil::naive_ttm;
using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
double max_diff(const Tensor<T>& a, const Tensor<T>& b) {
  EXPECT_EQ(a.dims(), b.dims());
  double m = 0;
  for (idx_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

template <typename T>
class TtmTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TtmTyped, Scalars);

TYPED_TEST(TtmTyped, TruncatingTtmMatchesNaiveEveryMode) {
  using T = TypeParam;
  auto x = random_tensor<T>({4, 5, 6}, 500);
  for (int mode = 0; mode < 3; ++mode) {
    auto u = random_matrix<T>(x.dim(mode), 3, 501 + mode);
    auto fast = ttm(x, mode, u.cref(), la::Op::transpose);
    auto ref = naive_ttm(x, mode, u, la::Op::transpose);
    EXPECT_LT(max_diff(fast, ref), 10 * testutil::type_tol<T>())
        << "mode " << mode;
    EXPECT_EQ(fast.dim(mode), 3);
  }
}

TYPED_TEST(TtmTyped, ExpandingTtmMatchesNaive) {
  using T = TypeParam;
  auto x = random_tensor<T>({3, 2, 4}, 510);
  for (int mode = 0; mode < 3; ++mode) {
    auto u = random_matrix<T>(7, x.dim(mode), 511 + mode);
    auto fast = ttm(x, mode, u.cref(), la::Op::none);
    auto ref = naive_ttm(x, mode, u, la::Op::none);
    EXPECT_LT(max_diff(fast, ref), 10 * testutil::type_tol<T>());
    EXPECT_EQ(fast.dim(mode), 7);
  }
}

TYPED_TEST(TtmTyped, FourWayTtmAllModes) {
  using T = TypeParam;
  auto x = random_tensor<T>({3, 4, 2, 5}, 520);
  for (int mode = 0; mode < 4; ++mode) {
    auto u = random_matrix<T>(x.dim(mode), 2, 521 + mode);
    auto fast = ttm(x, mode, u.cref(), la::Op::transpose);
    auto ref = naive_ttm(x, mode, u, la::Op::transpose);
    EXPECT_LT(max_diff(fast, ref), 10 * testutil::type_tol<T>());
  }
}

TYPED_TEST(TtmTyped, TtmsInDistinctModesCommute) {
  using T = TypeParam;
  auto x = random_tensor<T>({4, 5, 6}, 530);
  auto u0 = random_matrix<T>(4, 2, 531);
  auto u2 = random_matrix<T>(6, 3, 532);
  auto a = ttm(ttm(x, 0, u0.cref()), 2, u2.cref());
  auto b = ttm(ttm(x, 2, u2.cref()), 0, u0.cref());
  EXPECT_LT(max_diff(a, b), 20 * testutil::type_tol<T>());
}

TYPED_TEST(TtmTyped, MultiTtmSkipMatchesChainedTtms) {
  using T = TypeParam;
  auto x = random_tensor<T>({4, 3, 5, 2}, 540);
  std::vector<la::Matrix<T>> us;
  std::vector<la::ConstMatrixRef<T>> refs;
  for (int j = 0; j < 4; ++j) {
    us.push_back(random_matrix<T>(x.dim(j), 2, 541 + j));
  }
  for (const auto& u : us) refs.push_back(u.cref());
  for (int skip = 0; skip < 4; ++skip) {
    auto fast = multi_ttm_skip(x, refs, skip);
    Tensor<T> slow = x;
    for (int j = 0; j < 4; ++j) {
      if (j != skip) slow = ttm(slow, j, us[j].cref());
    }
    EXPECT_LT(max_diff(fast, slow), 1e-6);
    EXPECT_EQ(fast.dim(skip), x.dim(skip));
  }
}

TYPED_TEST(TtmTyped, MultiTtmExplicitOrderIndependence) {
  using T = TypeParam;
  auto x = random_tensor<T>({3, 4, 5}, 550);
  std::vector<la::Matrix<T>> us;
  std::vector<la::ConstMatrixRef<T>> refs;
  for (int j = 0; j < 3; ++j) {
    us.push_back(random_matrix<T>(x.dim(j), 2, 551 + j));
  }
  for (const auto& u : us) refs.push_back(u.cref());
  auto fwd = multi_ttm(x, refs, {0, 1, 2});
  auto rev = multi_ttm(x, refs, {2, 1, 0});
  EXPECT_LT(max_diff(fwd, rev), 20 * testutil::type_tol<T>());
}

TYPED_TEST(TtmTyped, ModeGramMatchesUnfoldingProduct) {
  using T = TypeParam;
  auto x = random_tensor<T>({4, 5, 3}, 560);
  for (int mode = 0; mode < 3; ++mode) {
    auto g = mode_gram(x, mode);
    auto u = unfold(x, mode);
    auto ref = la::matmul<T>(la::Op::none, la::Op::transpose, u, u);
    EXPECT_LT(la::max_abs_diff<T>(g, ref), 50 * testutil::type_tol<T>())
        << "mode " << mode;
  }
}

TYPED_TEST(TtmTyped, GramTraceEqualsNormSquared) {
  using T = TypeParam;
  auto x = random_tensor<T>({5, 4, 3, 2}, 570);
  for (int mode = 0; mode < 4; ++mode) {
    auto g = mode_gram(x, mode);
    double trace = 0;
    for (idx_t i = 0; i < g.rows(); ++i) trace += g(i, i);
    EXPECT_NEAR(trace, x.sum_squares(), 1e-3);
  }
}

TYPED_TEST(TtmTyped, ContractionMatchesUnfoldingProduct) {
  using T = TypeParam;
  // Y: (6, 3, 4) and G: (2, 3, 4) share all dims but mode 0.
  auto y = random_tensor<T>({6, 3, 4}, 580);
  auto g = random_tensor<T>({2, 3, 4}, 581);
  auto z = contract_all_but_one(y, g, 0);
  auto yu = unfold(y, 0);
  auto gu = unfold(g, 0);
  auto ref = la::matmul<T>(la::Op::none, la::Op::transpose, yu, gu);
  EXPECT_LT(la::max_abs_diff<T>(z, ref), 20 * testutil::type_tol<T>());
}

TYPED_TEST(TtmTyped, ContractionMiddleAndLastModes) {
  using T = TypeParam;
  auto y = random_tensor<T>({3, 7, 4}, 590);
  auto g1 = random_tensor<T>({3, 2, 4}, 591);
  auto z1 = contract_all_but_one(y, g1, 1);
  auto ref1 = la::matmul<T>(la::Op::none, la::Op::transpose, unfold(y, 1),
                            unfold(g1, 1));
  EXPECT_LT(la::max_abs_diff<T>(z1, ref1), 20 * testutil::type_tol<T>());

  auto g2 = random_tensor<T>({3, 7, 2}, 592);
  auto z2 = contract_all_but_one(y, g2, 2);
  auto ref2 = la::matmul<T>(la::Op::none, la::Op::transpose, unfold(y, 2),
                            unfold(g2, 2));
  EXPECT_LT(la::max_abs_diff<T>(z2, ref2), 20 * testutil::type_tol<T>());
}

TYPED_TEST(TtmTyped, SubspaceIterationIdentity) {
  using T = TypeParam;
  // With U orthonormal and Y = X, the contraction of Y with G = Y x_j U^T
  // equals Y_(j) Y_(j)^T U — one step of power iteration on the Gram matrix.
  auto y = random_tensor<T>({5, 3, 4}, 600);
  auto u = la::orthonormalize<T>(random_matrix<T>(5, 2, 601));
  auto g = ttm(y, 0, u.cref(), la::Op::transpose);
  auto z = contract_all_but_one(y, g, 0);
  auto gram = mode_gram(y, 0);
  auto ref = la::matmul<T>(la::Op::none, la::Op::none, gram, u);
  EXPECT_LT(la::max_abs_diff<T>(z, ref), 100 * testutil::type_tol<T>());
}

TEST(Ttm, RejectsBadMode) {
  Tensor<double> x({2, 2});
  la::Matrix<double> u(2, 1);
  EXPECT_THROW(ttm(x, 2, u.cref()), precondition_error);
  EXPECT_THROW(ttm(x, -1, u.cref()), precondition_error);
}

TEST(Ttm, RejectsMismatchedFactor) {
  Tensor<double> x({3, 4});
  la::Matrix<double> u(5, 2);
  EXPECT_THROW(ttm(x, 0, u.cref(), la::Op::transpose), precondition_error);
}

TEST(Ttm, ContractionRejectsMismatchedDims) {
  Tensor<double> y({3, 4, 5});
  Tensor<double> g({2, 4, 6});
  EXPECT_THROW(contract_all_but_one(y, g, 0), precondition_error);
}

TYPED_TEST(TtmTyped, BatchedGeneralModeMatchesSlabFallback) {
  using T = TypeParam;
  // Cross-validate the strided-batch TTM path against the per-slab GEMM
  // loop it replaced, in both truncation and expansion directions. The
  // slab heights (5, 35, 105) fall on both sides of the thin path's
  // one-vector minimum.
  const auto x = random_tensor<T>({5, 7, 3, 4}, 620);
  for (int mode = 1; mode < 4; ++mode) {
    for (la::Op op : {la::Op::transpose, la::Op::none}) {
      auto u = (op == la::Op::transpose)
                   ? random_matrix<T>(x.dim(mode), 2, 621 + mode)
                   : random_matrix<T>(6, x.dim(mode), 631 + mode);
      auto batched = ttm(x, mode, u.cref(), op);
      Tensor<T> slab(batched.dims());
      const la::Op op_b =
          (op == la::Op::transpose) ? la::Op::none : la::Op::transpose;
      for (idx_t s = 0; s < x.right_size(mode); ++s) {
        la::gemm(la::Op::none, op_b, T{1}, x.slab(mode, s), u.cref(), T{0},
                 slab.slab(mode, s));
      }
      EXPECT_LT(max_diff(batched, slab), 10 * testutil::type_tol<T>())
          << "mode " << mode << " op " << static_cast<int>(op);
    }
  }
}

TEST(Ttm, MultiTtmEmptyModesMovesInsteadOfCopying) {
  auto x = random_tensor<double>({4, 3, 2}, 640);
  const double* buf = x.data();
  std::vector<la::ConstMatrixRef<double>> refs(3);
  auto y = multi_ttm(std::move(x), refs, {});
  EXPECT_EQ(y.data(), buf);  // identity path must not deep-copy
}

TEST(Ttm, MultiTtmLvalueEmptyModesThrows) {
  auto x = random_tensor<double>({4, 3, 2}, 641);
  std::vector<la::ConstMatrixRef<double>> refs(3);
  EXPECT_THROW(multi_ttm(x, refs, {}), precondition_error);
}

TEST(Ttm, MultiTtmRvalueNonEmptyStillApplies) {
  auto x = random_tensor<double>({4, 3, 2}, 642);
  auto keep = x;
  auto u = testutil::random_matrix<double>(3, 2, 643);
  std::vector<la::ConstMatrixRef<double>> refs(3);
  refs[1] = u.cref();
  auto moved = multi_ttm(std::move(x), refs, {1});
  auto plain = multi_ttm(keep, refs, {1});
  EXPECT_LT(max_diff(moved, plain), 1e-14);
}

TEST(Ttm, IdentityFactorIsNoOp) {
  auto x = random_tensor<double>({3, 4, 2}, 610);
  auto eye = la::Matrix<double>::identity(4);
  auto y = ttm(x, 1, eye.cref(), la::Op::transpose);
  EXPECT_LT(max_diff(x, y), 1e-14);
}

}  // namespace
}  // namespace rahooi::tensor
