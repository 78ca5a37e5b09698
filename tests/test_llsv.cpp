#include "core/llsv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/runtime.hpp"
#include "core/hooi.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::core {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

// Largest principal angle (as a subspace distance) between the column
// spaces of two orthonormal matrices of equal shape.
template <typename T>
double subspace_distance(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  auto overlap = la::matmul<T>(la::Op::transpose, la::Op::none, a, b);
  auto svd = la::svd_jacobi<T>(overlap.cref());
  const double smin = svd.singular.back();  // cos of largest angle
  return std::sqrt(std::max(0.0, 1.0 - smin * smin));
}

template <typename T>
dist::DistTensor<T> distribute(const dist::ProcessorGrid& grid,
                               const tensor::Tensor<T>& serial) {
  return dist::DistTensor<T>::generate(
      grid, serial.dims(),
      [&serial](const std::vector<la::idx_t>& g) { return serial.at(g); });
}

// One LLSV-SI step on mode 0 from the orthonormal start `u0`.
template <typename T>
la::Matrix<T> subspace_step(const dist::DistTensor<T>& x,
                            const la::Matrix<T>& u0) {
  return llsv(x, 0, u0.cols(), 0.0, SvdMethod::subspace_iteration, &u0).u;
}

TEST(RankForThreshold, PicksSmallestSufficientRank) {
  // eigenvalues 10, 5, 1, 0.5, 0.25; trailing sums from the back:
  // r=4 drops 0.25; r=3 drops 0.75; r=2 drops 1.75; r=1 drops 6.75.
  const std::vector<double> ev = {10, 5, 1, 0.5, 0.25};
  EXPECT_EQ(rank_for_threshold(ev, 0.1), 5);
  EXPECT_EQ(rank_for_threshold(ev, 0.25), 4);
  EXPECT_EQ(rank_for_threshold(ev, 0.8), 3);
  EXPECT_EQ(rank_for_threshold(ev, 2.0), 2);
  EXPECT_EQ(rank_for_threshold(ev, 7.0), 1);
  EXPECT_EQ(rank_for_threshold(ev, 1e9), 1);  // never below 1
}

TEST(RankForThreshold, ClampsNegativeRoundoffEigenvalues) {
  const std::vector<double> ev = {4, 1, -1e-16, -1e-15};
  EXPECT_EQ(rank_for_threshold(ev, 1e-10), 2);
}

TEST(LlsvGram, RecoversTopSingularSubspace) {
  // Build X = G x U (low rank in mode 0) + tiny noise; the LLSV of mode 0
  // must match U's span.
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(12, 3, 1000));
  auto core = random_tensor<double>({3, 6, 5}, 1001);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid, x);
    auto res = llsv(xd, 0, 3, 0.0, SvdMethod::gram_evd);
    EXPECT_EQ(res.u.cols(), 3);
    EXPECT_LT(subspace_distance(res.u, u_true), 1e-6);
  });
}

TEST(LlsvGram, EigenvaluesMatchSingularValuesSquared) {
  auto x = random_tensor<double>({8, 6, 4}, 1002);
  auto svd = la::svd_jacobi<double>(tensor::unfold(x, 0).cref());
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto res = llsv(xd, 0, 2, 0.0, SvdMethod::gram_evd);
    for (int i = 0; i < 8; ++i) {
      EXPECT_NEAR(res.eigenvalues[i], svd.singular[i] * svd.singular[i],
                  1e-8);
    }
  });
}

TEST(LlsvGramTol, ErrorSpecifiedRankSelection) {
  // Low-rank + noise: with a generous threshold the rank collapses to the
  // true rank; with a zero threshold it stays full.
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(10, 2, 1003));
  auto core = random_tensor<double>({2, 7, 6}, 1004);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  const double noise_sq = 1e-6 * x.sum_squares();
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    auto tight = llsv(xd, 0, 0, noise_sq, SvdMethod::gram_evd);
    EXPECT_EQ(tight.rank, 2);
    auto loose = llsv(xd, 0, 0, 0.0, SvdMethod::gram_evd);
    EXPECT_GE(loose.rank, 2);
  });
}

TEST(LlsvSubspace, OneStepRefinesToTrueSubspace) {
  // Subspace iteration from a random start on a strongly low-rank tensor
  // converges essentially in one step (large spectral gap).
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(14, 3, 1005));
  auto core = random_tensor<double>({3, 8, 6}, 1006);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 2});
    auto xd = distribute(grid, x);
    auto u0 = random_factors<double>({14, 8, 6}, {3, 3, 3}, 99)[0];
    auto u1 = subspace_step(xd, u0);
    EXPECT_EQ(u1.rows(), 14);
    EXPECT_EQ(u1.cols(), 3);
    EXPECT_LT(la::orthogonality_error<double>(u1), 1e-10);
    EXPECT_LT(subspace_distance(u1, u_true), 1e-6);
  });
}

TEST(LlsvSubspace, MatchesGramSubspaceOnGappedSpectrum) {
  // With an accurate start (the Gram LLSV itself), one subspace step must
  // stay in the same subspace — the §3.4 'single iteration suffices' claim.
  auto x = random_tensor<double>({10, 6, 5}, 1007);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto exact = llsv(xd, 0, 3, 0.0, SvdMethod::gram_evd).u;
    auto refined = subspace_step(xd, exact);
    EXPECT_LT(subspace_distance(refined, exact), 1e-6);
  });
}

TEST(LlsvSubspace, GridInvariance) {
  auto x = random_tensor<double>({9, 8, 7}, 1008);
  auto u0 = random_factors<double>({9, 8, 7}, {2, 2, 2}, 5)[0];
  la::Matrix<double> reference;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    reference = subspace_step(xd, u0);
  });
  for (const std::vector<int>& gdims :
       {std::vector<int>{2, 2, 1}, {1, 2, 2}, {4, 1, 1}}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, gdims);
      auto xd = distribute(grid, x);
      auto u1 = subspace_step(xd, u0);
      // Same subspace regardless of the grid (signs/pivots may differ only
      // when columns tie; with random data the result is unique). The bound
      // leaves headroom over 1e-8: sanitizer builds inhibit FP contraction
      // enough to shift the distance by ~5e-9.
      EXPECT_LT(subspace_distance(u1, reference), 5e-8);
    });
  }
}

TEST(LlsvSubspace, PhaseAttributionCoversTtmContractionQr) {
  auto x = random_tensor<double>({8, 6, 5}, 1009);
  std::vector<Stats> per_rank;
  auto u0 = random_factors<double>({8, 6, 5}, {2, 2, 2}, 6)[0];
  comm::Runtime::run(
      2,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {2, 1, 1});
        auto xd = distribute(grid, x);
        (void)subspace_step(xd, u0);
      },
      &per_rank);
  for (const Stats& s : per_rank) {
    // Both the internal TTM (Alg. 5 line 2) and the contraction (line 3)
    // count toward the contraction phase; the sweep's multi-TTMs are the
    // caller's.
    EXPECT_EQ(s.flops[static_cast<int>(Phase::ttm)], 0.0);
    EXPECT_GT(s.flops[static_cast<int>(Phase::contraction)], 0.0);
    EXPECT_GT(s.flops[static_cast<int>(Phase::qr)], 0.0);
    EXPECT_EQ(s.flops[static_cast<int>(Phase::gram)], 0.0);
    EXPECT_EQ(s.flops[static_cast<int>(Phase::evd)], 0.0);
  }
}

TEST(LlsvQrSvd, MatchesGramSubspaceAndEigenvalues) {
  auto x = random_tensor<double>({10, 8, 6}, 1020);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid, x);
    auto gram = llsv(xd, 0, 4, 0.0, SvdMethod::gram_evd);
    auto qrsvd = llsv(xd, 0, 4, 0.0, SvdMethod::qr_svd);
    EXPECT_LT(subspace_distance(qrsvd.u, gram.u), 1e-6);
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(qrsvd.eigenvalues[i], gram.eigenvalues[i],
                  1e-8 * std::max(1.0, gram.eigenvalues[0]));
    }
  });
}

TEST(LlsvQrSvd, ErrorSpecifiedRankMatchesGramPath) {
  auto x = random_tensor<double>({9, 7, 6}, 1021);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    const double tau_sq = 0.05 * xd.norm_squared();
    auto gram = llsv(xd, 0, 0, tau_sq, SvdMethod::gram_evd);
    auto qrsvd = llsv(xd, 0, 0, tau_sq, SvdMethod::qr_svd);
    EXPECT_EQ(qrsvd.rank, gram.rank);
  });
}

TEST(LlsvQrSvd, MoreAccurateThanGramInSinglePrecision) {
  // Ill-conditioned unfolding: the Gram path squares the condition number
  // and float EVD loses the trailing spectrum; QR-SVD keeps full working
  // precision (the Li/Fang/Ballard motivation the paper cites).
  const double sv[4] = {1.0, 1e-2, 1e-4, 3e-5};
  auto u_true = la::orthonormalize<double>(random_matrix<double>(12, 4, 1022));
  auto core = random_tensor<double>({4, 8, 6}, 1023);
  // Normalize core rows-ish by scaling mode-0 slices through a diagonal.
  la::Matrix<double> us(12, 4);
  for (la::idx_t j = 0; j < 4; ++j) {
    for (la::idx_t i = 0; i < 12; ++i) {
      us(i, j) = u_true(i, j) * sv[j] / 3.0;
    }
  }
  auto xd_serial = tensor::ttm(core, 0, us.cref(), la::Op::none);
  tensor::Tensor<float> xf(xd_serial.dims());
  for (la::idx_t i = 0; i < xf.size(); ++i) {
    xf[i] = static_cast<float>(xd_serial[i]);
  }
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xdist = dist::DistTensor<float>::generate(
        grid, xf.dims(),
        [&xf](const std::vector<la::idx_t>& g) { return xf.at(g); });
    auto qrsvd = llsv(xdist, 0, 4, 0.0, SvdMethod::qr_svd);
    // Exact singular values of the double construction, squared.
    const auto svd = la::svd_jacobi<double>(
        tensor::unfold(xd_serial, 0).cref());
    // The smallest retained singular value: QR-SVD in float resolves it.
    const double truth = svd.singular[3];
    const double est = std::sqrt(std::max(0.0, qrsvd.eigenvalues[3]));
    EXPECT_LT(std::abs(est - truth) / truth, 0.05);
  });
}

TEST(Llsv, MissingInputsThrowPreconditionError) {
  // The dispatch owns every method's input contract: the subspace-iteration
  // methods are rank-specified, and subspace_iteration needs a warm factor
  // of the requested rank. Every rank throws before any collective.
  auto x = random_tensor<double>({6, 5, 4}, 1013);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto u0 = random_factors<double>({6, 5, 4}, {2, 2, 2}, 1)[0];
    EXPECT_THROW(llsv(xd, 0, 2, 0.0, SvdMethod::subspace_iteration),
                 precondition_error);
    EXPECT_THROW(llsv(xd, 0, 3, 0.0, SvdMethod::subspace_iteration, &u0),
                 precondition_error);
    EXPECT_THROW(llsv(xd, 0, 0, 0.1, SvdMethod::subspace_iteration, &u0),
                 precondition_error);
    EXPECT_THROW(llsv(xd, 0, 0, 0.1, SvdMethod::randomized),
                 precondition_error);
    EXPECT_THROW(llsv(xd, 0, 7, 0.0, SvdMethod::gram_evd),
                 precondition_error);
    EXPECT_THROW(llsv(xd, 0, 0, -1.0, SvdMethod::qr_svd), precondition_error);
    // The cold start needs no warm factor.
    auto cold = llsv(xd, 0, 2, 0.0, SvdMethod::randomized);
    EXPECT_EQ(cold.u.cols(), 2);
    EXPECT_LT(la::orthogonality_error<double>(cold.u), 1e-10);
  });
}

TEST(Llsv, VariantNames) {
  HooiOptions o;
  EXPECT_EQ(variant_name(o), "HOOI");
  o.use_dimension_tree = true;
  EXPECT_EQ(variant_name(o), "HOOI-DT");
  o.svd_method = SvdMethod::subspace_iteration;
  EXPECT_EQ(variant_name(o), "HOSI-DT");
  o.use_dimension_tree = false;
  EXPECT_EQ(variant_name(o), "HOSI");
  o.svd_method = SvdMethod::qr_svd;
  EXPECT_EQ(variant_name(o), "HOOI-QR");
}

}  // namespace
}  // namespace rahooi::core
