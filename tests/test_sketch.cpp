#include "dist/sketch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/runtime.hpp"
#include "core/llsv.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "metrics/metrics.hpp"
#include "model/cost_model.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::dist {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
DistTensor<T> distribute(const ProcessorGrid& grid,
                         const tensor::Tensor<T>& serial) {
  return DistTensor<T>::generate(
      grid, serial.dims(),
      [&serial](const std::vector<la::idx_t>& g) { return serial.at(g); });
}

/// Largest principal angle between the column spaces of two orthonormal
/// matrices (as in test_llsv).
template <typename T>
double subspace_distance(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  auto overlap = la::matmul<T>(la::Op::transpose, la::Op::none, a, b);
  auto svd = la::svd_jacobi<T>(overlap.cref());
  const double smin = svd.singular.back();
  return std::sqrt(std::max(0.0, 1.0 - smin * smin));
}

/// Serial reference sketch: unfold(x, mode) times the explicitly
/// materialized Omega, regenerated here from the documented entry
/// conventions (gaussian: Omega(k, t) = rng.normal2(k, t); krp: row-wise
/// product of the per-mode factors W_i(c, t) = rng.stream(i).normal2(c, t)).
template <typename T>
la::Matrix<T> reference_sketch(const tensor::Tensor<T>& x, int mode,
                               la::idx_t cols, const CounterRng& rng,
                               SketchKind kind) {
  auto xu = tensor::unfold(x, mode);
  la::Matrix<T> omega(xu.cols(), cols);
  if (kind == SketchKind::gaussian) {
    for (la::idx_t t = 0; t < cols; ++t) {
      for (la::idx_t k = 0; k < omega.rows(); ++k) {
        omega(k, t) = static_cast<T>(rng.normal2(
            static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(t)));
      }
    }
  } else {
    for (la::idx_t t = 0; t < cols; ++t) {
      for (la::idx_t k = 0; k < omega.rows(); ++k) {
        la::idx_t rem = k;
        double v = 1.0;
        for (int i = 0; i < x.ndims(); ++i) {
          if (i == mode) continue;
          const la::idx_t c = rem % x.dim(i);
          rem /= x.dim(i);
          v *= rng.stream(static_cast<std::uint64_t>(i))
                   .normal2(static_cast<std::uint64_t>(c),
                            static_cast<std::uint64_t>(t));
        }
        omega(k, t) = static_cast<T>(v);
      }
    }
  }
  return la::matmul<T>(la::Op::none, la::Op::none, xu.cref(), omega.cref());
}

TEST(DistSketch, MatchesSerialUnfoldApply) {
  auto x = random_tensor<double>({7, 6, 5}, 2001);
  const CounterRng rng = CounterRng(42).stream(7);
  for (const SketchKind kind : {SketchKind::gaussian, SketchKind::krp}) {
    for (int mode = 0; mode < 3; ++mode) {
      auto expected = reference_sketch(x, mode, 4, rng, kind);
      comm::Runtime::run(1, [&](comm::Comm& world) {
        ProcessorGrid grid(world, {1, 1, 1});
        auto xd = distribute(grid, x);
        auto y = dist_sketch_mode(xd, mode, 4, rng, kind);
        ASSERT_EQ(y.rows(), expected.rows());
        ASSERT_EQ(y.cols(), expected.cols());
        for (la::idx_t i = 0; i < y.size(); ++i) {
          EXPECT_NEAR(y.data()[i], expected.data()[i], 1e-10)
              << "kind " << static_cast<int>(kind) << " mode " << mode;
        }
      });
    }
  }
}

TEST(DistSketch, DeterministicPathBitwiseGridInvariant) {
  auto x = random_tensor<double>({8, 6, 4}, 2002);
  const CounterRng rng = CounterRng(9).stream(1);
  for (const SketchKind kind : {SketchKind::gaussian, SketchKind::krp}) {
    la::Matrix<double> reference;
    comm::Runtime::run(1, [&](comm::Comm& world) {
      ProcessorGrid grid(world, {1, 1, 1});
      auto xd = distribute(grid, x);
      reference = dist_sketch_mode(xd, 1, 5, rng, kind,
                                   /*deterministic=*/true);
    });
    for (const std::vector<int>& gdims :
         {std::vector<int>{2, 2, 1}, {1, 2, 2}, {4, 1, 1}}) {
      comm::Runtime::run(4, [&](comm::Comm& world) {
        ProcessorGrid grid(world, gdims);
        auto xd = distribute(grid, x);
        auto y = dist_sketch_mode(xd, 1, 5, rng, kind,
                                  /*deterministic=*/true);
        for (la::idx_t i = 0; i < y.size(); ++i) {
          // Bitwise: the fixed-point reduction is associative.
          EXPECT_EQ(y.data()[i], reference.data()[i])
              << "kind " << static_cast<int>(kind);
        }
      });
    }
  }
}

TEST(DistSketch, FastPathGridInvariantToRoundoff) {
  auto x = random_tensor<double>({8, 6, 4}, 2003);
  const CounterRng rng = CounterRng(11).stream(2);
  for (const SketchKind kind : {SketchKind::gaussian, SketchKind::krp}) {
    for (int mode = 0; mode < 3; ++mode) {
      la::Matrix<double> reference;
      comm::Runtime::run(1, [&](comm::Comm& world) {
        ProcessorGrid grid(world, {1, 1, 1});
        auto xd = distribute(grid, x);
        reference = dist_sketch_mode(xd, mode, 4, rng, kind);
      });
      comm::Runtime::run(4, [&](comm::Comm& world) {
        ProcessorGrid grid(world, {2, 2, 1});
        auto xd = distribute(grid, x);
        auto y = dist_sketch_mode(xd, mode, 4, rng, kind);
        for (la::idx_t i = 0; i < y.size(); ++i) {
          EXPECT_NEAR(y.data()[i], reference.data()[i], 5e-8);
        }
      });
    }
  }
}

TEST(DistSketch, DeterministicTracksFastPath) {
  // The quantized result must agree with the floating-point apply to the
  // fixed-point resolution (62-bit mantissa budget spread over the fibers).
  auto x = random_tensor<double>({6, 5, 4}, 2004);
  const CounterRng rng = CounterRng(13).stream(3);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto fast = dist_sketch_mode(xd, 0, 4, rng, SketchKind::gaussian);
    auto det = dist_sketch_mode(xd, 0, 4, rng, SketchKind::gaussian,
                                /*deterministic=*/true);
    for (la::idx_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast.data()[i], det.data()[i], 1e-9);
    }
  });
}

TEST(DistSketch, FlopAccountingMatchesModelPrediction) {
  // Satellite of the cost-model work: the measured Phase::gram flops of one
  // distributed sketch apply, summed over ranks, must equal the model's
  // 2 s prod(n_i) exactly — on both the batched and tall-skinny kernels.
  const std::vector<la::idx_t> dims = {12, 10, 8};
  const la::idx_t s = 5;
  auto x = random_tensor<double>(dims, 2005);
  const CounterRng rng = CounterRng(17).stream(4);
  for (int mode = 0; mode < 3; ++mode) {
    std::vector<Stats> per_rank;
    comm::Runtime::run(
        4,
        [&](comm::Comm& world) {
          ProcessorGrid grid(world, {1, 2, 2});
          auto xd = distribute(grid, x);
          (void)dist_sketch_mode(xd, mode, s, rng, SketchKind::gaussian);
        },
        &per_rank);
    double measured = 0.0;
    for (const Stats& st : per_rank) {
      measured += st.flops[static_cast<int>(Phase::gram)];
    }
    const std::vector<std::int64_t> extents(dims.begin(), dims.end());
    EXPECT_DOUBLE_EQ(measured, model::predict_sketch_apply_flops(extents, s))
        << "mode " << mode;
  }
}

TEST(DistSketch, CommVolumePredictionIsSmallerThanGram) {
  // 2 n s (P-1)/P words per rank, vs 2 n^2 (P-1)/P for the Gram allreduce.
  EXPECT_DOUBLE_EQ(model::predict_sketch_llsv_words(64, 12, 4),
                   2.0 * 64 * 12 * 3 / 4);
  EXPECT_LT(model::predict_sketch_llsv_words(64, 12, 4),
            2.0 * 64 * 64 * 3 / 4);
}

TEST(LlsvSketch, FixedRankRecoversTopSingularSubspace) {
  // Exactly low-rank mode-0 structure: the sketched range finder recovers
  // the true subspace (HMT: exact for rank <= sketch width).
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(12, 3, 2006));
  auto core = random_tensor<double>({3, 6, 5}, 2007);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid, x);
    core::SketchOptions sketch;
    for (const core::SvdMethod method :
         {core::SvdMethod::gaussian_sketch, core::SvdMethod::krp_sketch}) {
      auto res = core::llsv(xd, 0, 3, 0.0, method, nullptr, sketch,
                            CounterRng(5).stream(0));
      EXPECT_EQ(res.u.cols(), 3);
      EXPECT_LT(la::orthogonality_error<double>(res.u), 1e-10);
      EXPECT_LT(subspace_distance(res.u, u_true), 1e-6);
    }
  });
}

TEST(LlsvSketch, AdaptiveFindsRankAndCountsRegrowths) {
  // Low-rank + tiny noise, starting from a deliberately undersized sketch:
  // the width must grow (counted in Counter::sketch_regrowths) until the
  // estimated tail clears the threshold, landing on the true rank.
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(14, 4, 2008));
  auto core = random_tensor<double>({4, 8, 6}, 2009);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  const double noise_sq = 1e-8 * x.sum_squares();
  comm::Runtime::run(2, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    metrics::Registry reg;
    reg.set_rank(world.rank());
    const metrics::ScopedRegistry guard(reg);
    core::SketchOptions sketch;
    sketch.min_cols = 2;  // forces at least one regrowth round
    sketch.oversample = 2;
    auto res = core::llsv(xd, 0, 0, noise_sq, core::SvdMethod::gaussian_sketch,
                          nullptr, sketch, CounterRng(6).stream(0));
    EXPECT_EQ(res.rank, 4);
    EXPECT_GE(reg.counter(metrics::Counter::sketch_regrowths), 1u);
    // The named counter accumulated every draw's width; the gauge's
    // high-water mark is the widest single sketch the ladder reached
    // (>= rank + oversample, since that width was needed to accept).
    EXPECT_GE(reg.named().at("sketch.cols"), 2.0);
    EXPECT_GE(reg.sketch_cols().peak, 6.0);
    EXPECT_EQ(reg.sketch_cols().live, 0.0);
  });
}

TEST(LlsvSketch, EigenvalueEstimatesTrackGram) {
  // lambda_i = sigma_i(Y)^2 / s estimates the Gram eigenvalues; on a
  // gapped spectrum the leading estimates are within the HMT concentration
  // range (loose factor-of-2 check — this is a statistical estimate).
  auto u_true =
      la::orthonormalize<double>(random_matrix<double>(10, 2, 2010));
  auto core = random_tensor<double>({2, 7, 6}, 2011);
  auto x = tensor::ttm(core, 0, u_true.cref(), la::Op::none);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto gram = core::llsv(xd, 0, 2, 0.0, core::SvdMethod::gram_evd);
    core::SketchOptions sketch;
    sketch.oversample = 16;  // large oversampling tightens the estimate
    auto sk = core::llsv(xd, 0, 2, 0.0, core::SvdMethod::gaussian_sketch,
                         nullptr, sketch, CounterRng(8).stream(0));
    for (int i = 0; i < 2; ++i) {
      EXPECT_GT(sk.eigenvalues[i], 0.5 * gram.eigenvalues[i]);
      EXPECT_LT(sk.eigenvalues[i], 2.0 * gram.eigenvalues[i]);
    }
  });
}

TEST(SketchedSthosvd, OversamplingMeetsEpsAcrossSeeds) {
  // The ISSUE's error-distribution requirement: over >= 20 independent
  // sketch draws, the (r + p)-column sketched ST-HOSVD meets the requested
  // eps on synthetic Tucker data every time (the safety margin plus
  // oversampling make failures vanishingly rare at this size).
  const double eps = 0.1;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {1, 1, 1});
    auto x = data::synthetic_tucker<double>(grid, {16, 14, 12}, {4, 3, 2},
                                            1e-4, 2012);
    // min_cols/oversample below the mode dimensions so every truncation is
    // decided by the sketched spectrum, never the exact gram fallback.
    core::SketchOptions sketch;
    sketch.min_cols = 8;
    sketch.oversample = 4;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      auto res = core::sthosvd(x, eps, core::SvdMethod::gaussian_sketch,
                               sketch, seed);
      EXPECT_LE(res.relative_error(), eps) << "seed " << seed;
    }
  });
}

TEST(SketchedSthosvd, FixedRankMatchesGramKernelError) {
  comm::Runtime::run(4, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 1});
    auto x = data::synthetic_tucker<double>(grid, {14, 12, 10}, {3, 3, 3},
                                            1e-3, 2013);
    const std::vector<la::idx_t> ranks = {3, 3, 3};
    auto gram = core::sthosvd_fixed_rank(x, ranks);
    auto sk = core::sthosvd_fixed_rank(x, ranks,
                                       core::SvdMethod::gaussian_sketch);
    // Same truncation ranks; the sketched subspaces are near-optimal but
    // randomized, so allow a constant-factor band around the (optimal)
    // gram truncation error rather than a tight match.
    EXPECT_GE(sk.relative_error(), 0.5 * gram.relative_error());
    EXPECT_LE(sk.relative_error(), 2.0 * gram.relative_error() + 1e-9);
  });
}

}  // namespace
}  // namespace rahooi::dist
