#include "model/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "model/calibration.hpp"

namespace rahooi::model {
namespace {

Problem cubical(int d, double n, double r, int iters,
                std::vector<int> grid) {
  return Problem{d, n, r, iters, std::move(grid)};
}

TEST(CostModel, AlgorithmNamesRoundTrip) {
  for (Algorithm a : {Algorithm::sthosvd, Algorithm::hooi, Algorithm::hooi_dt,
                      Algorithm::hosi, Algorithm::hosi_dt}) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_THROW(algorithm_from_name("nope"), precondition_error);
}

TEST(CostModel, SthosvdGramDominatesForLargeNOverR) {
  auto c = predict(Algorithm::sthosvd, cubical(3, 1000, 10, 1, {1, 1, 1}));
  // n^{d+1}/P = 1e12 vs TTM 2 r n^d / P = 2e10.
  EXPECT_DOUBLE_EQ(c.gram_flops, 1e12);
  EXPECT_DOUBLE_EQ(c.ttm_flops, 2e10);
  EXPECT_GT(c.gram_flops, 10 * c.ttm_flops);
}

TEST(CostModel, DimensionTreeReducesTtmByDOver2) {
  const auto direct =
      predict(Algorithm::hooi, cubical(6, 100, 5, 1, {1, 1, 1, 1, 1, 1}));
  const auto tree =
      predict(Algorithm::hooi_dt, cubical(6, 100, 5, 1, {1, 1, 1, 1, 1, 1}));
  // Table 1: 2 d r n^d / P vs 4 r n^d / P -> ratio d/2 = 3.
  EXPECT_NEAR(direct.ttm_flops / tree.ttm_flops, 3.0, 1e-12);
}

TEST(CostModel, SubspaceIterationRemovesEvdCost) {
  const auto gram = predict(Algorithm::hooi, cubical(3, 500, 10, 2, {4, 1, 1}));
  const auto si = predict(Algorithm::hosi, cubical(3, 500, 10, 2, {4, 1, 1}));
  EXPECT_GT(gram.evd_flops, 0.0);
  EXPECT_EQ(si.evd_flops, 0.0);
  EXPECT_GT(si.qr_flops, 0.0);
  // Sequential QR is far cheaper than sequential EVD: O((n/r)^2) factor.
  EXPECT_GT(gram.evd_flops / si.qr_flops, 100.0);
}

TEST(CostModel, SubspaceLlsvCheaperByNOver4R) {
  // Table 1: Gram LLSV d n^2 r^{d-1} / P vs 4 d n r^d / P -> ratio n/(4r).
  const int d = 3;
  const double n = 1200, r = 10;
  const auto gram = predict(Algorithm::hooi, cubical(d, n, r, 1, {1, 1, 1}));
  const auto si = predict(Algorithm::hosi, cubical(d, n, r, 1, {1, 1, 1}));
  EXPECT_NEAR(gram.gram_flops / si.contraction_flops, n / (4 * r), 1e-9);
}

TEST(CostModel, HooiIterationsScaleLinearly) {
  const auto one = predict(Algorithm::hosi_dt, cubical(4, 200, 8, 1, {2, 1, 1, 2}));
  const auto three =
      predict(Algorithm::hosi_dt, cubical(4, 200, 8, 3, {2, 1, 1, 2}));
  EXPECT_NEAR(three.ttm_flops, 3 * one.ttm_flops, 1e-6);
  EXPECT_NEAR(three.llsv_words, 3 * one.llsv_words, 1e-6);
}

TEST(CostModel, ParallelFlopsShrinkWithP) {
  const auto p1 = predict(Algorithm::sthosvd, cubical(3, 400, 8, 1, {1, 1, 1}));
  const auto p8 = predict(Algorithm::sthosvd, cubical(3, 400, 8, 1, {2, 2, 2}));
  EXPECT_NEAR(p8.parallel_flops(), p1.parallel_flops() / 8, 1e-3);
  // Sequential EVD does not shrink — the paper's scaling bottleneck.
  EXPECT_DOUBLE_EQ(p8.evd_flops, p1.evd_flops);
}

TEST(CostModel, TreeTtmWordsPreferP1AndPdEqualOne)
{
  // Table 2: dim-tree TTM words = (r n^{d-1}/P)(P_1 + P_d - 2); with
  // P_1 = P_d = 1 the TTM communication vanishes.
  const auto good =
      predict(Algorithm::hosi_dt, cubical(4, 100, 5, 1, {1, 2, 4, 1}));
  const auto bad =
      predict(Algorithm::hosi_dt, cubical(4, 100, 5, 1, {4, 1, 1, 2}));
  EXPECT_DOUBLE_EQ(good.ttm_words, 0.0);
  EXPECT_GT(bad.ttm_words, 0.0);
}

TEST(CostModel, SthosvdPrefersP1EqualOne) {
  const auto good = predict(Algorithm::sthosvd, cubical(3, 100, 5, 1, {1, 2, 4}));
  const auto bad = predict(Algorithm::sthosvd, cubical(3, 100, 5, 1, {8, 1, 1}));
  EXPECT_LT(good.ttm_words + good.llsv_words,
            bad.ttm_words + bad.llsv_words);
}

TEST(CostModel, ModeledTimeMonotoneInRates) {
  const auto c = predict(Algorithm::hosi_dt, cubical(3, 500, 10, 2, {2, 2, 2}));
  MachineRates slow{1e9, 1e9, 4, 1e10, 2e-6};
  MachineRates fast{4e9, 4e9, 4, 4e10, 2e-6};
  EXPECT_GT(modeled_seconds(c, slow), modeled_seconds(c, fast));
}

TEST(CostModel, GridFactorizationsCoverAll) {
  auto grids = grid_factorizations(8, 3);
  // Ordered factorizations of 8 into 3 factors: 3 compositions of exponent
  // 3 over 3 slots = C(5,2) = 10.
  EXPECT_EQ(grids.size(), 10u);
  for (const auto& g : grids) {
    EXPECT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0] * g[1] * g[2], 8);
  }
}

TEST(CostModel, BestGridAvoidsFirstModeForSthosvd) {
  MachineRates m;
  auto g = best_grid(Algorithm::sthosvd, 3, 1000, 10, 1, 64, m);
  EXPECT_EQ(g[0], 1);  // paper: P_1 = 1 grids are fastest for STHOSVD
}

TEST(CostModel, BestGridAvoidsFirstAndLastForTreeVariants) {
  MachineRates m;
  auto g = best_grid(Algorithm::hosi_dt, 3, 1000, 10, 2, 64, m);
  EXPECT_EQ(g.front(), 1);  // paper: P_1 = P_d = 1 best for *-DT
  EXPECT_EQ(g.back(), 1);
}

TEST(CostModel, HosiDtBeatsSthosvdInHighCompressionRegime) {
  // Paper §3.1: RA-HOSI-DT is cheaper when n/r > 8 (with ell = 2).
  MachineRates m;  // equal rates isolate the flop comparison
  const auto st = predict(Algorithm::sthosvd, cubical(3, 1000, 10, 2, {1, 1, 1}));
  const auto ho = predict(Algorithm::hosi_dt, cubical(3, 1000, 10, 2, {1, 1, 1}));
  EXPECT_LT(modeled_seconds(ho, m), modeled_seconds(st, m));
}

TEST(CostModel, SthosvdWinsInLowCompressionRegime) {
  MachineRates m;
  // n/r = 2 < 8: HOOI's extra iterations should not pay off.
  const auto st = predict(Algorithm::sthosvd, cubical(3, 64, 32, 2, {1, 1, 1}));
  const auto ho = predict(Algorithm::hosi_dt, cubical(3, 64, 32, 2, {1, 1, 1}));
  EXPECT_LT(modeled_seconds(st, m), modeled_seconds(ho, m));
}

TEST(CostModel, SequentialEvdPlateausScaling) {
  // 3-way n = 3750 (the paper's Fig. 2 top): STHOSVD stops scaling once
  // the d n^3 EVD dominates; HOSI-DT keeps scaling.
  MachineRates m;
  auto time_at = [&](Algorithm a, int p) {
    auto grid = best_grid(a, 3, 3750, 30, 2, p, m);
    return modeled_seconds(predict(a, Problem{3, 3750, 30, 2, grid}), m);
  };
  const double st_64 = time_at(Algorithm::sthosvd, 64);
  const double st_4096 = time_at(Algorithm::sthosvd, 4096);
  const double hosi_64 = time_at(Algorithm::hosi_dt, 64);
  const double hosi_4096 = time_at(Algorithm::hosi_dt, 4096);
  // STHOSVD speedup from 64 to 4096 cores is small (paper: 1.3x).
  EXPECT_LT(st_64 / st_4096, 4.0);
  // HOSI-DT keeps a large advantage at scale (paper: 259x faster).
  EXPECT_GT(st_4096 / hosi_4096, 20.0);
  EXPECT_GT(hosi_64 / hosi_4096, 10.0);  // still scaling
}

TEST(CostModel, RooflineNeverFasterThanFlopModel) {
  MachineRates m;
  for (int p : {1, 64, 1024}) {
    for (Algorithm a : {Algorithm::sthosvd, Algorithm::hosi_dt}) {
      auto grid = best_grid(a, 3, 500, 8, 2, p, m);
      const auto c = predict(a, Problem{3, 500, 8, 2, grid});
      EXPECT_GE(modeled_seconds_roofline(c, m, p) + 1e-15,
                modeled_seconds(c, m));
    }
  }
}

TEST(CostModel, RooflineBandwidthSharingKicksInWithinNode) {
  // The same per-rank work takes longer when more ranks share the node's
  // memory bandwidth (paper: performance degrades at full-node core counts).
  MachineRates m;
  m.flops_per_sec = 1e12;  // force the memory term to dominate
  CostBreakdown c;
  c.mem_elements = 1e8;
  const double alone = modeled_seconds_roofline(c, m, 1);
  const double full_node = modeled_seconds_roofline(c, m, m.cores_per_node);
  EXPECT_GT(full_node, alone);
  // Beyond one node the per-rank bandwidth stops degrading.
  EXPECT_DOUBLE_EQ(modeled_seconds_roofline(c, m, 4 * m.cores_per_node),
                   full_node);
}

TEST(CostModel, RooflineComputeBoundWhenRanksAreLarge) {
  // Large r -> high arithmetic intensity -> roofline equals the flop model.
  MachineRates m;
  const auto c = predict(Algorithm::hosi_dt, Problem{3, 512, 256, 2, {1, 1, 1}});
  EXPECT_NEAR(modeled_seconds_roofline(c, m, 1), modeled_seconds(c, m),
              1e-12);
}

TEST(CostModel, MemElementsTrackTheTensorPasses) {
  const auto st = predict(Algorithm::sthosvd, cubical(3, 100, 5, 1, {1, 1, 1}));
  EXPECT_DOUBLE_EQ(st.mem_elements, 2e6);
  const auto direct = predict(Algorithm::hooi, cubical(3, 100, 5, 1, {1, 1, 1}));
  const auto tree = predict(Algorithm::hooi_dt, cubical(3, 100, 5, 1, {1, 1, 1}));
  EXPECT_DOUBLE_EQ(direct.mem_elements / tree.mem_elements, 1.5);  // d/2
}

TEST(Calibration, QuickRatesArePositive) {
  const MachineRates m = calibrate(/*quick=*/true);
  EXPECT_GT(m.flops_per_sec, 1e6);
  EXPECT_GT(m.seq_flops_per_sec, 1e6);
}

TEST(CostModel, LlsvPickerPinsTheWarmSweepChoice) {
  // Default rates, oversample 8, 2 iterations. A thin cube at P = 2 is
  // cheapest by warm-started subspace iteration; at r close to n the
  // r^d contraction outgrows the Gram matrix and its EVD.
  EXPECT_EQ(pick_llsv_backend(cubical(3, 256, 10, 2, {1, 1, 2}), 8),
            core::SvdMethod::subspace_iteration);
  EXPECT_EQ(pick_llsv_backend(cubical(3, 64, 60, 2, {1, 1, 1}), 8),
            core::SvdMethod::gram_evd);
  EXPECT_THROW(pick_llsv_backend(cubical(3, 64, 0, 2, {1, 1, 1}), 8),
               precondition_error);
}

TEST(CostModel, RejectsDegenerateProblem) {
  EXPECT_THROW(predict(Algorithm::hooi, Problem{0, 10, 2, 1, {}}),
               precondition_error);
  EXPECT_THROW(predict(Algorithm::hooi, Problem{3, 0, 2, 1, {}}),
               precondition_error);
}

}  // namespace
}  // namespace rahooi::model
