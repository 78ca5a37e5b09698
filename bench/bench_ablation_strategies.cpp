// Ablations of the repo's extension features, both rooted in the paper's
// related-work section (§2.3):
//
//  (1) rank-adaptation strategy — the paper's global alpha growth (Alg. 3
//      line 9) vs mode-wise expansion/contraction in the spirit of Xiao &
//      Yang's RA-HOOI, on a problem with strongly anisotropic true ranks,
//      where per-mode decisions should avoid inflating the cheap modes;
//
//  (2) STHOSVD LLSV kernel — TuckerMPI's Gram + sequential EVD vs the
//      numerically stable TSQR + small SVD of Li, Fang & Ballard, in
//      single precision where the Gram path squares the condition number.

#include "bench_util.hpp"
#include "data/synthetic.hpp"

using namespace rahooi;
using namespace rahooi::bench;

namespace {

void adaptation_study() {
  std::printf("--- (1) adaptation strategy: global alpha vs mode-wise "
              "(true ranks 2x8x2, start 2x2x2, eps = 0.02) ---\n\n");
  const std::vector<idx_t> dims = {32, 36, 32};
  const std::vector<idx_t> true_ranks = {2, 8, 2};
  CsvTable table({"strategy", "iterations", "total_seconds", "final_ranks",
                  "rel_error", "compressed_size"});
  for (const auto strategy :
       {core::AdaptStrategy::global_growth, core::AdaptStrategy::modewise}) {
    core::RankAdaptiveResult<double> ra;
    RunResult run = timed_run(4, [&](comm::Comm& world) {
      auto grid = std::make_shared<dist::ProcessorGrid>(
          world, std::vector<int>{1, 2, 2});
      auto x = std::make_shared<dist::DistTensor<double>>(
          data::synthetic_tucker<double>(*grid, dims, true_ranks, 0.005,
                                         21));
      return std::function<void()>([grid, x, &world, &ra, strategy] {
        core::RankAdaptiveOptions opt;
        opt.tolerance = 0.02;
        opt.max_iters = 8;
        opt.strategy = strategy;
        opt.continue_after_satisfied = false;
        auto res = core::rank_adaptive_hooi(*x, {2, 2, 2}, opt);
        if (world.rank() == 0) ra = std::move(res);
      });
    });
    table.begin_row();
    table.add(std::string(strategy == core::AdaptStrategy::modewise
                              ? "modewise"
                              : "global_alpha"));
    table.add(static_cast<int>(ra.iterations.size()));
    table.add(run.seconds);
    table.add(dims_to_string(ra.tucker.ranks()));
    table.add(ra.rel_error);
    table.add(ra.compressed_size);
  }
  emit(table, "ablation_strategy");
}

void kernel_study() {
  std::printf("--- (2) STHOSVD LLSV kernel: Gram+EVD vs TSQR+SVD, single "
              "precision, ill-conditioned input ---\n\n");
  // Low-rank tensor with singular values spanning ~5 digits: in float the
  // Gram path works with squared values spanning ~10 digits — beyond float
  // precision — while the QR path resolves the spectrum directly.
  const std::vector<idx_t> dims = {48, 40, 36};
  CsvTable table({"kernel", "eps", "seconds", "ranks", "rel_error"});
  for (const double eps : {1e-2, 1e-4}) {
    for (const auto kernel :
         {core::SvdMethod::gram_evd, core::SvdMethod::qr_svd}) {
      core::TuckerResult<float> st;
      RunResult run = timed_run(4, [&](comm::Comm& world) {
        auto grid = std::make_shared<dist::ProcessorGrid>(
            world, std::vector<int>{1, 2, 2});
        auto x = std::make_shared<dist::DistTensor<float>>(
            data::synthetic_tucker<float>(*grid, dims, {6, 6, 6}, 1e-5,
                                          22));
        return std::function<void()>([grid, x, &world, &st, kernel, eps] {
          auto res = core::sthosvd(*x, eps, kernel);
          if (world.rank() == 0) st = std::move(res);
        });
      });
      table.begin_row();
      table.add(std::string(kernel == core::SvdMethod::qr_svd ? "qr_svd"
                                                              : "gram_evd"));
      table.add(eps);
      table.add(run.seconds);
      table.add(dims_to_string(st.ranks()));
      table.add(st.relative_error());
    }
  }
  emit(table, "ablation_llsv_kernel");
  std::printf("qr_svd trades ~2x the factorization flops for full working "
              "precision; both kernels\nmust deliver rel_error <= eps, with "
              "identical rank decisions on well-separated spectra.\n");
}

}  // namespace

int main() {
  std::printf("=== Ablations: adaptation strategy and LLSV kernel ===\n\n");
  adaptation_study();
  kernel_study();
  return 0;
}
