#include "core/rank_adaptive.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/solver_shell.hpp"
#include "core/sthosvd.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

template <typename T>
la::Matrix<T> grow_factor(const la::Matrix<T>& u, idx_t new_rank,
                          std::uint64_t seed) {
  const idx_t n = u.rows();
  const idx_t r = u.cols();
  RAHOOI_REQUIRE(new_rank >= r && new_rank <= n,
                 "grow_factor: new rank must be in [current rank, n]");
  if (new_rank == r) return u;

  // QR of [U | random]: since U is orthonormal, Q's leading r columns equal
  // U up to sign and the rest are a random orthonormal complement.
  CounterRng rng(seed);
  la::Matrix<T> ext(n, new_rank);
  for (idx_t j = 0; j < r; ++j) {
    for (idx_t i = 0; i < n; ++i) ext(i, j) = u(i, j);
  }
  for (idx_t j = r; j < new_rank; ++j) {
    for (idx_t i = 0; i < n; ++i) {
      ext(i, j) = static_cast<T>(rng.normal(i + j * n));
    }
  }
  la::Matrix<T> q = la::orthonormalize<T>(ext.cref());
  // Restore the original leading columns exactly (QR may flip signs).
  for (idx_t j = 0; j < r; ++j) {
    if (la::dot(n, q.data() + j * n, u.data() + j * n) < T{0}) {
      la::scal(n, T{-1}, q.data() + j * n);
    }
  }
  return q;
}

namespace {

/// modewise: expand a mode while its last slice holds more than this
/// fraction of the average slice energy (spectrum not yet decayed).
constexpr double kModewiseExpandFraction = 0.1;
/// modewise: contract trailing slices whose cumulative energy stays below
/// this fraction of the per-mode error budget eps^2 ||X||^2 / d.
constexpr double kModewiseContractFraction = 0.01;

/// Per-mode slice energies of the (gathered) core: out[j][i] is the squared
/// norm of the core slice with index i in mode j.
template <typename T>
std::vector<std::vector<double>> slice_energies(
    const tensor::Tensor<T>& core) {
  const int d = core.ndims();
  std::vector<std::vector<double>> energy(d);
  for (int j = 0; j < d; ++j) energy[j].assign(core.dim(j), 0.0);
  std::vector<idx_t> idx(d, 0);
  for (idx_t lin = 0; lin < core.size(); ++lin) {
    const double sq = static_cast<double>(core[lin]) * core[lin];
    for (int j = 0; j < d; ++j) energy[j][idx[j]] += sq;
    for (int j = 0; j < d; ++j) {
      if (++idx[j] < core.dim(j)) break;
      idx[j] = 0;
    }
  }
  return energy;
}

/// Mode-wise adaptation (AdaptStrategy::modewise): returns the new rank for
/// each mode given the slice spectra of the unsatisfied iterate.
std::vector<idx_t> modewise_new_ranks(
    const std::vector<std::vector<double>>& energy,
    const std::vector<idx_t>& dims, double core_norm_sq,
    double per_mode_budget_sq, double growth_factor) {
  const int d = static_cast<int>(energy.size());
  std::vector<idx_t> next(d);
  bool any_grew = false;
  int best_mode = 0;
  double best_tail = -1.0;
  for (int j = 0; j < d; ++j) {
    const auto& e = energy[j];
    const idx_t r = static_cast<idx_t>(e.size());
    // Contract: drop trailing slices while their cumulative energy stays
    // far inside the per-mode error budget.
    const double contract_tol =
        kModewiseContractFraction * per_mode_budget_sq;
    idx_t keep = r;
    double tail = 0.0;
    while (keep > 1 && tail + e[keep - 1] <= contract_tol) {
      tail += e[keep - 1];
      --keep;
    }
    // Expand: the spectrum has not decayed if the last kept slice still
    // holds a non-negligible share of the average slice energy.
    const double avg = core_norm_sq / std::max<double>(1.0, double(r));
    const double last = e[keep - 1];
    idx_t grown = keep;
    if (last > kModewiseExpandFraction * avg) {
      grown = std::min<idx_t>(
          dims[j], std::max<idx_t>(
                       keep + 1,
                       static_cast<idx_t>(std::ceil(
                           growth_factor * double(keep)))));
    }
    if (grown > static_cast<idx_t>(e.size())) any_grew = true;
    if (last > best_tail && static_cast<idx_t>(e.size()) < dims[j]) {
      best_tail = last;
      best_mode = j;
    }
    next[j] = grown;
  }
  // Progress guarantee: if no mode expanded beyond its current rank, grow
  // the mode whose spectrum is flattest (largest trailing slice energy).
  if (!any_grew) {
    next[best_mode] =
        std::min<idx_t>(dims[best_mode], next[best_mode] + 1);
  }
  return next;
}

}  // namespace

template <typename T>
RankAdaptiveResult<T> rank_adaptive_hooi(
    const dist::DistTensor<T>& x, const std::vector<idx_t>& initial_ranks,
    const RankAdaptiveOptions& options) {
  const int d = x.ndims();
  RAHOOI_REQUIRE(static_cast<int>(initial_ranks.size()) == d,
                 "rank_adaptive_hooi: one initial rank per mode required");
  validate(options);
  detail::SolverShell shell(x.grid().world(), "ra", options.hooi.yield_flag);
  RankAdaptiveResult<T> out;
  // Root span tagged Phase::other: the per-phase breakdown sums to the
  // whole run's wall time (see prof/trace.hpp).
  prof::TraceSpan root("ra", Phase::other);
  out.x_norm_sq = x.norm_squared();
  const double target_sq =
      (1.0 - options.tolerance * options.tolerance) * out.x_norm_sq;

  std::vector<idx_t> ranks = initial_ranks;
  for (int j = 0; j < d; ++j) {
    ranks[j] = std::min(ranks[j], x.global_dim(j));
    RAHOOI_REQUIRE(ranks[j] >= 1, "initial ranks must be positive");
  }
  std::vector<la::Matrix<T>> factors;
  int start = 0;
  if (!options.hooi.restore_path.empty()) {
    // Resume from a rank-adaptive checkpoint: the rank trajectory, the
    // replicated factors, and the best satisfied decomposition so far are
    // restored, and the loop continues at the recorded iteration. Because
    // the growth seeds are iteration-indexed and the RNG is counter-based,
    // the remaining iterations replay bitwise identically to the
    // uninterrupted run.
    SweepCheckpoint<T> ck = detail::load_resume_checkpoint(
        options.hooi.restore_path, CheckpointKind::rank_adaptive,
        options.hooi.seed, x, options.max_iters);
    ranks = ck.ranks;
    factors = std::move(ck.factors);
    start = static_cast<int>(ck.sweeps_done);
    out.satisfied = ck.ra_satisfied;
    if (ck.ra_satisfied) {
      out.rel_error = ck.ra_best_rel_error;
      out.compressed_size = static_cast<idx_t>(ck.ra_best_size);
      out.tucker = std::move(ck.best);
    }
    // Reseed the iteration log with the last completed iteration's summary
    // so the unsatisfied-fallback path below keeps working when the resumed
    // run also never satisfies the tolerance.
    RaIterationRecord resumed;
    resumed.index = start;
    resumed.sweep_ranks = ranks;
    resumed.ranks_after = ranks;
    resumed.rel_error = ck.ra_last_rel_error;
    resumed.rel_error_after = ck.ra_last_rel_error;
    resumed.compressed_size = static_cast<idx_t>(ck.ra_last_size);
    resumed.satisfied = ck.ra_satisfied;
    out.iterations.push_back(std::move(resumed));
  } else if (options.init == RaInit::sketched_sthosvd) {
    // Randomized ST-HOSVD warm start: one sketched pass at the target
    // tolerance seeds both factors and ranks, so the first HOOI iteration
    // refines an informed subspace instead of random noise. The adaptive
    // sketch width grows per mode until its tail estimate clears the
    // per-mode threshold (core/llsv.hpp). Policy: Khatri-Rao if the sweeps
    // sketch with it, else Gaussian.
    prof::TraceSpan init_span("sketched_init");
    const SvdMethod method = options.hooi.svd_method == SvdMethod::krp_sketch
                                 ? SvdMethod::krp_sketch
                                 : SvdMethod::gaussian_sketch;
    TuckerResult<T> init = sthosvd(x, options.tolerance, method,
                                   options.hooi.sketch, options.hooi.seed);
    factors = std::move(init.factors);
    for (int j = 0; j < d; ++j) ranks[j] = factors[j].cols();
  } else {
    factors = random_factors<T>(x.global_dims(), ranks, options.hooi.seed);
  }

  for (int iter = start + 1; iter <= options.max_iters; ++iter) {
    prof::TraceSpan iter_span("iteration", static_cast<std::int64_t>(iter));
    shell.begin_step("iteration", iter - 1, out.report.fallbacks);
    bool stop = false;
    RaIterationRecord rec;
    rec.index = iter;
    rec.sweep_ranks = ranks;

    x.grid().world().barrier();
    Stopwatch sweep_clock;
    dist::DistTensor<T> core =
        hooi_sweep(x, factors, ranks, options.hooi, iter, out.report);
    const double core_norm_sq = core.norm_squared();
    x.grid().world().barrier();
    rec.seconds = sweep_clock.elapsed();

    rec.rel_error =
        std::sqrt(std::max(0.0, out.x_norm_sq - core_norm_sq) /
                  out.x_norm_sq);
    rec.satisfied = core_norm_sq >= target_sq;

    if (rec.satisfied) {
      // Gather the core (allgather cost r^d, §3.2) and run the eq. (3)
      // analysis replicated on every rank.
      Stopwatch analysis_clock;
      tensor::Tensor<T> full_core;
      CoreAnalysis analysis;
      {
        prof::TraceSpan t("core_analysis", Phase::core_analysis);
        full_core = core.allgather_full();
        analysis = analyze_core(full_core, x.global_dims(), target_sq);
      }
      rec.core_analysis_seconds = analysis_clock.elapsed();
      RAHOOI_DEBUG_ASSERT(analysis.feasible);

      tensor::TuckerTensor<T> candidate;
      candidate.core = std::move(full_core);
      candidate.factors = factors;
      candidate.truncate(analysis.ranks);

      rec.ranks_after = analysis.ranks;
      rec.compressed_size = analysis.compressed_size;
      rec.rel_error_after = std::sqrt(
          std::max(0.0, out.x_norm_sq - analysis.kept_norm_sq) /
          out.x_norm_sq);

      if (!out.satisfied || rec.compressed_size < out.compressed_size) {
        out.satisfied = true;
        out.compressed_size = rec.compressed_size;
        out.rel_error = rec.rel_error_after;
        out.tucker = std::move(candidate);
      }

      // Alg. 3 line 7: continue iterating from the truncated decomposition.
      ranks = analysis.ranks;
      for (int j = 0; j < d; ++j) {
        factors[j] = factors[j].leading_block(factors[j].rows(), ranks[j]);
      }
      stop = !options.continue_after_satisfied;
    } else {
      if (!out.satisfied && iter == options.max_iters) {
        // Tolerance never met within the iteration cap: the best effort is
        // this sweep's decomposition, untruncated, taken before the growth
        // below changes the factors.
        out.tucker.core = core.allgather_full();
        out.tucker.factors = factors;
      }
      std::vector<idx_t> next(d);
      if (options.strategy == AdaptStrategy::modewise) {
        // Mode-wise expansion/contraction driven by the core's per-mode
        // slice spectra (Xiao & Yang-style, §2.3).
        prof::TraceSpan t("modewise_analysis", Phase::core_analysis);
        const tensor::Tensor<T> full_core = core.allgather_full();
        const double per_mode_budget_sq =
            options.tolerance * options.tolerance * out.x_norm_sq / d;
        next = modewise_new_ranks(slice_energies(full_core),
                                  x.global_dims(), core_norm_sq,
                                  per_mode_budget_sq, options.growth_factor);
      } else {
        // Alg. 3 line 9: grow all ranks by alpha (clamped to the dims).
        for (int j = 0; j < d; ++j) {
          const auto target = static_cast<idx_t>(std::ceil(
              options.growth_factor * static_cast<double>(ranks[j])));
          next[j] =
              std::min(x.global_dim(j), std::max(target, ranks[j] + 1));
        }
      }
      {
        prof::TraceSpan grow_span("grow_factors");
        for (int j = 0; j < d; ++j) {
          if (next[j] > ranks[j]) {
            factors[j] = grow_factor(factors[j], next[j],
                                     options.hooi.seed + 7919 * iter + j);
          } else if (next[j] < ranks[j]) {
            // Column pivoting / eigen-ordering concentrates energy in the
            // leading columns, so contraction keeps the leading block.
            factors[j] = factors[j].leading_block(factors[j].rows(), next[j]);
          }
        }
      }
      ranks = next;
      rec.ranks_after = ranks;
      rec.rel_error_after = rec.rel_error;
      // Size of the (unsatisfied) sweep iterate, for the progression plots.
      idx_t sz = 1;
      for (int j = 0; j < d; ++j) sz *= rec.sweep_ranks[j];
      for (int j = 0; j < d; ++j) {
        sz += x.global_dim(j) * rec.sweep_ranks[j];
      }
      rec.compressed_size = sz;
    }

    // The iteration's telemetry event, a superset of `rec`: the fig4/6/8
    // progression benches read their trajectories from the log.
    metrics::Event ev;
    ev.kind = "iteration";
    ev.sweep = rec.index;
    ev.ranks.assign(rec.sweep_ranks.begin(), rec.sweep_ranks.end());
    ev.ranks_after.assign(rec.ranks_after.begin(), rec.ranks_after.end());
    ev.rel_error = rec.rel_error;
    ev.rel_error_after = rec.rel_error_after;
    ev.seconds = rec.seconds;
    ev.core_analysis_seconds = rec.core_analysis_seconds;
    ev.compressed_size = rec.compressed_size;
    ev.satisfied = rec.satisfied;
    shell.emit(std::move(ev), out.report.fallbacks);
    out.iterations.push_back(std::move(rec));

    if (!options.hooi.checkpoint_path.empty() &&
        x.grid().world().rank() == 0) {
      // Factors, ranks, and the best-so-far decomposition are replicated,
      // so rank 0's copy is the world's state.
      SweepCheckpoint<T> ck;
      ck.kind = CheckpointKind::rank_adaptive;
      ck.sweeps_done = iter;
      ck.seed = options.hooi.seed;
      ck.ranks = ranks;
      ck.factors = factors;
      for (const auto& it : out.iterations) {
        ck.error_history.push_back(it.rel_error);
      }
      ck.ra_satisfied = out.satisfied;
      ck.ra_last_rel_error = out.iterations.back().rel_error;
      ck.ra_last_size =
          static_cast<std::int64_t>(out.iterations.back().compressed_size);
      if (out.satisfied) {
        ck.ra_best_rel_error = out.rel_error;
        ck.ra_best_size = static_cast<std::int64_t>(out.compressed_size);
        ck.best = out.tucker;
      }
      save_checkpoint(options.hooi.checkpoint_path, ck);
    }
    if (stop) break;
  }

  if (!out.satisfied) {
    // The last sweep's numbers describe the best effort gathered above.
    const RaIterationRecord& last = out.iterations.back();
    out.compressed_size = last.compressed_size;
    out.rel_error = last.rel_error;
  }
  shell.finish(out.report);
  return out;
}

#define RAHOOI_INSTANTIATE_RA(T)                                           \
  template la::Matrix<T> grow_factor<T>(const la::Matrix<T>&, idx_t,      \
                                        std::uint64_t);                    \
  template RankAdaptiveResult<T> rank_adaptive_hooi<T>(                    \
      const dist::DistTensor<T>&, const std::vector<idx_t>&,              \
      const RankAdaptiveOptions&);

RAHOOI_INSTANTIATE_RA(float)
RAHOOI_INSTANTIATE_RA(double)

#undef RAHOOI_INSTANTIATE_RA

}  // namespace rahooi::core
