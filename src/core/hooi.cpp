#include "core/hooi.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "core/dimension_tree.hpp"
#include "core/solver_shell.hpp"
#include "dist/dist_ops.hpp"
#include "la/qr.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

template <typename T>
std::vector<la::Matrix<T>> random_factors(const std::vector<idx_t>& dims,
                                          const std::vector<idx_t>& ranks,
                                          std::uint64_t seed) {
  RAHOOI_REQUIRE(dims.size() == ranks.size(),
                 "random_factors: dims/ranks size mismatch");
  CounterRng rng(seed);
  std::vector<la::Matrix<T>> factors;
  factors.reserve(dims.size());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    RAHOOI_REQUIRE(ranks[j] >= 1 && ranks[j] <= dims[j],
                   "random_factors: ranks must be in [1, n_j]");
    const CounterRng stream = rng.stream(j);
    la::Matrix<T> u(dims[j], ranks[j]);
    for (idx_t i = 0; i < u.size(); ++i) {
      u.data()[i] = static_cast<T>(stream.normal(i));
    }
    factors.push_back(la::orthonormalize<T>(u.cref()));
  }
  return factors;
}

namespace {

// Counts one fallback decision in both ledgers — the SolveReport and the
// metrics counter — at the same site, so SolveReport::fallbacks and
// Counter::solver_fallbacks agree exactly over a solve.
void count_fallback(SolveReport& report) {
  ++report.fallbacks;
  if (metrics::Registry* reg = metrics::registry()) {
    reg->count(metrics::Counter::solver_fallbacks);
  }
}

// Updates factors[mode] from `y`, the all-but-one multi-TTM result.
// Numerical hazards degrade gracefully instead of throwing: the primary
// method's failure (numerical_error or a non-finite update) falls back to
// Gram+EVD, whose failure falls back to keeping the previous factor; each
// step is recorded in `report`. Collective consistency: every fallback
// decision is a deterministic function of *replicated* data (the EVD/QRCP
// run on replicated matrices, and factor updates are replicated), so all
// ranks take identical branches and the collective schedule stays matched.
template <typename T>
void leaf_update(const dist::DistTensor<T>& y, int mode,
                 std::vector<la::Matrix<T>>& factors,
                 const std::vector<idx_t>& ranks, const HooiOptions& options,
                 int sweep_index, SolveReport& report) {
  la::Matrix<T> updated;
  bool ok = false;
  try {
    // Fresh counter-based draws per (sweep, mode) for the randomized and
    // sketched methods: sweeps are independent, yet identical on every
    // rank and grid.
    const std::uint64_t salt = options.svd_method == SvdMethod::randomized
                                   ? 0x5EED0000ull
                                   : 0x5EED5CEBull;
    const CounterRng rng =
        CounterRng(options.seed).stream(salt + sweep_index).stream(mode);
    updated = llsv(y, mode, ranks[mode], 0.0, options.svd_method,
                   &factors[mode], options.sketch, rng)
                  .u;
    ok = la::all_finite(updated);
    if (!ok) {
      report.record(sweep_index, mode, "nonfinite_update",
                    variant_name(options) + " produced a non-finite factor");
    }
  } catch (const numerical_error& e) {
    report.record(sweep_index, mode, "primary_failed", e.what());
  }

  if (!ok && options.svd_method != SvdMethod::gram_evd) {
    // Second chance: Gram+EVD tolerates a wider range of inputs than the
    // QRCP subspace path (it never divides by a pivot).
    count_fallback(report);
    try {
      updated = llsv(y, mode, ranks[mode], 0.0, SvdMethod::gram_evd).u;
      ok = la::all_finite(updated);
      report.record(sweep_index, mode, "fallback_gram_evd",
                    ok ? "recovered via Gram+EVD"
                       : "Gram+EVD also produced non-finite values");
    } catch (const numerical_error& e) {
      report.record(sweep_index, mode, "fallback_gram_evd_failed", e.what());
    }
  }

  if (ok) {
    factors[mode] = std::move(updated);
    return;
  }
  // Last resort: keep the previous factor (clamped to the requested rank).
  // It is orthonormal and finite, so the sweep stays well-posed; accuracy
  // for this mode simply does not improve this sweep.
  count_fallback(report);
  const idx_t keep = std::min<idx_t>(factors[mode].cols(), ranks[mode]);
  factors[mode] = factors[mode].leading_block(factors[mode].rows(), keep);
  report.record(sweep_index, mode, "kept_previous_factor",
                "all update paths failed; factor unchanged this sweep");
}

// Walks one sweep's TTM schedule (core/dimension_tree.hpp) below `index`.
// `y` is the tensor at that node: X with every mode outside the node's
// `modes` multiplied in. Each edge's chain is built just before its child
// is visited and freed before the next child; each leaf calls `leaf(y, m)`
// with the all-but-mode-m multi-TTM, in ascending mode order.
template <typename T, typename Leaf>
void walk(const DimensionTree& tree, int index, const dist::DistTensor<T>& y,
          const std::vector<la::Matrix<T>>& factors, const Leaf& leaf) {
  const DimensionTreeNode& node = tree.nodes[index];
  if (node.is_leaf()) return leaf(y, node.modes[0]);
  for (const int child : node.children) {
    dist::DistTensor<T> chain;
    {
      prof::TraceSpan t("tree_ttm", Phase::ttm);
      // Chain nodes *are* the sweep's memo cache: charge their local blocks
      // to dt_memo so the memo footprint is a gauge of its own (the leaves'
      // LLSV allocations stay under dist_tensor).
      const metrics::MemScopeGuard memo_scope(metrics::MemScope::dt_memo);
      const dist::DistTensor<T>* src = &y;
      for (const int i : tree.nodes[child].ttm_modes) {
        chain = dist::dist_ttm(*src, i, factors[i].cref());
        src = &chain;
      }
    }
    walk(tree, child, chain, factors, leaf);
  }
}

}  // namespace

template <typename T>
dist::DistTensor<T> hooi_sweep(const dist::DistTensor<T>& x,
                               std::vector<la::Matrix<T>>& factors,
                               const std::vector<idx_t>& ranks,
                               const HooiOptions& options, int sweep_index,
                               SolveReport& report) {
  const int d = x.ndims();
  RAHOOI_REQUIRE(static_cast<int>(factors.size()) == d,
                 "hooi_sweep: one factor per mode required");
  RAHOOI_REQUIRE(static_cast<int>(ranks.size()) == d,
                 "hooi_sweep: one rank per mode required");
  prof::TraceSpan span("sweep", static_cast<std::int64_t>(sweep_index));
  const DimensionTree tree = options.use_dimension_tree
                                 ? build_dimension_tree(d)
                                 : build_direct_tree(d);
  // The core falls out of the last leaf (mode d-1).
  dist::DistTensor<T> core;
  walk(tree, 0, x, factors, [&](const dist::DistTensor<T>& y, int m) {
    prof::TraceSpan mode_span("mode", static_cast<std::int64_t>(m));
    leaf_update(y, m, factors, ranks, options, sweep_index, report);
    if (m == d - 1) {
      prof::TraceSpan t("core_ttm", Phase::ttm);
      core = dist::dist_ttm(y, m, factors[m].cref());
    }
  });
  return core;
}

template <typename T>
HooiResult<T> hooi(const dist::DistTensor<T>& x,
                   const std::vector<idx_t>& ranks,
                   const HooiOptions& options) {
  validate(options);
  detail::SolverShell shell(x.grid().world(), "hooi", options.yield_flag);
  HooiResult<T> out;
  // Root span tagged Phase::other: every second of the run lands in some
  // phase bucket, so the per-phase breakdown sums to this span's wall time.
  prof::TraceSpan root("hooi", Phase::other);
  out.decomposition.x_norm_sq = x.norm_squared();

  int start = 0;
  double prev_error = 1.0;
  if (!options.restore_path.empty()) {
    SweepCheckpoint<T> ck = detail::load_resume_checkpoint(
        options.restore_path, CheckpointKind::hooi, options.seed, x,
        options.max_iters);
    RAHOOI_REQUIRE(ck.ranks == ranks,
                   "restore: checkpoint ranks differ from requested ranks");
    out.decomposition.factors = std::move(ck.factors);
    out.error_history = std::move(ck.error_history);
    start = static_cast<int>(ck.sweeps_done);
    out.iterations = start;
    if (!out.error_history.empty()) prev_error = out.error_history.back();
  } else {
    out.decomposition.factors =
        random_factors<T>(x.global_dims(), ranks, options.seed);
  }

  for (int iter = start; iter < options.max_iters; ++iter) {
    shell.begin_step("sweep", iter, out.report.fallbacks);
    out.decomposition.core = hooi_sweep(x, out.decomposition.factors, ranks,
                                        options, iter, out.report);
    out.decomposition.core_norm_sq = out.decomposition.core.norm_squared();
    ++out.iterations;
    const double err = out.decomposition.relative_error();
    out.error_history.push_back(err);

    if (!options.checkpoint_path.empty() &&
        x.grid().world().rank() == 0) {
      // Factors are replicated, so rank 0's copy is the world's state.
      SweepCheckpoint<T> ck;
      ck.sweeps_done = iter + 1;
      ck.seed = options.seed;
      ck.ranks = ranks;
      ck.factors = out.decomposition.factors;
      ck.error_history = out.error_history;
      save_checkpoint(options.checkpoint_path, ck);
    }

    metrics::Event ev;
    ev.kind = "sweep";
    ev.sweep = iter + 1;
    ev.ranks.assign(ranks.begin(), ranks.end());
    ev.rel_error = err;
    ev.seconds = shell.step_seconds();
    ev.compressed_size = out.decomposition.compressed_size();
    ev.detail = variant_name(options);
    shell.emit(std::move(ev), out.report.fallbacks);

    if (options.convergence_tol > 0.0 &&
        prev_error - err < options.convergence_tol) {
      break;
    }
    prev_error = err;
  }
  shell.finish(out.report);
  return out;
}

#define RAHOOI_INSTANTIATE_HOOI(T)                                        \
  template std::vector<la::Matrix<T>> random_factors<T>(                  \
      const std::vector<idx_t>&, const std::vector<idx_t>&,               \
      std::uint64_t);                                                     \
  template dist::DistTensor<T> hooi_sweep<T>(                             \
      const dist::DistTensor<T>&, std::vector<la::Matrix<T>>&,            \
      const std::vector<idx_t>&, const HooiOptions&, int, SolveReport&);  \
  template HooiResult<T> hooi<T>(const dist::DistTensor<T>&,              \
                                 const std::vector<idx_t>&,               \
                                 const HooiOptions&);

RAHOOI_INSTANTIATE_HOOI(float)
RAHOOI_INSTANTIATE_HOOI(double)

#undef RAHOOI_INSTANTIATE_HOOI

}  // namespace rahooi::core
