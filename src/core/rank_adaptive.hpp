#pragma once
// RA-HOSI-DT (paper Alg. 3): rank-adaptive HOOI solving the error-specified
// Tucker approximation problem. Each iteration runs one HOOI sweep (by
// default the dimension-tree + subspace-iteration variant, HOSI-DT); if the
// approximation meets the error threshold, the core is gathered and the
// eq. (3) core analysis truncates the ranks to minimize storage; otherwise
// all ranks grow by the factor alpha and iteration continues.

#include "core/core_analysis.hpp"
#include "core/hooi.hpp"
#include "tensor/tucker_tensor.hpp"

namespace rahooi::core {

/// Telemetry for one RA iteration — the data behind the paper's
/// progression plots (Figs. 4, 6, 8) and breakdowns (Figs. 5, 7, 9).
struct RaIterationRecord {
  int index = 0;                    ///< 1-based iteration number
  std::vector<idx_t> sweep_ranks;   ///< ranks used by this sweep
  double seconds = 0.0;             ///< wall time of the sweep
  double core_analysis_seconds = 0.0;
  double rel_error = 0.0;           ///< error of the (untruncated) sweep
  bool satisfied = false;           ///< error <= eps after this sweep
  std::vector<idx_t> ranks_after;   ///< ranks after truncation or growth
  idx_t compressed_size = 0;        ///< eq. (2) objective after this iter
  double rel_error_after = 0.0;     ///< error after truncation (== rel_error
                                    ///< when not truncated)
};

template <typename T>
struct RankAdaptiveResult {
  /// Final decomposition (smallest satisfied iterate; last iterate when the
  /// tolerance was never met). Core replicated — it is small by
  /// construction.
  tensor::TuckerTensor<T> tucker;
  std::vector<RaIterationRecord> iterations;
  double x_norm_sq = 0.0;
  bool satisfied = false;     ///< any iteration met the tolerance
  double rel_error = 0.0;     ///< error of `tucker`
  idx_t compressed_size = 0;

  double relative_size() const {
    idx_t full = 1;
    for (const auto& u : tucker.factors) full *= u.rows();
    return static_cast<double>(compressed_size) / static_cast<double>(full);
  }

  /// Degradation events (numerical fallbacks taken mid-solve); empty for a
  /// clean solve. See core/solve_report.hpp.
  SolveReport report;
};

template <typename T>
RankAdaptiveResult<T> rank_adaptive_hooi(const dist::DistTensor<T>& x,
                                         const std::vector<idx_t>& initial_ranks,
                                         const RankAdaptiveOptions& options);

/// Grows a replicated orthonormal factor from r to new_rank columns: the
/// original columns are preserved and the extension is a random orthonormal
/// complement (deterministic across ranks). Exposed for tests.
template <typename T>
la::Matrix<T> grow_factor(const la::Matrix<T>& u, idx_t new_rank,
                          std::uint64_t seed);

}  // namespace rahooi::core
