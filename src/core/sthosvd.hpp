#pragma once
// Sequentially Truncated Higher-Order SVD (paper Alg. 1) on a distributed
// tensor — the TuckerMPI baseline every HOOI variant is compared against.

#include <vector>

#include "core/llsv.hpp"
#include "dist/dist_tensor.hpp"
#include "tensor/tucker_tensor.hpp"

namespace rahooi::core {

/// Result of a distributed Tucker decomposition. Factors are replicated;
/// the core remains distributed on the input's grid (gather with
/// `replicated()` when a local TuckerTensor is wanted — cheap, the core is
/// small).
template <typename T>
struct TuckerResult {
  std::vector<la::Matrix<T>> factors;  ///< factors[j]: n_j x r_j, replicated
  dist::DistTensor<T> core;
  double x_norm_sq = 0.0;     ///< ||X||^2 of the input
  double core_norm_sq = 0.0;  ///< ||G||^2

  std::vector<idx_t> ranks() const {
    return core.global_dims();
  }

  /// ||X - Xhat|| / ||X|| via the core-norm identity
  /// ||X - Xhat||^2 = ||X||^2 - ||G||^2 (orthonormal factors, §3.2).
  double relative_error() const;

  /// prod r_j + sum n_j r_j, the eq. (2) objective.
  idx_t compressed_size() const;

  double compression_ratio() const;

  /// Gathers the core onto this rank and returns a local TuckerTensor.
  tensor::TuckerTensor<T> replicated() const;
};

/// Error-specified STHOSVD: per-mode threshold eps^2 ||X||^2 / d (§2.1).
/// `method` is the per-mode LLSV (core/llsv.hpp): TuckerMPI's Gram +
/// sequential EVD, the numerically stable TSQR + small SVD of Li, Fang &
/// Ballard (§2.3), or a sketched range finder — the randomized ST-HOSVD
/// that also serves as the rank-adaptive solver's warm start. The
/// subspace-iteration methods need a target rank and throw
/// precondition_error here. `sketch`/`seed` configure the sketched methods
/// (adaptive width growth until the per-mode tail estimate clears the
/// threshold) and are ignored by the deterministic ones.
template <typename T>
TuckerResult<T> sthosvd(const dist::DistTensor<T>& x, double eps,
                        SvdMethod method = SvdMethod::gram_evd,
                        const SketchOptions& sketch = {},
                        std::uint64_t seed = 1);

/// Rank-specified STHOSVD: truncate mode j to ranks[j].
template <typename T>
TuckerResult<T> sthosvd_fixed_rank(const dist::DistTensor<T>& x,
                                   const std::vector<idx_t>& ranks,
                                   SvdMethod method = SvdMethod::gram_evd,
                                   const SketchOptions& sketch = {},
                                   std::uint64_t seed = 1);

}  // namespace rahooi::core
