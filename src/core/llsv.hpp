#pragma once
// Leading-left-singular-vector (LLSV) computations. One entry, llsv(),
// turns a core::SvdMethod into a kernel call; every solver (HOOI sweeps,
// ST-HOSVD, the rank-adaptive warm start) goes through it. The backends:
//
//  * Gram + EVD (paper §2.1): eigenvectors of the replicated Gram matrix.
//    The EVD is sequential (replicated on all ranks), reproducing
//    TuckerMPI's O(n^3) bottleneck; it computes every eigenvalue, picks
//    the rank, then forms only that many eigenvectors.
//  * QR-SVD (Li, Fang & Ballard, cited in §2.3): a distributed TSQR of the
//    transposed unfolding followed by a small sequential SVD of the
//    triangular factor. Avoids squaring the condition number (the Gram
//    path loses half the working digits), at roughly twice the Gram flops.
//  * Subspace iteration (paper §3.4, Alg. 5): one step of subspace
//    iteration initialized from the previous HOOI iterate, orthonormalized
//    with QR-with-column-pivoting; `randomized` runs the same step from a
//    fresh random subspace instead. Rank-specified only.
//  * Sketched range finder (HMT; Minster, Li & Ballard): one distributed
//    sketch apply Y = X_(j) Omega (dist/sketch.hpp) followed by the small
//    sequential QRCP + Jacobi-SVD pair. Supports rank-specified truncation
//    (width r + oversample) and error-specified truncation via adaptive
//    width growth until the estimated tail energy clears the threshold.

#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/options.hpp"
#include "dist/dist_tensor.hpp"
#include "la/matrix.hpp"

namespace rahooi::core {

using la::idx_t;

template <typename T>
struct LlsvResult {
  la::Matrix<T> u;  ///< leading left singular vectors (n x rank)
  /// All n (estimated) squared singular values, descending; empty for the
  /// subspace-iteration backends, which never see the spectrum.
  std::vector<double> eigenvalues;
  idx_t rank = 0;
};

/// Smallest rank r such that the trailing eigenvalue sum of `eigenvalues`
/// is at most tau_sq (eigenvalues descending; negative roundoff clamped).
/// Always returns at least 1.
idx_t rank_for_threshold(const std::vector<double>& eigenvalues,
                         double tau_sq);

/// LLSV of mode `mode` of `y` by `method`. `rank` > 0 truncates to that
/// rank; `rank` = 0 picks the smallest rank whose discarded energy is at
/// most `tau_sq` (STHOSVD's per-mode threshold eps^2 ||X||^2 / d).
///
///  * gram_evd, qr_svd: exact spectrum; `eigenvalues` are the squared
///    singular values, so thresholding is interchangeable between them.
///  * subspace_iteration: one step of Alg. 5 from `warm` (n x rank,
///    orthonormal): G = X x_mode U^T (a TTM), Z = X_(mode) G_(mode)^T, then
///    QRCP. Column pivoting orders the basis by captured energy for the
///    rank-adaptive core analysis (§3.2).
///  * randomized: the same step from an orthonormalized Gaussian start
///    drawn from `rng`.
///  * gaussian_sketch, krp_sketch: Y = X_(mode) Omega, then
///    QRCP(Y) -> SVD(R) -> U = Q U_R. `eigenvalues` hold the *estimated*
///    squared singular values sigma_i(Y)^2 / s (E[Y Y^T] = s X X^T for a
///    width-s Gaussian sketch), zero-padded to n. At `rank` > 0 the width
///    is rank + sketch.oversample. At `rank` = 0 the width starts at
///    sketch.min_cols and grows by sketch.growth (metrics
///    Counter::sketch_regrowths per round, fresh Omega from
///    rng.stream(attempt)) until the estimated tail energy clears
///    sketch.safety * tau_sq with `oversample` columns to spare; a width
///    that would reach n — where the sketch apply costs as much as the
///    Gram matrix — falls back to the exact Gram+EVD decision at the full
///    tau_sq.
///
/// A method whose inputs are missing throws precondition_error:
/// subspace_iteration without a `warm` factor of `rank` columns, and
/// randomized or subspace_iteration at `rank` = 0.
template <typename T>
LlsvResult<T> llsv(const dist::DistTensor<T>& y, int mode, idx_t rank,
                   double tau_sq, SvdMethod method,
                   const std::type_identity_t<la::Matrix<T>>* warm = nullptr,
                   const SketchOptions& sketch = {},
                   const CounterRng& rng = CounterRng(1));

}  // namespace rahooi::core
