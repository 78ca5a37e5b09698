#pragma once
// Symmetric eigendecomposition (substitute for LAPACK SYEV).
//
// This is the sequential EVD that TuckerMPI applies to the Gram matrix of a
// tensor unfolding (paper §2.1). It is deliberately *not* parallelized —
// reproducing TuckerMPI's O(d n^3) sequential bottleneck is one of the
// scaling effects the paper measures (Fig. 2, 3-way case).
//
// One path serves every caller. It computes all n eigenvalues but forms
// only the eigenvectors the caller keeps:
//  1. Householder tridiagonalization, column by column (contiguous
//     SYMV/SYR2 updates of the lower triangle). The reflectors are kept,
//     not accumulated into Q: (4/3) n^3 flops.
//  2. Implicit-shift QL on the tridiagonal, oriented so its larger end is
//     at the bottom (QL's preferred grading). It forms no vectors; it logs
//     each rotation, one double each, in the free upper triangle of the
//     work matrix. Deflation is norm-relative, |e_m| <= u ||T||, so the
//     tiny eigenvalues of a strongly graded Gram matrix deflate too.
//  3. The caller's `keep` picks k from the eigenvalues. The log is replayed
//     backwards on the k unit vectors of the kept eigenvalues (6k flops per
//     rotation instead of 6n), and the k columns are back-transformed
//     through the reflectors (2 n^2 k flops).
//
// Everything runs in double precision regardless of the element type; the
// Gram matrix of a single-precision unfolding can be too ill-conditioned
// for a float-precision QL iteration.

#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace rahooi::la {

template <typename T>
struct EvdResult {
  /// All n eigenvalues in descending order (tiny negative values from
  /// roundoff are kept; the Gram callers clamp them).
  std::vector<double> eigenvalues;
  /// n x k orthonormal eigenvectors, column i pairing with eigenvalues[i],
  /// for the k leading eigenvalues the caller kept. Sign rule: in every
  /// column the entry of largest magnitude is positive (the lowest row index
  /// wins a tie), so the output does not depend on the iteration's path.
  Matrix<T> vectors;
};

/// Picks how many leading eigenvectors to form, in [0, n], from the
/// descending eigenvalues. Empty: all n.
using EvdKeep = std::function<idx_t(const std::vector<double>& eigenvalues)>;

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// read). Forms the eigenvectors of the `keep(eigenvalues)` largest
/// eigenvalues; by default all n. Throws numerical_error on a non-finite
/// entry or if the QL iteration fails to converge.
template <typename T>
EvdResult<T> sym_evd(ConstMatrixRef<T> a, const EvdKeep& keep = {});

/// The flops sym_evd executes (and charges to stats) on an n x n matrix
/// when it forms `vectors` eigenvectors: the reduction (4/3) n^3, the QL
/// iteration and, per vector, the replay and the back-transform (2 n^2).
/// The QL terms assume 0.8 n^2 rotations, the count measured on the mode
/// Gram matrices of miranda_like 256^3. The cost model (model::predict,
/// model::pick_llsv_backend) and model::calibrate use the same function.
double sym_evd_flops(double n, double vectors);

}  // namespace rahooi::la
