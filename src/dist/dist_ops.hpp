#pragma once
// Parallel kernels on distributed tensors — the TuckerMPI-equivalent layer
// the paper's algorithms are built from:
//
//  * dist_ttm            — truncating TTM: local GEMM, then a reduce-scatter
//                          of the local partial, read in place, along the
//                          mode's grid dimension (§2.1/§2.2 TTM kernel),
//  * redistribute_mode   — all-to-all redistribution of a distributed
//                          mode's unfolding into 1D column layout (the Gram
//                          redistribution of §2.1 and the contraction
//                          redistribution of §3.4),
//  * dist_mode_gram      — parallel Gram + world allreduce (LLSV input),
//  * dist_contract_all_but_one — the new parallel kernel the paper adds for
//                          subspace iteration: Z = Y_(j) G_(j)^T (Alg. 5,
//                          line 3), returned replicated on every rank.
//
// Factor matrices are replicated on all ranks (TuckerMPI's convention), so
// they appear here as plain la::Matrix values.

#include "dist/dist_tensor.hpp"
#include "la/blas.hpp"

namespace rahooi::dist {

/// Y = X x_mode U^T where U is the replicated (global_dim(mode) x r) factor.
/// The result is distributed on the same grid; its mode extent r is block-
/// distributed over the mode's grid dimension via reduce-scatter.
template <typename T>
DistTensor<T> dist_ttm(const DistTensor<T>& x, int mode,
                       la::ConstMatrixRef<T> u);

/// Redistributes the mode-j unfolding into 1D column layout: the returned
/// matrix has all global_dim(mode) rows and a contiguous chunk (1/P_j) of
/// this rank's share of the unfolding columns (mode-j fibers). Columns held
/// by distinct ranks partition the global unfolding. Implemented with an
/// all-to-all along the mode's grid dimension, as in TuckerMPI. Requires
/// P_j > 1: at P_j = 1 the local block already holds whole fibers, and the
/// kernels below read it in place.
template <typename T>
la::Matrix<T> redistribute_mode(const DistTensor<T>& x, int mode);

/// Replicated Gram matrix of the mode-j unfolding: G = X_(j) X_(j)^T of
/// shape (global_dim(mode))^2. Local SYRK (tensor::mode_gram on the local
/// block at P_j = 1, on the redistributed columns otherwise), then a world
/// allreduce.
template <typename T>
la::Matrix<T> dist_mode_gram(const DistTensor<T>& x, int mode);

/// Replicated contraction in all modes but `mode` between tensors with
/// identical non-mode global dims and distribution:
/// Z = Y_(mode) G_(mode)^T, shape (y.global_dim(mode) x g.global_dim(mode)).
/// Local GEMM (tensor::contract_all_but_one on the local blocks at P_j = 1,
/// on the redistributed columns otherwise), then a world allreduce.
template <typename T>
la::Matrix<T> dist_contract_all_but_one(const DistTensor<T>& y,
                                        const DistTensor<T>& g, int mode);

/// TSQR-style R factor of the *transposed* mode-j unfolding: returns an
/// upper-triangular R (n x n, replicated) with R^T R = X_(j) X_(j)^T,
/// computed without ever forming the Gram matrix — each rank QRs its
/// column block (its local fibers at P_j = 1, redistributed otherwise) and
/// the small R factors are combined with one allgather + a final local QR. This is the communication pattern of the
/// numerically stable QR-SVD LLSV of Li, Fang & Ballard (ICPP '21), which
/// the paper cites as TuckerMPI's stable STHOSVD variant (§2.3).
template <typename T>
la::Matrix<T> dist_mode_tsqr_r(const DistTensor<T>& x, int mode);

}  // namespace rahooi::dist
