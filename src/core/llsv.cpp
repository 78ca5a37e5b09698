#include "core/llsv.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"
#include "core/options.hpp"
#include "dist/dist_ops.hpp"
#include "dist/sketch.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

std::string variant_name(const HooiOptions& o) {
  switch (o.svd_method) {
    case SvdMethod::subspace_iteration:
      return o.use_dimension_tree ? "HOSI-DT" : "HOSI";
    case SvdMethod::randomized:
      return o.use_dimension_tree ? "HOOI-RRF-DT" : "HOOI-RRF";
    case SvdMethod::gaussian_sketch:
      return o.use_dimension_tree ? "HOSK-DT" : "HOSK";
    case SvdMethod::krp_sketch:
      return o.use_dimension_tree ? "HOSK-KRP-DT" : "HOSK-KRP";
    case SvdMethod::qr_svd:
      return o.use_dimension_tree ? "HOOI-QR-DT" : "HOOI-QR";
    case SvdMethod::gram_evd:
      break;
  }
  return o.use_dimension_tree ? "HOOI-DT" : "HOOI";
}

idx_t rank_for_threshold(const std::vector<double>& eigenvalues,
                         double tau_sq) {
  const idx_t n = static_cast<idx_t>(eigenvalues.size());
  // Trailing sums computed back-to-front; clamp roundoff negatives.
  double trailing = 0.0;
  idx_t rank = n;
  for (idx_t i = n - 1; i >= 1; --i) {
    trailing += std::max(0.0, eigenvalues[i]);
    if (trailing > tau_sq) break;
    rank = i;
  }
  return std::max<idx_t>(rank, 1);
}

namespace {

/// Gram + EVD: rank > 0 is fixed, rank = 0 thresholds at tau_sq.
template <typename T>
LlsvResult<T> llsv_gram(const dist::DistTensor<T>& x, int mode, idx_t rank,
                        double tau_sq) {
  prof::TraceSpan span("llsv");
  la::Matrix<T> gram;
  {
    prof::TraceSpan t("gram", Phase::gram);
    gram = dist::dist_mode_gram(x, mode);
  }
  // The EVD forms only the kept vectors: the rank is picked from the
  // eigenvalues before any vector exists.
  la::EvdResult<T> evd;
  {
    prof::TraceSpan t("evd", Phase::evd);
    evd = la::sym_evd<T>(gram.cref(), [&](const std::vector<double>& ev) {
      return rank > 0 ? rank : rank_for_threshold(ev, tau_sq);
    });
  }
  LlsvResult<T> out;
  out.rank = evd.vectors.cols();
  out.u = std::move(evd.vectors);
  out.eigenvalues = std::move(evd.eigenvalues);
  return out;
}

/// TSQR + small SVD; `eigenvalues` hold the squared singular values.
template <typename T>
LlsvResult<T> llsv_qr_svd(const dist::DistTensor<T>& x, int mode, idx_t rank,
                          double tau_sq) {
  prof::TraceSpan span("llsv");
  la::Matrix<T> r_factor;
  {
    // Attributed to the Gram phase: it plays the same role in the
    // breakdown (the parallel reduction of the unfolding).
    prof::TraceSpan t("tsqr_r", Phase::gram);
    r_factor = dist::dist_mode_tsqr_r(x, mode);
  }
  const idx_t n = x.global_dim(mode);
  LlsvResult<T> out;
  {
    // Small sequential factorization replacing the EVD in the breakdown.
    prof::TraceSpan t("r_svd", Phase::evd);
    // R is exactly upper triangular (zeros below the diagonal), so a full
    // transpose yields the lower-triangular L = R^T directly.
    la::Matrix<T> l(n, n);
    la::transpose(r_factor.cref(), l.ref());
    la::SvdResult<T> svd = la::svd_jacobi<T>(l.cref());
    out.eigenvalues.resize(n);
    for (idx_t i = 0; i < n; ++i) {
      out.eigenvalues[i] = svd.singular[i] * svd.singular[i];
    }
    out.rank = rank > 0 ? rank : rank_for_threshold(out.eigenvalues, tau_sq);
    out.u = svd.u.leading_block(n, out.rank);
  }
  return out;
}

/// One step of Alg. 5 from the orthonormal `u_prev` (n x r); the paper
/// uses one step (§3.4), the warm start making it sufficient.
template <typename T>
la::Matrix<T> llsv_subspace_iteration(const dist::DistTensor<T>& x, int mode,
                                      const la::Matrix<T>& u_prev) {
  prof::TraceSpan span("llsv");
  // Alg. 5 line 2: G = U^T A is the TTM X x_mode U^T — the current core
  // estimate (distributed). Attributed to the contraction phase: the
  // paper's subspace-iteration cost 4 d n r^d / P covers this TTM and the
  // line-3 contraction together, and the Fig. 3 breakdown separates LLSV
  // work from the sweep's multi-TTMs.
  dist::DistTensor<T> g;
  {
    prof::TraceSpan t("si_ttm", Phase::contraction);
    g = dist::dist_ttm(x, mode, u_prev.cref());
  }
  // Alg. 5 line 3: Z = A G^T, the all-but-one contraction; replicated.
  la::Matrix<T> z;
  {
    prof::TraceSpan t("si_contract", Phase::contraction);
    z = dist::dist_contract_all_but_one(x, g, mode);
  }
  // Alg. 5 line 4: QRCP, replicated (sequential QR in the paper's cost
  // model). Each rank computes the identical factorization.
  prof::TraceSpan t("qrcp", Phase::qr);
  return la::qrcp<T>(z.cref(), u_prev.cols()).q;
}

/// Orthonormalizes a width-s sketch Y (n x s): QRCP(Y) -> SVD(R) ->
/// U = Q U_R gives an energy-ordered basis of Y's range; `eigenvalues`
/// hold sigma_i(Y)^2 / s zero-padded to n (see llsv's doc). `rank` is the
/// number of usable basis columns, min(n, s) — callers truncate.
template <typename T>
LlsvResult<T> sketch_factorize(const la::Matrix<T>& y, idx_t s) {
  const idx_t n = y.rows();
  const idx_t k = std::min(n, s);
  la::QrcpResult<T> qr;
  {
    prof::TraceSpan t("qrcp", Phase::qr);
    qr = la::qrcp<T>(y.cref(), k);
  }
  LlsvResult<T> out;
  {
    // Small sequential factorization replacing the EVD in the breakdown.
    prof::TraceSpan t("sketch_svd", Phase::evd);
    const la::SvdResult<T> svd = la::svd_jacobi<T>(qr.r.cref());
    out.eigenvalues.assign(static_cast<std::size_t>(n), 0.0);
    for (idx_t i = 0;
         i < std::min<idx_t>(n, static_cast<idx_t>(svd.singular.size()));
         ++i) {
      out.eigenvalues[static_cast<std::size_t>(i)] =
          svd.singular[static_cast<std::size_t>(i)] *
          svd.singular[static_cast<std::size_t>(i)] / static_cast<double>(s);
    }
    out.u = la::matmul(la::Op::none, la::Op::none, qr.q.cref(), svd.u.cref());
    out.rank = std::min(k, static_cast<idx_t>(svd.singular.size()));
  }
  return out;
}

/// Smallest r whose estimated tail energy sum_{i>r} lambda_i falls within
/// `budget`. The tail is summed from the sketch's own eigenvalue estimates,
/// NOT differenced against a separately measured ||X||^2: the difference
/// form inherits the O(||X||^2 / sqrt(s)) variance of the total-energy
/// estimate sum_i lambda_i, which dwarfs any tight budget and makes the
/// verdict essentially a coin flip, while the tail estimates carry the
/// (small) magnitude of the tail itself. Returns a value in [1, #lambda];
/// the caller guards against the tail the sketch cannot see by requiring
/// oversample columns to spare.
idx_t rank_for_tail_energy(const std::vector<double>& lambda, double budget) {
  double tail = 0.0;
  for (const double l : lambda) tail += std::max(0.0, l);
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    tail -= std::max(0.0, lambda[i]);
    if (tail <= budget) return static_cast<idx_t>(i + 1);
  }
  return 0;
}

template <typename T>
LlsvResult<T> llsv_sketch(const dist::DistTensor<T>& x, int mode, idx_t rank,
                          double tau_sq, dist::SketchKind kind,
                          const SketchOptions& sketch, const CounterRng& rng) {
  prof::TraceSpan span("llsv");
  const idx_t n = x.global_dim(mode);
  if (rank > 0) {
    const idx_t s = rank + sketch.oversample;
    const la::Matrix<T> y =
        dist::dist_sketch_mode(x, mode, s, rng, kind, sketch.deterministic);
    LlsvResult<T> out = sketch_factorize(y, s);
    // Degenerate inputs can leave fewer numerically nonzero singular values
    // than the requested rank; the basis Q U_R is orthonormal in every
    // column regardless, so keep the requested width (matching the Gram
    // path, which also pads with null-space eigenvectors).
    out.u = out.u.leading_block(n, rank);
    out.rank = rank;
    return out;
  }

  // Error-specified truncation: grow the sketch until the estimated tail
  // energy clears the (safety-scaled) threshold with `oversample` columns
  // to spare. Once the width would reach the full mode dimension the sketch
  // apply costs as much as the Gram matrix itself, so certify the
  // truncation exactly instead of accepting a noisy spectrum estimate —
  // against the full tau_sq: `safety` only hedges sketch-estimate variance.
  const double budget = sketch.safety * tau_sq;
  const idx_t smax = n;
  idx_t s = std::min(
      smax, std::max<idx_t>(sketch.min_cols, sketch.oversample + 1));
  for (int attempt = 0; s < smax; ++attempt) {
    const CounterRng draw = rng.stream(static_cast<std::uint64_t>(attempt));
    const la::Matrix<T> y =
        dist::dist_sketch_mode(x, mode, s, draw, kind, sketch.deterministic);
    LlsvResult<T> out = sketch_factorize(y, s);
    const idx_t r = rank_for_tail_energy(out.eigenvalues, budget);
    if (r > 0 && r + sketch.oversample <= s) {
      out.u = out.u.leading_block(n, r);
      out.rank = r;
      return out;
    }
    if (metrics::Registry* reg = metrics::registry()) {
      reg->count(metrics::Counter::sketch_regrowths);
    }
    s = std::min(smax, static_cast<idx_t>(std::ceil(
                           static_cast<double>(s) * sketch.growth)));
  }
  return llsv_gram(x, mode, idx_t{0}, tau_sq);
}

}  // namespace

template <typename T>
LlsvResult<T> llsv(const dist::DistTensor<T>& y, int mode, idx_t rank,
                   double tau_sq, SvdMethod method,
                   const std::type_identity_t<la::Matrix<T>>* warm,
                   const SketchOptions& sketch, const CounterRng& rng) {
  const idx_t n = y.global_dim(mode);
  RAHOOI_REQUIRE(rank >= 0 && rank <= n,
                 "llsv: rank must be in [0, n_mode] (0 = error-specified)");
  RAHOOI_REQUIRE(rank > 0 || tau_sq >= 0.0, "llsv: threshold must be >= 0");
  switch (method) {
    case SvdMethod::gram_evd:
      return llsv_gram(y, mode, rank, tau_sq);
    case SvdMethod::qr_svd:
      return llsv_qr_svd(y, mode, rank, tau_sq);
    case SvdMethod::gaussian_sketch:
    case SvdMethod::krp_sketch:
      return llsv_sketch(y, mode, rank, tau_sq,
                         method == SvdMethod::krp_sketch
                             ? dist::SketchKind::krp
                             : dist::SketchKind::gaussian,
                         sketch, rng);
    case SvdMethod::randomized:
    case SvdMethod::subspace_iteration:
      break;
  }
  RAHOOI_REQUIRE(rank > 0,
                 "llsv: subspace iteration is rank-specified only; it needs "
                 "a target rank");
  LlsvResult<T> out;
  out.rank = rank;
  if (method == SvdMethod::subspace_iteration) {
    RAHOOI_REQUIRE(warm != nullptr && warm->rows() == n &&
                       warm->cols() == rank,
                   "llsv: subspace iteration needs a starting factor of the "
                   "requested rank");
    out.u = llsv_subspace_iteration(y, mode, *warm);
    return out;
  }
  // Randomized: the same step from a fresh random subspace (cold start).
  la::Matrix<T> start(n, rank);
  for (idx_t i = 0; i < start.size(); ++i) {
    start.data()[i] = static_cast<T>(rng.normal(i));
  }
  out.u = llsv_subspace_iteration(y, mode,
                                  la::orthonormalize<T>(start.cref()));
  return out;
}

#define RAHOOI_INSTANTIATE_LLSV(T)                                          \
  template LlsvResult<T> llsv<T>(const dist::DistTensor<T>&, int, idx_t,  \
                                 double, SvdMethod, const la::Matrix<T>*, \
                                 const SketchOptions&, const CounterRng&);

RAHOOI_INSTANTIATE_LLSV(float)
RAHOOI_INSTANTIATE_LLSV(double)

#undef RAHOOI_INSTANTIATE_LLSV

}  // namespace rahooi::core
