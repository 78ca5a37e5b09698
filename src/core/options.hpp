#pragma once
// Algorithm options mirroring the paper artifact's parameter file:
//   "SVD Method"                  -> SvdMethod (0 = Gram+EVD, 1 = randomized
//                                    subspace, 2 = subspace iteration,
//                                    3 = Gaussian sketch, 4 = Khatri-Rao
//                                    sketch; the driver also accepts -1 =
//                                    auto via model::pick_llsv_backend;
//                                    qr_svd is API-only, no file value)
//   "Dimension Tree Memoization"  -> use_dimension_tree
//   "HOOI-Adapt Threshold"        -> adapt_tolerance (eps; 0 disables)
//   "HOOI max iters"              -> max_iters
// The HOOI variants of the paper (§4, artifact table) plus the sketched
// extensions of this library:
//   HOOI     = {gram_evd, no tree},   HOOI-DT = {gram_evd, tree},
//   HOSI     = {subspace, no tree},   HOSI-DT = {subspace, tree},
//   HOSK(-DT) = {gaussian_sketch},    HOSK-KRP(-DT) = {krp_sketch}.
// SvdMethod is the one name for an LLSV backend: core::llsv
// (core/llsv.hpp) runs it for HOOI sweeps, ST-HOSVD and the rank-adaptive
// warm start alike.

#include <atomic>
#include <cstdint>
#include <string>

namespace rahooi::core {

enum class SvdMethod : int {
  gram_evd = 0,           ///< Gram matrix + sequential EVD (TuckerMPI default)
  /// Randomized range finder with one power iteration: the subspace
  /// iteration of §3.4 started from a *fresh random* subspace instead of
  /// the previous factor. The paper (§2.3) observes that HOOI with random
  /// initialization is a form of TuckerMPI's structured random sketches;
  /// this method makes the connection executable and lets benches ablate
  /// warm vs cold starts (warm is what makes one iteration suffice, §3.4).
  randomized = 1,
  subspace_iteration = 2, ///< single subspace iteration + QRCP (paper §3.4)
  /// Sketched LLSV (HMT-style randomized range finder): Y = X_(j) * Omega
  /// with a counter-based i.i.d. Gaussian Omega of r + oversample columns,
  /// applied distributed by dist::dist_sketch_mode and orthonormalized with
  /// the existing QRCP + Jacobi-SVD sequential path. One pass over the
  /// tensor per mode (vs two for Gram+EVD's n^2 reduction) and the
  /// allreduce shrinks from n^2 to n * (r + oversample) words.
  gaussian_sketch = 3,
  /// Sketched LLSV with a Khatri-Rao-structured Omega (Minster, Li &
  /// Ballard): the row-wise KRP of small per-mode Gaussians W_i, so the
  /// n^(d-1)-row operator is never materialized — each rank only forms the
  /// rows covering its local fibers. Same accuracy class as the Gaussian
  /// sketch on incoherent data at a fraction of the Omega-generation cost.
  krp_sketch = 4,
  /// Distributed TSQR of the unfolding + small sequential SVD (Li, Fang &
  /// Ballard, §2.3): the numerically stable alternative to gram_evd at
  /// about twice its flops. API-only: "SVD Method" has no value for it.
  qr_svd = 5,
};

/// Knobs for the sketched LLSV backends (svd_method 3/4) and the randomized
/// ST-HOSVD initializer. Defaults follow the HMT oversampling guidance
/// (p in [5, 10]).
struct SketchOptions {
  /// Extra sketch columns p beyond the target rank.
  std::int64_t oversample = 8;
  /// Initial sketch width for rank-adaptive (eps-driven) truncations, where
  /// no target rank is known in advance.
  std::int64_t min_cols = 16;
  /// Sketch-width growth factor when the adaptive tail-energy test fails
  /// (the sketch is re-drawn at ceil(growth * cols) columns).
  double growth = 2.0;
  /// Accept an adaptive rank r only when the estimated tail energy is below
  /// safety * tau^2 — the margin absorbs the sketched spectrum's estimation
  /// error so the subsequent exact truncation still meets tau.
  double safety = 0.5;
  /// Route the sketch apply through the int64 fixed-point path that is
  /// *bitwise* identical on every processor grid (dist/sketch.hpp). The
  /// default floating-point path is grid-invariant only up to roundoff but
  /// runs on the fused GEMM kernels; enable this for reproducibility
  /// studies and the P=1-vs-P=4 tests.
  bool deterministic = false;

  bool operator==(const SketchOptions&) const = default;
};

struct HooiOptions {
  SvdMethod svd_method = SvdMethod::gram_evd;
  bool use_dimension_tree = false;  ///< multi-TTM memoization (paper §3.3)
  int max_iters = 2;                ///< paper runs 2 for rank-specified tests
  /// Stop early when the relative error improves by less than this between
  /// sweeps (0 disables early stopping; the paper uses a fixed iteration
  /// count).
  double convergence_tol = 0.0;
  std::uint64_t seed = 1;           ///< random factor initialization seed
  /// Sketched-backend knobs; consulted only when svd_method is
  /// gaussian_sketch or krp_sketch (or by the sketched ST-HOSVD
  /// initializer).
  SketchOptions sketch;
  /// When non-empty, rank 0 writes a versioned+checksummed checkpoint of
  /// the sweep state (factors, ranks, seed, error history) to this path
  /// after every completed sweep (core/checkpoint.hpp).
  std::string checkpoint_path;
  /// When non-empty, hooi() / rank_adaptive_hooi() resumes from the
  /// checkpoint at this path instead of random initialization: the
  /// remaining sweeps run exactly as the uninterrupted solve would have run
  /// them (bitwise, thanks to the counter-based RNG, iteration-indexed
  /// growth seeds, and canonical-order reductions).
  std::string restore_path;
  /// Cooperative preemption hook (serve::Scheduler, docs/SERVING.md). When
  /// non-null, the solver loop checks the flag at every sweep/iteration
  /// boundary: rank 0 reads it and broadcasts the verdict so all ranks
  /// agree, then every rank throws core::PreemptedError — the previous
  /// boundary's checkpoint is already on disk and no collective is torn
  /// mid-post. Null (default): no check, no collective, no cost.
  const std::atomic<int>* yield_flag = nullptr;

  bool operator==(const HooiOptions&) const = default;
};

/// How ranks evolve when the error threshold is not yet met.
enum class AdaptStrategy {
  /// Alg. 3 line 9: every rank grows by the factor alpha (the paper's
  /// method).
  global_growth,
  /// Mode-wise expansion *and* contraction in the spirit of Xiao & Yang's
  /// RA-HOOI (cited in §2.3): each iteration the per-mode slice-energy
  /// spectra of the core decide, mode by mode, whether that mode still
  /// needs more rank (its trailing slice carries a non-negligible share of
  /// the core energy) or can already shed slices (their energy is far
  /// below the error budget). Useful when the true ranks are anisotropic.
  modewise,
};

/// How rank_adaptive_hooi() forms its starting factors.
enum class RaInit {
  /// Counter-based random factors orthonormalized per mode — the cold start
  /// of Alg. 3 as seeded in PRs 1-5.
  random_factors,
  /// Randomized ST-HOSVD warm start: one sketched sequentially-truncated
  /// HOSVD pass at the target tolerance seeds both the starting factors
  /// *and* the starting ranks, so the first RA iteration refines a subspace
  /// that already captures the bulk of the spectrum instead of rediscovering
  /// it from noise (typically saving one whole growth round).
  sketched_sthosvd,
};

struct RankAdaptiveOptions {
  HooiOptions hooi;            ///< sweep configuration (HOSI-DT by default)
  double tolerance = 0.1;      ///< eps of eq. (2)
  double growth_factor = 1.5;  ///< alpha of Alg. 3 (paper uses 1.5 or 2)
  int max_iters = 3;           ///< the paper caps RA-HOSI-DT at 3 iterations
  /// Keep iterating after the error threshold is first met (the paper's
  /// plots show all 3 iterations; later sweeps can improve compression).
  bool continue_after_satisfied = true;

  AdaptStrategy strategy = AdaptStrategy::global_growth;

  /// Starting factors: the Alg. 3 cold start by default, preserving the
  /// PR 1-5 rank trajectories; opt in to RaInit::sketched_sthosvd for the
  /// randomized warm start (typically saving one growth round).
  RaInit init = RaInit::random_factors;

  RankAdaptiveOptions() {
    hooi.svd_method = SvdMethod::subspace_iteration;
    hooi.use_dimension_tree = true;
  }

  bool operator==(const RankAdaptiveOptions&) const = default;
};

/// Variant label as used in the paper's figures ("STHOSVD", "HOOI",
/// "HOOI-DT", "HOSI", "HOSI-DT").
std::string variant_name(const HooiOptions& o);

/// Entry validation run by hooi() / rank_adaptive_hooi(): rejects
/// non-finite or out-of-range knobs with precondition_error before any
/// collective runs, so misconfiguration fails identically on every rank
/// instead of desynchronizing the world mid-solve.
void validate(const HooiOptions& o);
void validate(const RankAdaptiveOptions& o);

}  // namespace rahooi::core
