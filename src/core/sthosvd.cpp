#include "core/sthosvd.hpp"

#include <cmath>

#include "core/solver_shell.hpp"
#include "dist/dist_ops.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

template <typename T>
double TuckerResult<T>::relative_error() const {
  const double err_sq = std::max(0.0, x_norm_sq - core_norm_sq);
  return x_norm_sq > 0.0 ? std::sqrt(err_sq / x_norm_sq) : 0.0;
}

template <typename T>
idx_t TuckerResult<T>::compressed_size() const {
  idx_t total = core.global_size();
  for (const auto& u : factors) total += u.rows() * u.cols();
  return total;
}

template <typename T>
double TuckerResult<T>::compression_ratio() const {
  idx_t full = 1;
  for (const auto& u : factors) full *= u.rows();
  return static_cast<double>(full) / static_cast<double>(compressed_size());
}

template <typename T>
tensor::TuckerTensor<T> TuckerResult<T>::replicated() const {
  tensor::TuckerTensor<T> t;
  t.core = core.allgather_full();
  t.factors = factors;
  return t;
}

namespace {

template <typename T>
TuckerResult<T> sthosvd_impl(const dist::DistTensor<T>& x, double eps,
                             const std::vector<idx_t>* fixed_ranks,
                             SvdMethod method, const SketchOptions& sketch,
                             std::uint64_t seed) {
  const int d = x.ndims();
  // Root span tagged Phase::other so the per-phase seconds sum to the
  // algorithm's wall time (see prof/trace.hpp).
  prof::TraceSpan root("sthosvd", Phase::other);
  // Telemetry baselines: one "solve" event summarizes the whole run (the
  // registry being installed is the knob; there is no options struct here).
  detail::SolverShell shell(x.grid().world(), "sthosvd");
  shell.mark(0);
  TuckerResult<T> out;
  out.x_norm_sq = x.norm_squared();
  const double tau_sq = eps * eps * out.x_norm_sq / d;

  // Walk the truncation chain without copying X: mode j reads `*src`, which
  // is X itself for j = 0 and the previous mode's TTM result afterwards.
  const dist::DistTensor<T>* src = &x;
  dist::DistTensor<T> y;
  out.factors.reserve(d);
  for (int j = 0; j < d; ++j) {
    prof::TraceSpan mode_span("mode", static_cast<std::int64_t>(j));
    const idx_t fixed = fixed_ranks != nullptr ? (*fixed_ranks)[j] : 0;
    // Randomized ST-HOSVD (sketched methods): the adaptive form estimates
    // the tail of the *partially truncated* tensor from the sketch
    // spectrum, which is what the per-mode threshold tau^2 budgets against
    // in Alg. 1.
    const CounterRng rng = CounterRng(seed).stream(0x5EEDDA7Aull).stream(j);
    LlsvResult<T> basis =
        llsv(*src, j, fixed, tau_sq, method, nullptr, sketch, rng);
    {
      prof::TraceSpan t("ttm", Phase::ttm);
      y = dist::dist_ttm(*src, j, basis.u.cref());
      src = &y;
    }
    out.factors.push_back(std::move(basis.u));
  }
  out.core_norm_sq = y.norm_squared();
  out.core = std::move(y);
  metrics::Event ev;
  ev.kind = "solve";
  ev.rel_error = out.relative_error();
  for (const auto& u : out.factors) ev.ranks_after.push_back(u.cols());
  ev.seconds = shell.step_seconds();
  ev.compressed_size = out.compressed_size();
  shell.emit(std::move(ev), 0);
  return out;
}

}  // namespace

template <typename T>
TuckerResult<T> sthosvd(const dist::DistTensor<T>& x, double eps,
                        SvdMethod method, const SketchOptions& sketch,
                        std::uint64_t seed) {
  RAHOOI_REQUIRE(eps >= 0.0 && eps < 1.0, "sthosvd: eps must be in [0, 1)");
  return sthosvd_impl<T>(x, eps, nullptr, method, sketch, seed);
}

template <typename T>
TuckerResult<T> sthosvd_fixed_rank(const dist::DistTensor<T>& x,
                                   const std::vector<idx_t>& ranks,
                                   SvdMethod method,
                                   const SketchOptions& sketch,
                                   std::uint64_t seed) {
  RAHOOI_REQUIRE(static_cast<int>(ranks.size()) == x.ndims(),
                 "sthosvd: one rank per mode required");
  for (int j = 0; j < x.ndims(); ++j) {
    RAHOOI_REQUIRE(ranks[j] >= 1 && ranks[j] <= x.global_dim(j),
                   "sthosvd: ranks must be in [1, n_j]");
  }
  return sthosvd_impl<T>(x, 0.0, &ranks, method, sketch, seed);
}

#define RAHOOI_INSTANTIATE_STHOSVD(T)                                  \
  template struct TuckerResult<T>;                                     \
  template TuckerResult<T> sthosvd<T>(const dist::DistTensor<T>&,      \
                                      double, SvdMethod,               \
                                      const SketchOptions&,            \
                                      std::uint64_t);                  \
  template TuckerResult<T> sthosvd_fixed_rank<T>(                      \
      const dist::DistTensor<T>&, const std::vector<idx_t>&,           \
      SvdMethod, const SketchOptions&, std::uint64_t);

RAHOOI_INSTANTIATE_STHOSVD(float)
RAHOOI_INSTANTIATE_STHOSVD(double)

#undef RAHOOI_INSTANTIATE_STHOSVD

}  // namespace rahooi::core
