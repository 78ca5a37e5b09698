#include "metrics/metrics.hpp"

#include <cmath>
#include <iterator>

namespace rahooi::metrics {

const char* mem_scope_name(MemScope s) {
  static constexpr const char* kNames[] = {
      "tensor", "dist_tensor", "pack_buffer", "checkpoint", "dt_memo"};
  static_assert(std::size(kNames) == std::size_t(kMemScopeCount));
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

const char* counter_name(Counter c) {
  static constexpr const char* kNames[] = {
      "fault_retries", "solver_fallbacks", "solver_sweeps",
      "checkpoint_writes", "sketch_regrowths", "serve_submitted",
      "serve_completed", "serve_cache_hits", "serve_shed",
      "serve_deadline_misses", "serve_failed", "serve_retries",
      "serve_resumes", "serve_preemptions"};
  static_assert(std::size(kNames) == std::size_t(kCounterCount));
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

const char* serve_stage_name(ServeStage s) {
  static constexpr const char* kNames[] = {
      "queue", "solve", "total"};
  static_assert(std::size(kNames) == std::size_t(kServeStageCount));
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  const int idx = (exp - 1) - kMinExponent;
  if (idx <= 0) return 0;
  if (idx >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Walk the cumulative distribution to the bucket containing the target
  // rank, then interpolate linearly inside the bucket's value range
  // (uniform-within-bucket assumption — exact at bucket edges, at worst a
  // factor-of-2 wide estimate, the log2 scheme's resolution).
  const double target = q * double(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cum + double(buckets[i]);
    if (next >= target) {
      const double lo =
          i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) + kMinExponent);
      const double hi = std::ldexp(1.0, static_cast<int>(i) + kMinExponent + 1);
      const double frac = (target - cum) / double(buckets[i]);
      double v = lo + frac * (hi - lo);
      if (v < min) v = min;
      if (v > max) v = max;
      return v;
    }
    cum = next;
  }
  return max;
}

void Registry::clear() {
  collectives_ = {};
  gauges_ = {};
  sketch_cols_ = {};
  serve_queue_ = {};
  serve_stages_ = {};
  counters_ = {};
  named_.clear();
  events_.clear();
}

}  // namespace rahooi::metrics
