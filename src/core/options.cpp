#include "core/options.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace rahooi::core {

void validate(const HooiOptions& o) {
  RAHOOI_REQUIRE(o.max_iters >= 1, "HooiOptions: max_iters must be >= 1");
  RAHOOI_REQUIRE(std::isfinite(o.convergence_tol) && o.convergence_tol >= 0.0,
                 "HooiOptions: convergence_tol must be finite and >= 0");
  RAHOOI_REQUIRE(o.sketch.oversample >= 1,
                 "SketchOptions: oversample must be >= 1");
  RAHOOI_REQUIRE(o.sketch.min_cols >= 1,
                 "SketchOptions: min_cols must be >= 1");
  RAHOOI_REQUIRE(std::isfinite(o.sketch.growth) && o.sketch.growth > 1.0,
                 "SketchOptions: growth must exceed 1");
  RAHOOI_REQUIRE(std::isfinite(o.sketch.safety) && o.sketch.safety > 0.0 &&
                     o.sketch.safety <= 1.0,
                 "SketchOptions: safety must be in (0, 1]");
}

void validate(const RankAdaptiveOptions& o) {
  validate(o.hooi);
  RAHOOI_REQUIRE(std::isfinite(o.tolerance) && o.tolerance > 0.0 &&
                     o.tolerance < 1.0,
                 "RankAdaptiveOptions: tolerance must be in (0, 1)");
  RAHOOI_REQUIRE(std::isfinite(o.growth_factor) && o.growth_factor > 1.0,
                 "RankAdaptiveOptions: growth_factor must exceed 1");
  RAHOOI_REQUIRE(o.max_iters >= 1,
                 "RankAdaptiveOptions: max_iters must be >= 1");
}

}  // namespace rahooi::core
