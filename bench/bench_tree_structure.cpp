// Figure 1 reproduction: the dimension tree for an order-6 tensor, rendered
// as the mode-set listing of the paper's figure, plus the TTM-count
// accounting that underlies the §3.3 memoization analysis (one TTM per
// "notch" on an edge).

#include <cstdio>

#include "core/dimension_tree.hpp"

using namespace rahooi;

int main() {
  std::printf("=== Figure 1: dimension tree for an order-6 tensor ===\n\n");
  const auto tree = core::build_dimension_tree(6);
  std::printf("%s\n", tree.to_string().c_str());
  std::printf("TTMs per HOOI sweep with memoization: %d\n",
              tree.ttm_count());
  std::printf("TTMs per direct HOOI sweep (d*(d-1)): %d\n",
              core::build_direct_tree(6).ttm_count());

  std::printf("\nTTM counts across orders (tree vs direct):\n");
  std::printf("  %3s  %6s  %7s\n", "d", "tree", "direct");
  for (int d = 2; d <= 10; ++d) {
    std::printf("  %3d  %6d  %7d\n", d,
                core::build_dimension_tree(d).ttm_count(),
                core::build_direct_tree(d).ttm_count());
  }
  return 0;
}
