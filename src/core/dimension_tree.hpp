#pragma once
// The TTM schedule of one HOOI sweep (paper §3.3, Fig. 1, Algs. 2 and 4).
//
// A HOOI sweep needs, for each mode j, the multi-TTM of X in all modes but
// j. A DimensionTree says how those multi-TTMs are formed: the root holds
// X, each edge multiplies its `ttm_modes` into the parent's tensor, and
// each leaf is the all-but-one multi-TTM of its mode. Two shapes:
// - the direct sweep (Alg. 2) is a star, one fresh d-1 TTM chain from X
//   per leaf, d (d-1) TTMs per sweep;
// - the binary dimension tree (Alg. 4) shares the common prefixes: each
//   internal node multiplies half of its remaining modes into a memoized
//   intermediate and recurses, for a leading-order TTM cost of 4 r n^d / P
//   instead of 2 d r n^d / P.
//
// Mode ordering within a sweep: leaves are visited in ascending mode order
// (matching Alg. 2's subiteration order), so the core is produced at the
// last leaf (mode d) by one final TTM. TTMs on the "eta" half are applied
// in descending mode order because the last-mode TTM maps to a single large
// GEMM in this layout (paper §3.3's left-branch reverse-order observation).

#include <string>
#include <vector>

namespace rahooi::core {

struct DimensionTreeNode {
  std::vector<int> modes;       ///< modes NOT yet multiplied at this node
  std::vector<int> ttm_modes;   ///< TTMs applied on the edge into this node
  std::vector<int> children;    ///< node indices, in visit order
  bool is_leaf() const { return children.empty(); }
};

/// One sweep's TTM schedule; node 0 is the root. hooi_sweep walks it, and
/// model::predict_tree_memo_peak_bytes models the buffers that walk holds.
struct DimensionTree {
  std::vector<DimensionTreeNode> nodes;

  /// Number of TTMs a sweep over this tree performs (Fig. 1: one per notch).
  int ttm_count() const;

  /// Leaf modes in visit order (must be 0, 1, ..., d-1).
  std::vector<int> leaf_order() const;

  /// Renders the tree as an indented mode-set listing (Fig. 1 style).
  std::string to_string() const;
};

/// Builds the binary dimension tree over modes {0, ..., d-1} with halving
/// splits (the paper's heuristic; Kaya & Robert's optimal trees are cited
/// as related work but not used).
DimensionTree build_dimension_tree(int d);

/// Builds the direct sweep's star: a root with d leaf children, where the
/// edge into leaf j multiplies every other mode in ascending order.
DimensionTree build_direct_tree(int d);

}  // namespace rahooi::core
