#include "core/dimension_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"

namespace rahooi::core {
namespace {

// Both sweep shapes, d = 1..8: the halving tree and the direct star.
std::vector<DimensionTree> both_shapes(int d) {
  return {build_dimension_tree(d), build_direct_tree(d)};
}

TEST(DimensionTree, LeafOrderIsAscendingModes) {
  for (int d = 1; d <= 8; ++d) {
    std::vector<int> expect(d);
    for (int j = 0; j < d; ++j) expect[j] = j;
    for (const auto& tree : both_shapes(d)) {
      EXPECT_EQ(tree.leaf_order(), expect) << "d=" << d;
    }
  }
}

TEST(DimensionTree, RootHoldsAllModes) {
  for (const auto& tree : both_shapes(5)) {
    EXPECT_EQ(tree.nodes[0].modes, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(tree.nodes[0].ttm_modes.empty());
  }
}

TEST(DimensionTree, ChildrenPartitionParentModes) {
  for (int d = 1; d <= 8; ++d) {
    for (const auto& tree : both_shapes(d)) {
      for (const auto& node : tree.nodes) {
        if (node.is_leaf()) continue;
        std::vector<int> merged;
        for (const int c : node.children) {
          const auto& m = tree.nodes[c].modes;
          merged.insert(merged.end(), m.begin(), m.end());
        }
        std::sort(merged.begin(), merged.end());
        std::vector<int> parent = node.modes;
        std::sort(parent.begin(), parent.end());
        EXPECT_EQ(merged, parent) << "d=" << d;
      }
    }
  }
}

TEST(DimensionTree, EdgeTtmsAreTheSiblingModes) {
  // The TTMs applied on the edge into a child are exactly the modes kept by
  // its siblings (you multiply away what the siblings will update later).
  for (int d = 1; d <= 8; ++d) {
    for (const auto& tree : both_shapes(d)) {
      for (const auto& node : tree.nodes) {
        for (const int c : node.children) {
          std::vector<int> siblings;
          for (const int s : node.children) {
            if (s == c) continue;
            const auto& m = tree.nodes[s].modes;
            siblings.insert(siblings.end(), m.begin(), m.end());
          }
          std::vector<int> edge = tree.nodes[c].ttm_modes;
          std::sort(edge.begin(), edge.end());
          std::sort(siblings.begin(), siblings.end());
          EXPECT_EQ(edge, siblings) << "d=" << d;
        }
      }
    }
  }
}

TEST(DimensionTree, DirectTreeIsAStarOfAscendingChains) {
  // Alg. 2: leaf j's multi-TTM is one fresh chain from X over every other
  // mode, ascending — d (d-1) TTMs per sweep.
  for (int d = 1; d <= 8; ++d) {
    const auto tree = build_direct_tree(d);
    EXPECT_EQ(tree.ttm_count(), d * (d - 1)) << "d=" << d;
    for (const int c : tree.nodes[0].children) {
      EXPECT_TRUE(tree.nodes[c].is_leaf());
      const auto& edge = tree.nodes[c].ttm_modes;
      EXPECT_TRUE(std::is_sorted(edge.begin(), edge.end()));
    }
  }
}

TEST(DimensionTree, LeftEdgeTtmsAreDescending) {
  // Paper §3.3: the eta-half TTMs run in reverse (mode d first) because the
  // last-mode TTM is a single large GEMM in this layout.
  auto tree = build_dimension_tree(6);
  const auto& root = tree.nodes[0];
  ASSERT_EQ(root.children.size(), 2u);
  const auto& left_edge = tree.nodes[root.children[0]].ttm_modes;
  EXPECT_EQ(left_edge, (std::vector<int>{5, 4, 3}));
  const auto& right_edge = tree.nodes[root.children[1]].ttm_modes;
  EXPECT_EQ(right_edge, (std::vector<int>{0, 1, 2}));
}

TEST(DimensionTree, TtmCountMatchesRecurrence) {
  // T(1) = 0; T(d) = d + T(floor(d/2)) + T(ceil(d/2)): each internal node
  // applies |sibling| TTMs per child, totalling |modes| per node.
  auto count = [](int d) {
    auto rec = [](auto&& self, int n) -> int {
      if (n <= 1) return 0;
      return n + self(self, n / 2) + self(self, n - n / 2);
    };
    return rec(rec, d);
  };
  for (int d = 1; d <= 8; ++d) {
    EXPECT_EQ(build_dimension_tree(d).ttm_count(), count(d)) << "d=" << d;
  }
}

TEST(DimensionTree, TtmCountBeatsDirectSweepForLargeD) {
  // Direct HOOI does d*(d-1) TTMs per sweep; the tree does O(d log d).
  for (int d = 3; d <= 8; ++d) {
    EXPECT_LT(build_dimension_tree(d).ttm_count(),
              build_direct_tree(d).ttm_count())
        << d;
  }
}

TEST(DimensionTree, Order6MatchesPaperFigure1Shape) {
  // Order-6 tree: root {1..6}, children {1,2,3} and {4,5,6}, then pairs and
  // leaves — 16 TTM notches in total.
  auto tree = build_dimension_tree(6);
  const auto& root = tree.nodes[0];
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(tree.nodes[root.children[0]].modes, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(tree.nodes[root.children[1]].modes, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(tree.ttm_count(), 16);
  // 6 leaves, one per mode.
  int leaves = 0;
  for (const auto& n : tree.nodes) leaves += n.is_leaf();
  EXPECT_EQ(leaves, 6);
}

TEST(DimensionTree, SingleModeTree) {
  for (const auto& tree : both_shapes(1)) {
    EXPECT_EQ(tree.nodes.size(), 1u);
    EXPECT_TRUE(tree.nodes[0].is_leaf());
    EXPECT_EQ(tree.ttm_count(), 0);
  }
}

TEST(DimensionTree, RejectsZeroModes) {
  EXPECT_THROW(build_dimension_tree(0), precondition_error);
  EXPECT_THROW(build_direct_tree(0), precondition_error);
}

TEST(DimensionTree, RenderingMentionsEveryLeaf) {
  auto tree = build_dimension_tree(4);
  const std::string s = tree.to_string();
  for (int j = 1; j <= 4; ++j) {
    EXPECT_NE(s.find("LLSV mode " + std::to_string(j)), std::string::npos);
  }
}

}  // namespace
}  // namespace rahooi::core
