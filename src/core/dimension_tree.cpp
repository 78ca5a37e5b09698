#include "core/dimension_tree.hpp"

#include <sstream>

#include "common/contracts.hpp"

namespace rahooi::core {

namespace {

std::vector<int> all_modes(int d) {
  RAHOOI_REQUIRE(d >= 1, "dimension tree needs at least one mode");
  std::vector<int> all(d);
  for (int j = 0; j < d; ++j) all[j] = j;
  return all;
}

int add_node(DimensionTree& tree, std::vector<int> modes,
             std::vector<int> edge_ttms) {
  tree.nodes.push_back(
      DimensionTreeNode{std::move(modes), std::move(edge_ttms), {}});
  return static_cast<int>(tree.nodes.size()) - 1;
}

int build_subtree(DimensionTree& tree, std::vector<int> modes,
                  std::vector<int> edge_ttms) {
  const int index = add_node(tree, std::move(modes), std::move(edge_ttms));
  const std::vector<int>& m = tree.nodes[index].modes;
  if (m.size() == 1) return index;

  const std::size_t half = m.size() / 2;
  const std::vector<int> mu(m.begin(), m.begin() + half);
  const std::vector<int> eta(m.begin() + half, m.end());

  // First child keeps mu: the edge applies TTMs in eta, descending (§3.3).
  const int left = build_subtree(tree, mu, {eta.rbegin(), eta.rend()});
  // Second child keeps eta: the edge applies TTMs in mu, ascending.
  const int right = build_subtree(tree, eta, mu);
  tree.nodes[index].children = {left, right};
  return index;
}

void collect_leaves(const DimensionTree& tree, int index,
                    std::vector<int>& out) {
  const DimensionTreeNode& node = tree.nodes[index];
  if (node.is_leaf()) out.push_back(node.modes[0]);
  for (const int c : node.children) collect_leaves(tree, c, out);
}

void render(const DimensionTree& tree, int index, int depth,
            std::ostringstream& os) {
  const DimensionTreeNode& node = tree.nodes[index];
  os << std::string(2 * static_cast<std::size_t>(depth), ' ') << '{';
  for (std::size_t i = 0; i < node.modes.size(); ++i) {
    os << (i ? "," : "") << node.modes[i] + 1;  // 1-based like the paper
  }
  os << '}';
  if (!node.ttm_modes.empty()) {
    os << "  (TTM in";
    for (const int m : node.ttm_modes) os << ' ' << m + 1;
    os << ')';
  }
  if (node.is_leaf()) os << "  -> LLSV mode " << node.modes[0] + 1;
  os << '\n';
  for (const int c : node.children) render(tree, c, depth + 1, os);
}

}  // namespace

int DimensionTree::ttm_count() const {
  int count = 0;
  for (const auto& node : nodes) {
    count += static_cast<int>(node.ttm_modes.size());
  }
  return count;
}

std::vector<int> DimensionTree::leaf_order() const {
  std::vector<int> out;
  collect_leaves(*this, 0, out);
  return out;
}

std::string DimensionTree::to_string() const {
  std::ostringstream os;
  render(*this, 0, 0, os);
  return os.str();
}

DimensionTree build_dimension_tree(int d) {
  DimensionTree tree;
  build_subtree(tree, all_modes(d), {});
  return tree;
}

DimensionTree build_direct_tree(int d) {
  DimensionTree tree;
  add_node(tree, all_modes(d), {});
  // d = 1: the root is the only leaf (an edge always multiplies a mode).
  for (int j = 0; d > 1 && j < d; ++j) {
    std::vector<int> others = tree.nodes[0].modes;
    others.erase(others.begin() + j);
    const int leaf = add_node(tree, {j}, std::move(others));
    tree.nodes[0].children.push_back(leaf);
  }
  return tree;
}

}  // namespace rahooi::core
