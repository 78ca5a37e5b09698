#include "model/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "la/eig.hpp"

namespace rahooi::model {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::sthosvd: return "STHOSVD";
    case Algorithm::hooi: return "HOOI";
    case Algorithm::hooi_dt: return "HOOI-DT";
    case Algorithm::hosi: return "HOSI";
    case Algorithm::hosi_dt: return "HOSI-DT";
  }
  return "?";
}

Algorithm algorithm_from_name(const std::string& name) {
  for (Algorithm a : {Algorithm::sthosvd, Algorithm::hooi, Algorithm::hooi_dt,
                      Algorithm::hosi, Algorithm::hosi_dt}) {
    if (name == algorithm_name(a)) return a;
  }
  throw precondition_error("unknown algorithm name: " + name);
}

double Problem::p() const {
  double total = 1;
  for (const int g : grid) total *= g;
  return total;
}

namespace {

// Sum of (P_i - 1) / P_i over the grid.
double sum_frac(const std::vector<int>& grid) {
  double s = 0;
  for (const int p : grid) s += static_cast<double>(p - 1) / p;
  return s;
}

double sum_minus_one(const std::vector<int>& grid) {
  double s = 0;
  for (const int p : grid) s += p - 1;
  return s;
}

}  // namespace

CostBreakdown predict(Algorithm a, const Problem& prob) {
  RAHOOI_REQUIRE(prob.d >= 1 && prob.n >= 1 && prob.r >= 1,
                 "predict: degenerate problem");
  const double d = prob.d;
  const double n = prob.n;
  const double r = prob.r;
  const double p = prob.p();
  const double nd = std::pow(n, d);
  const std::vector<int> grid =
      prob.grid.empty() ? std::vector<int>(prob.d, 1) : prob.grid;
  const double p1 = grid.front();
  const double p2 = grid.size() > 1 ? grid[1] : 1;
  const double pd = grid.back();

  CostBreakdown c;
  if (a == Algorithm::sthosvd) {
    c.gram_flops = nd * n / p;
    c.evd_flops = d * la::sym_evd_flops(n, r);
    c.ttm_flops = 2.0 * r * nd / p;
    c.llsv_words = (nd / p) * (p1 - 1) / p1 + d * n * n;
    c.ttm_words = (r * nd / n / p) * (p1 - 1);
    // One streaming pass over the local block for the first Gram and one
    // for the first TTM; later modes are a factor r/n smaller.
    c.mem_elements = 2.0 * nd / p;
    return c;
  }

  const double ell = prob.iters;
  const bool tree = a == Algorithm::hooi_dt || a == Algorithm::hosi_dt;
  const bool si = a == Algorithm::hosi || a == Algorithm::hosi_dt;

  // Multi-TTM flops per iteration (Table 1): direct 2 d r n^d / P; with
  // dimension trees 4 r n^d / P.
  c.ttm_flops = ell * (tree ? 4.0 : 2.0 * d) * r * nd / p;

  if (si) {
    // Subspace iteration (§3.4): TTM + contraction 4 d n r^d / P, plus a
    // sequential QRCP of the n x r iterate per mode (~4 n r^2 each).
    c.contraction_flops = ell * 4.0 * d * n * std::pow(r, d) / p;
    c.qr_flops = ell * 4.0 * d * n * r * r;
    c.llsv_words =
        ell * ((std::pow(r, d) / p) * sum_minus_one(grid) + 2.0 * d * n * r);
  } else {
    // Gram + EVD: d Gram matrices of n^2 r^{d-1}/P plus sequential EVDs.
    c.gram_flops = ell * d * n * n * std::pow(r, d - 1) / p;
    c.evd_flops = ell * d * la::sym_evd_flops(n, r);
    c.llsv_words =
        ell * ((n * std::pow(r, d - 1) / p) * sum_frac(grid) + d * n * n);
  }

  const double ttm_local = r * nd / n / p;  // r n^{d-1} / P
  c.ttm_words = ell * (tree ? ttm_local * (p1 + pd - 2)
                            : ttm_local * ((d - 1) * (p1 - 1) + (p2 - 1)));
  // Leading TTMs stream the full local block: d of them per direct sweep,
  // two (one per root branch) with dimension trees.
  c.mem_elements = ell * (tree ? 2.0 : d) * nd / p;
  return c;
}

double modeled_seconds(const CostBreakdown& c, const MachineRates& m) {
  return c.parallel_flops() / m.flops_per_sec +
         c.sequential_flops() / m.seq_flops_per_sec +
         c.total_words() * m.word_bytes / m.bytes_per_sec;
}

double modeled_seconds_roofline(const CostBreakdown& c, const MachineRates& m,
                                int p) {
  RAHOOI_REQUIRE(p >= 1, "roofline model: need at least one rank");
  const int sharing = std::min(p, m.cores_per_node);
  const double rank_bw =
      std::min(m.core_mem_bytes_per_sec, m.node_mem_bytes_per_sec / sharing);
  const double compute = c.parallel_flops() / m.flops_per_sec;
  const double streaming = c.mem_elements * m.word_bytes / rank_bw;
  return std::max(compute, streaming) +
         c.sequential_flops() / m.seq_flops_per_sec +
         c.total_words() * m.word_bytes / m.bytes_per_sec;
}

namespace {

void factorize(int p, int d, std::vector<int>& cur,
               std::vector<std::vector<int>>& out) {
  if (d == 1) {
    cur.push_back(p);
    out.push_back(cur);
    cur.pop_back();
    return;
  }
  for (int f = 1; f <= p; ++f) {
    if (p % f != 0) continue;
    cur.push_back(f);
    factorize(p / f, d - 1, cur, out);
    cur.pop_back();
  }
}

}  // namespace

std::vector<std::vector<int>> grid_factorizations(int p, int d) {
  RAHOOI_REQUIRE(p >= 1 && d >= 1, "grid_factorizations: bad arguments");
  std::vector<std::vector<int>> out;
  std::vector<int> cur;
  factorize(p, d, cur, out);
  return out;
}

namespace {

/// One rank's local element count of a distributed tensor with the given
/// mode extents under the balanced block distribution (dist/block.hpp).
double local_elements(const std::vector<std::int64_t>& extents,
                      const std::vector<int>& grid,
                      const std::vector<int>& coord) {
  double vol = 1.0;
  for (std::size_t j = 0; j < extents.size(); ++j) {
    const std::int64_t base = extents[j] / grid[j];
    const std::int64_t rem = extents[j] % grid[j];
    vol *= static_cast<double>(base + (coord[j] < rem ? 1 : 0));
  }
  return vol;
}

/// Walks the chains hooi_sweep builds below `index`: `extents` are that
/// node's mode extents (global_dims with already-multiplied modes replaced
/// by their ranks), `live` the dt_memo bytes held by enclosing chain nodes.
/// Chain step k allocates the new node while the previous one (and
/// everything in `live`) still exists; a chain's final node stays live
/// while its child is visited. Leaf LLSVs are not charged to dt_memo.
void walk_memo(const core::DimensionTree& tree, int index,
               const std::vector<std::int64_t>& extents,
               const std::vector<std::int64_t>& ranks,
               const std::vector<int>& grid, const std::vector<int>& coord,
               double elem_bytes, double live, double* peak) {
  for (const int child : tree.nodes[index].children) {
    std::vector<std::int64_t> cur = extents;
    double prev = 0.0;
    for (const int m : tree.nodes[child].ttm_modes) {
      cur[static_cast<std::size_t>(m)] = ranks[static_cast<std::size_t>(m)];
      const double next = local_elements(cur, grid, coord) * elem_bytes;
      *peak = std::max(*peak, live + prev + next);
      prev = next;
    }
    walk_memo(tree, child, cur, ranks, grid, coord, elem_bytes, live + prev,
              peak);
  }
}

}  // namespace

double predict_tree_memo_peak_bytes(
    const core::DimensionTree& tree,
    const std::vector<std::int64_t>& global_dims,
    const std::vector<std::int64_t>& ranks, const std::vector<int>& grid,
    const std::vector<int>& coord, double elem_bytes) {
  const std::size_t d = global_dims.size();
  RAHOOI_REQUIRE(ranks.size() == d && grid.size() == d && coord.size() == d,
                 "predict_tree_memo_peak_bytes: dims/ranks/grid/coord must "
                 "agree in order");
  RAHOOI_REQUIRE(!tree.nodes.empty() && tree.nodes[0].modes.size() == d,
                 "predict_tree_memo_peak_bytes: tree order differs from "
                 "the dims");
  for (std::size_t j = 0; j < d; ++j) {
    RAHOOI_REQUIRE(grid[j] >= 1 && coord[j] >= 0 && coord[j] < grid[j],
                   "predict_tree_memo_peak_bytes: bad grid coordinate");
  }
  double peak = 0.0;
  walk_memo(tree, 0, global_dims, ranks, grid, coord, elem_bytes, 0.0, &peak);
  return peak;
}

double predict_sketch_apply_flops(const std::vector<std::int64_t>& extents,
                                  std::int64_t s) {
  RAHOOI_REQUIRE(s >= 1, "predict_sketch_apply_flops: need >= 1 column");
  double vol = 1.0;
  for (const std::int64_t e : extents) vol *= static_cast<double>(e);
  return 2.0 * static_cast<double>(s) * vol;
}

double predict_sketch_llsv_words(double n, double s, double p) {
  RAHOOI_REQUIRE(n >= 1 && s >= 1 && p >= 1,
                 "predict_sketch_llsv_words: degenerate arguments");
  return 2.0 * n * s * (p - 1.0) / p;
}

core::SvdMethod pick_llsv_backend(const Problem& prob,
                                  std::int64_t oversample,
                                  const MachineRates& m) {
  RAHOOI_REQUIRE(prob.d >= 1 && prob.n >= 1 && prob.r >= 1 && oversample >= 1,
                 "pick_llsv_backend: degenerate problem");
  const double d = prob.d;
  const double n = prob.n;
  const double r = prob.r;
  const double p = std::max(1.0, prob.p());
  const double fibers = std::pow(n, d - 1);  // K = n^(d-1)
  const double s = std::min(n, r + static_cast<double>(oversample));
  const double beta = m.word_bytes / m.bytes_per_sec;

  // Per-mode modeled seconds of each family (see header for the formulas).
  const double gram = n * n * fibers / p / m.flops_per_sec +
                      la::sym_evd_flops(n, r) / m.seq_flops_per_sec +
                      2.0 * n * n * (p - 1.0) / p * beta;
  const double sketch = 2.0 * fibers * s * n / p / m.flops_per_sec +
                        4.0 * n * s * s / m.seq_flops_per_sec +
                        predict_sketch_llsv_words(n, s, p) * beta;
  const double si = 4.0 * n * std::pow(r, d) / p / m.flops_per_sec +
                    4.0 * n * r * r / m.seq_flops_per_sec +
                    2.0 * n * r * (p - 1.0) / p * beta;
  double best_time = gram;
  core::SvdMethod best = core::SvdMethod::gram_evd;
  if (sketch < best_time) {
    best_time = sketch;
    best = core::SvdMethod::gaussian_sketch;
  }
  if (si < best_time) best = core::SvdMethod::subspace_iteration;
  return best;
}

std::vector<int> best_grid(Algorithm a, int d, double n, double r, int iters,
                           int p, const MachineRates& m) {
  double best_time = std::numeric_limits<double>::infinity();
  std::vector<int> best;
  for (const auto& grid : grid_factorizations(p, d)) {
    Problem prob{d, n, r, iters, grid};
    const double t = modeled_seconds(predict(a, prob), m);
    if (t < best_time) {
      best_time = t;
      best = grid;
    }
  }
  return best;
}

}  // namespace rahooi::model
