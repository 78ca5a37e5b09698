#pragma once
// Leading-order cost formulas from the paper's Tables 1 (flops) and 2
// (communicated words), and an alpha-beta machine model that converts them
// to modeled runtimes.
//
// Role in the reproduction: the paper's strong-scaling experiments ran on
// up to 8192 Perlmutter cores. This environment has one core, so the
// benches (a) measure true flop/byte counters from instrumented runs at
// small P to validate these formulas (bench_table1/bench_table2), and then
// (b) evaluate the formulas with machine rates calibrated on this CPU to
// model the paper-scale scaling curves (bench_fig2/3). The scaling *shape*
// conclusions (sequential-EVD plateau, HOSI-DT's advantage) are properties
// of the formulas, which are themselves validated against measurement.
//
// All formulas assume the paper's simplified cubical setting: X is n^d,
// the core is r^d, and the grid is P = P_1 x ... x P_d.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dimension_tree.hpp"
#include "core/options.hpp"

namespace rahooi::model {

enum class Algorithm { sthosvd, hooi, hooi_dt, hosi, hosi_dt };

const char* algorithm_name(Algorithm a);

/// Parses "STHOSVD", "HOOI", "HOOI-DT", "HOSI", "HOSI-DT" (case-sensitive).
Algorithm algorithm_from_name(const std::string& name);

struct Problem {
  int d = 3;        ///< tensor order
  double n = 0;     ///< mode dimension
  double r = 0;     ///< Tucker rank per mode
  int iters = 2;    ///< HOOI iterations (ell); ignored for STHOSVD
  std::vector<int> grid;  ///< processor grid (P_1 ... P_d)

  double p() const;  ///< total processor count
};

/// Per-phase flop and word counts (per the paper's accounting: LLSV words
/// include the Gram/contraction collectives; TTM words the reduce-scatter).
struct CostBreakdown {
  // Flops (Table 1). "Sequential" phases (EVD, QR) are replicated per rank
  // and do not shrink with P.
  double ttm_flops = 0;
  double gram_flops = 0;
  double evd_flops = 0;           ///< sequential
  double qr_flops = 0;            ///< sequential
  double contraction_flops = 0;
  double core_analysis_flops = 0; ///< sequential

  // Words (Table 2), per rank along the critical path.
  double ttm_words = 0;
  double llsv_words = 0;
  double core_analysis_words = 0;

  /// Per-rank local-memory traffic (elements streamed through DRAM) of the
  /// tensor-sized kernel passes — the roofline extension (see
  /// modeled_seconds_roofline). Leading order: one read of the local tensor
  /// block per Gram pass and per leading TTM.
  double mem_elements = 0;

  double parallel_flops() const {
    return ttm_flops + gram_flops + contraction_flops;
  }
  double sequential_flops() const {
    return evd_flops + qr_flops + core_analysis_flops;
  }
  double total_flops() const {
    return parallel_flops() + sequential_flops();
  }
  double total_words() const {
    return ttm_words + llsv_words + core_analysis_words;
  }
};

/// Leading-order cost of one algorithm on a problem (Tables 1 and 2).
CostBreakdown predict(Algorithm a, const Problem& prob);

/// Machine rates for the alpha-beta runtime model.
struct MachineRates {
  double flops_per_sec = 2e9;    ///< local kernel throughput (calibrated)
  double seq_flops_per_sec = 2e9; ///< sequential EVD/QR throughput
  double word_bytes = 4;          ///< element size (4 = single precision)
  double bytes_per_sec = 2.4e10;  ///< per-rank network injection bandwidth
  double latency_sec = 2e-6;      ///< per-collective latency (unused terms
                                  ///< are lower order; kept for ablations)

  // Roofline extension (paper §5: with small ranks the local kernels run
  // below peak and are limited by memory bandwidth, which saturates when
  // all cores of a node are used). Defaults approximate a Perlmutter CPU
  // node: 512 GB/s nominal DRAM bandwidth across 128 cores.
  double core_mem_bytes_per_sec = 2.0e10;  ///< one rank alone on a node
  double node_mem_bytes_per_sec = 4.0e11;  ///< aggregate per node
  int cores_per_node = 128;
};

/// T = parallel_flops / rate + sequential_flops / seq_rate + words * beta.
/// `parallel_flops` in the breakdown are already per-rank (divided by P in
/// predict()), so no further division happens here.
double modeled_seconds(const CostBreakdown& c, const MachineRates& m);

/// Roofline variant: the local (parallel) kernel time is the max of the
/// compute time and the memory-streaming time at the per-rank bandwidth
/// implied by node sharing — min(core bw, node bw / min(P, cores/node)).
/// This is the paper's §5 explanation for why the pure flop analysis
/// overstates HOOI's advantage when ranks are small: local GEMMs with inner
/// dimension r run below peak. Sequential and network terms are unchanged.
double modeled_seconds_roofline(const CostBreakdown& c,
                                const MachineRates& m, int p);

/// Best (lowest modeled time) grid for an algorithm at a given P: tries all
/// factorizations of P into d dimensions, as the paper reports the fastest
/// grid per algorithm.
std::vector<int> best_grid(Algorithm a, int d, double n, double r, int iters,
                           int p, const MachineRates& m);

/// All factorizations of p into d ordered positive factors.
std::vector<std::vector<int>> grid_factorizations(int p, int d);

// ---------------------------------------------------------------------------
// Sketched-LLSV predictions (dist/sketch.hpp, core/llsv.hpp)
// ---------------------------------------------------------------------------

/// Exact flop count of one distributed sketch apply Y = X_(mode) Omega with
/// `s` columns, summed over all ranks: 2 s prod(extents) — one multiply-add
/// per tensor entry per sketch column, grid-independent (the kernel's
/// gemm/gemm_batch_tn accounting reports exactly this split across ranks).
/// The flop-pinning test compares this against measured Phase::gram deltas.
double predict_sketch_apply_flops(const std::vector<std::int64_t>& extents,
                                  std::int64_t s);

/// Words one rank sends in the sketched LLSV's allreduce of the replicated
/// (n x s) sketch: 2 n s (P-1)/P (Rabenseifner), vs 2 n^2 (P-1)/P for the
/// Gram path — the sketch shrinks the LLSV collective by a factor n/s.
double predict_sketch_llsv_words(double n, double s, double p);

/// Picks the cheapest LLSV backend for one mode of a warm-started HOOI
/// sweep of a cubical problem by modeled per-mode time
/// (K = n^(d-1) fibers):
///  * gram_evd: n^2 K / P flops + 9 n^3 sequential EVD + 2 n^2 (P-1)/P words
///  * subspace_iteration: ~4 n r^d / P flops (TTM + contraction on the
///    memoized iterate) + ~4 n r^2 sequential QRCP + 2 n r (P-1)/P words
///  * gaussian_sketch: 2 K s n / P flops (s = r + oversample) + ~4 n s^2
///    sequential QRCP/SVD + 2 n s (P-1)/P words. It stands for both Omega
///    families — their leading-order cost is identical (the KRP variant
///    only cheapens Omega *generation*, a lower-order term).
core::SvdMethod pick_llsv_backend(const Problem& prob,
                                  std::int64_t oversample,
                                  const MachineRates& m = {});

/// Predicted peak of a sweep's memo cache (the dt_memo metrics gauge,
/// docs/OBSERVABILITY.md) for the rank at `coord` of `grid`, in bytes: an
/// exact walk of the live set hooi_sweep holds while it walks `tree` (the
/// dimension tree or the direct sweep's star, core/dimension_tree.hpp).
/// Each chain step briefly holds the previous chain node and the freshly
/// allocated one; a chain's final node stays live while its child is
/// visited. The root tensor itself is charged to dist_tensor, not dt_memo,
/// so it is not counted. Non-cubical dims/ranks/grids are supported — this
/// is a per-rank bound on measured gauges, not a Table 1 formula.
double predict_tree_memo_peak_bytes(const core::DimensionTree& tree,
                                    const std::vector<std::int64_t>& global_dims,
                                    const std::vector<std::int64_t>& ranks,
                                    const std::vector<int>& grid,
                                    const std::vector<int>& coord,
                                    double elem_bytes);

}  // namespace rahooi::model
