#pragma once
// One solve entry for every parameter-file surface — hooi_driver,
// sthosvd_driver and serve::Scheduler — after the paper artifact's
// TuckerMPI-style parameter files (appendix B.1):
//
//   parse_solve_spec  maps an io::ParamFile to a typed SolveSpec once; it is
//                     the only place parameter keys become solver options;
//   solve             builds the input tensor the spec names and runs its
//                     solver (fixed-rank hooi, rank_adaptive_hooi or
//                     sthosvd) on one rank of a world, returning one result
//                     shape for all three.
//
// An absent key takes its options struct's own default (core/options.hpp),
// which is also the default io::param_key_table renders.

#include <cstdint>
#include <string>
#include <vector>

#include "core/rank_adaptive.hpp"
#include "io/param_file.hpp"

namespace rahooi::core {

/// Which artifact binary a parameter file drives (serve takes hooi's keys).
enum class Driver { hooi, sthosvd };

/// The solver a spec runs: hooi's file runs rank-adaptive HOOI when
/// "HOOI-Adapt Threshold" > 0.
enum class Solver { hooi, rank_adaptive, sthosvd };

struct SolveSpec {
  Solver solver = Solver::hooi;
  std::vector<idx_t> dims;
  std::vector<int> grid;  ///< empty: serve::plan_ranks picks one
  /// True ranks of the synthetic input (default: the decomposition ranks).
  std::vector<idx_t> construction;
  /// Fixed-rank targets, RA starting ranks, or ST-HOSVD truncation ranks
  /// ("Decomposition Ranks", or its alias "Ranks").
  std::vector<idx_t> decomposition;
  bool single = true;
  std::string dataset = "synthetic";
  std::string input_file;  ///< "" = generate the dataset
  double noise = 1e-4;
  /// "SVD Method = -1": set_grid lets the cost model pick
  /// ra.hooi.svd_method for the grid the solve runs on.
  bool auto_llsv = false;
  /// Solver configuration. `.hooi` is the fixed-rank sweep configuration
  /// (RA sweeps use it too) and its seed ("Seed") also seeds the dataset;
  /// `.tolerance` is "HOOI-Adapt Threshold", 0 on a fixed-rank spec.
  RankAdaptiveOptions ra;
  double sv_threshold = 0.0;  ///< ST-HOSVD eps (0 = rank-specified)
  std::string fault_plan;     ///< fault::Plan text ("" = none)
  std::uint64_t fault_seed = 1;
  double timeout_ms = 0.0;  ///< "Collective timeout ms" (0 = not set)

  bool operator==(const SolveSpec&) const = default;
};

/// Parses the request once. Throws precondition_error naming the key for a
/// key io::param_key_table does not know, for "Ranks" given together with
/// "Decomposition Ranks", and for missing or out-of-range values.
SolveSpec parse_solve_spec(const io::ParamFile& params,
                           Driver driver = Driver::hooi);

/// Sets the processor grid and, under "SVD Method = -1", resolves the LLSV
/// backend for it (model::pick_llsv_backend).
void set_grid(SolveSpec& spec, std::vector<int> grid);

/// comm::RunOptions::collective_timeout_s: the larger of "Collective
/// timeout ms" and `floor_s` (a serve pool's deadline), or -1 when neither
/// is set, so RAHOOI_COLLECTIVE_TIMEOUT_MS still applies.
double collective_timeout_s(const SolveSpec& spec, double floor_s = 0.0);

/// Result of solve(), the same shape for all three solvers.
template <typename T>
struct SolveOutput {
  tensor::TuckerTensor<T> tucker;  ///< replicated; held on rank 0 only
  double rel_error = 0.0;
  idx_t compressed_size = 0;
  SolveReport report;
  std::vector<double> error_history;          ///< fixed-rank: per sweep
  std::vector<RaIterationRecord> iterations;  ///< rank-adaptive
  double seconds = 0.0;  ///< this rank's solve time, input excluded
};

/// Runs the spec on this rank of `world` (call inside comm::Runtime::run on
/// a world of the grid's size): builds the grid and input, then solves.
template <typename T>
SolveOutput<T> solve(const SolveSpec& spec, comm::Comm& world);

}  // namespace rahooi::core
