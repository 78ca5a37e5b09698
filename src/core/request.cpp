#include "core/request.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "data/science.hpp"
#include "data/synthetic.hpp"
#include "io/tensor_io.hpp"
#include "model/cost_model.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

namespace {

/// Rejects every key io::param_key_table does not list.
void check_keys(const io::ParamFile& params) {
  const auto& table = io::param_key_table();
  for (const std::string& key : params.keys()) {
    const auto same = [&](const io::ParamKey& k) { return key == k.key; };
    if (std::none_of(table.begin(), table.end(), same)) {
      throw precondition_error("unknown parameter key '" + key + "'");
    }
  }
}

/// The spec's input tensor: "Input file" when given, else the "Dataset"
/// generator.
template <typename T>
dist::DistTensor<T> make_input(const SolveSpec& spec,
                               const dist::ProcessorGrid& grid) {
  const auto& dims = spec.dims;
  const std::uint64_t seed = spec.ra.hooi.seed;
  if (!spec.input_file.empty()) {
    // Each rank reads only its block (parallel-IO style).
    return io::read_dist_tensor<T>(grid, dims, spec.input_file);
  }
  if (spec.dataset == "synthetic") {
    return data::synthetic_tucker<T>(grid, dims, spec.construction,
                                     spec.noise, seed);
  }
  if (spec.dataset == "miranda") {
    RAHOOI_REQUIRE(dims.size() == 3, "miranda dataset is 3-way");
    return data::miranda_like<T>(grid, dims[0], seed);
  }
  if (spec.dataset == "hcci") {
    RAHOOI_REQUIRE(dims.size() == 4, "hcci dataset is 4-way");
    return data::hcci_like<T>(grid, dims[0], dims[1], dims[2], dims[3],
                              seed);
  }
  if (spec.dataset == "sp") {
    RAHOOI_REQUIRE(dims.size() == 5, "sp dataset is 5-way");
    return data::sp_like<T>(grid, dims[0], dims[1], dims[2], dims[3], dims[4],
                            seed);
  }
  throw precondition_error("unknown Dataset: " + spec.dataset);
}

}  // namespace

SolveSpec parse_solve_spec(const io::ParamFile& params, Driver driver) {
  check_keys(params);
  SolveSpec spec;
  spec.dims = params.get_dims("Global dims");
  RAHOOI_REQUIRE(!spec.dims.empty(), "'Global dims' is required");

  // Ranks rule, the same on every surface: "Ranks" is the artifact's
  // STHOSVD spelling of "Decomposition Ranks", so a file gives one or the
  // other; the synthetic input's true ranks default to them.
  RAHOOI_REQUIRE(!(params.has("Ranks") && params.has("Decomposition Ranks")),
                 "give 'Decomposition Ranks' or its alias 'Ranks', not both");
  spec.decomposition = params.get_dims(
      params.has("Ranks") ? "Ranks" : "Decomposition Ranks");
  spec.construction = params.get_dims("Construction Ranks");
  if (spec.construction.empty()) spec.construction = spec.decomposition;

  spec.single = params.get_bool("Single precision", spec.single);
  spec.dataset = params.get_string("Dataset", spec.dataset);
  spec.input_file = params.get_string("Input file", spec.input_file);
  spec.noise = params.get_double("Noise", spec.noise);

  HooiOptions& h = spec.ra.hooi;
  h = HooiOptions{};  // the fixed-rank defaults, not RA's HOSI-DT
  h.seed = static_cast<std::uint64_t>(
      params.get_int("Seed", static_cast<long long>(h.seed)));
  h.use_dimension_tree =
      params.get_bool("Dimension Tree Memoization", h.use_dimension_tree);
  h.max_iters =
      static_cast<int>(params.get_int("HOOI max iters", h.max_iters));
  h.sketch.oversample =
      params.get_int("Sketch Oversample", h.sketch.oversample);
  h.sketch.min_cols = params.get_int("Sketch Min Cols", h.sketch.min_cols);
  h.sketch.growth = params.get_double("Sketch Growth", h.sketch.growth);
  h.sketch.safety = params.get_double("Sketch Safety", h.sketch.safety);
  h.sketch.deterministic =
      params.get_bool("Sketch Deterministic", h.sketch.deterministic);
  const long long svd_method =
      params.get_int("SVD Method", static_cast<long long>(h.svd_method));
  RAHOOI_REQUIRE(svd_method >= -1 && svd_method <= 4,
                 "'SVD Method' must be in [0, 4] or -1 (auto)");
  spec.auto_llsv = svd_method == -1;
  if (!spec.auto_llsv) h.svd_method = static_cast<SvdMethod>(svd_method);
  h.checkpoint_path = params.get_string("Checkpoint file", h.checkpoint_path);

  spec.ra.tolerance = params.get_double("HOOI-Adapt Threshold", 0.0);
  spec.ra.max_iters = h.max_iters;
  spec.ra.growth_factor =
      params.get_double("Rank growth factor", spec.ra.growth_factor);
  const std::string init = params.get_string("RA Init", "random");
  RAHOOI_REQUIRE(init == "sketched" || init == "random",
                 "'RA Init' must be 'sketched' or 'random'");
  spec.ra.init = init == "random" ? RaInit::random_factors
                                  : RaInit::sketched_sthosvd;

  spec.sv_threshold = params.get_double("SV Threshold", spec.sv_threshold);
  spec.fault_plan = params.get_string("Fault plan", spec.fault_plan);
  spec.fault_seed = static_cast<std::uint64_t>(
      params.get_int("Fault seed", static_cast<long long>(spec.fault_seed)));
  spec.timeout_ms = params.get_double("Collective timeout ms", spec.timeout_ms);

  if (driver == Driver::sthosvd) {
    RAHOOI_REQUIRE(params.get_bool("Perform STHOSVD", true),
                   "'Perform STHOSVD' is false; nothing to do");
    spec.solver = Solver::sthosvd;
  } else {
    spec.solver =
        spec.ra.tolerance > 0.0 ? Solver::rank_adaptive : Solver::hooi;
  }
  const bool eps_sthosvd =
      spec.solver == Solver::sthosvd && spec.sv_threshold > 0.0;
  RAHOOI_REQUIRE(!spec.decomposition.empty() || eps_sthosvd,
                 spec.solver == Solver::sthosvd
                     ? "either 'SV Threshold' > 0 or 'Decomposition Ranks' "
                       "(alias 'Ranks') must be given"
                     : "'Decomposition Ranks' (alias 'Ranks') is required");

  const std::vector<int> grid = params.get_ints("Processor grid dims");
  if (grid.empty()) return spec;  // serve plans an elastic grid
  RAHOOI_REQUIRE(grid.size() == spec.dims.size(),
                 "'Processor grid dims' order must match 'Global dims'");
  RAHOOI_REQUIRE(std::all_of(grid.begin(), grid.end(),
                             [](int g) { return g >= 1; }),
                 "'Processor grid dims' must be positive");
  set_grid(spec, grid);
  return spec;
}

void set_grid(SolveSpec& spec, std::vector<int> grid) {
  spec.grid = std::move(grid);
  if (!spec.auto_llsv) return;
  // The cost model picks the cheapest LLSV backend for this problem shape;
  // HOOI sweeps have a warm start, so subspace iteration is eligible.
  model::Problem prob;
  prob.d = static_cast<int>(spec.dims.size());
  for (const auto v : spec.dims) prob.n = std::max(prob.n, double(v));
  for (const auto v : spec.decomposition) prob.r = std::max(prob.r, double(v));
  prob.iters = spec.ra.hooi.max_iters;
  prob.grid = spec.grid;
  spec.ra.hooi.svd_method =
      model::pick_llsv_backend(prob, spec.ra.hooi.sketch.oversample);
}

double collective_timeout_s(const SolveSpec& spec, double floor_s) {
  const double s = std::max(spec.timeout_ms / 1000.0, floor_s);
  return s > 0.0 ? s : -1.0;
}

template <typename T>
SolveOutput<T> solve(const SolveSpec& spec, comm::Comm& world) {
  const dist::ProcessorGrid grid(world, spec.grid);
  const dist::DistTensor<T> x = make_input<T>(spec, grid);
  {
    // Every rank holds its input block before the solve clock starts.
    prof::TraceSpan span("input_ready");
    world.barrier();
  }
  const Stopwatch clock;
  SolveOutput<T> out;
  tensor::TuckerTensor<T> tucker;
  if (spec.solver == Solver::rank_adaptive) {
    RankAdaptiveResult<T> res =
        rank_adaptive_hooi(x, spec.decomposition, spec.ra);
    tucker = std::move(res.tucker);
    out.rel_error = res.rel_error;
    out.compressed_size = res.compressed_size;
    out.report = std::move(res.report);
    out.iterations = std::move(res.iterations);
  } else {
    TuckerResult<T> res;
    if (spec.solver == Solver::hooi) {
      HooiResult<T> h = hooi(x, spec.decomposition, spec.ra.hooi);
      res = std::move(h.decomposition);
      out.report = std::move(h.report);
      out.error_history = std::move(h.error_history);
    } else if (spec.sv_threshold > 0.0) {
      res = sthosvd(x, spec.sv_threshold);
    } else {
      res = sthosvd_fixed_rank(x, spec.decomposition);
    }
    out.rel_error = res.relative_error();
    out.compressed_size = res.compressed_size();
    tucker = res.replicated();  // collective
  }
  out.seconds = clock.elapsed();
  if (world.rank() == 0) out.tucker = std::move(tucker);
  return out;
}

template SolveOutput<float> solve<float>(const SolveSpec&, comm::Comm&);
template SolveOutput<double> solve<double>(const SolveSpec&, comm::Comm&);

}  // namespace rahooi::core
