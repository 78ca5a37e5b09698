#pragma once
// The body the artifact-style drivers (sthosvd_driver, hooi_driver) share:
// parameter-file loading, the core::SolveSpec request path
// (core/request.hpp), one world with the spec's fault plan and watchdog and
// the --profile / --metrics-out sinks, and the result report. Each driver
// is its usage text plus one driver_main call.

#include <cstdio>
#include <optional>
#include <string>

#include "comm/runtime.hpp"
#include "core/request.hpp"
#include "example_util.hpp"
#include "fault/fault.hpp"
#include "io/param_file.hpp"
#include "io/tensor_io.hpp"
#include "metrics/report.hpp"
#include "prof/report.hpp"

namespace rahooi::examples {

inline bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

/// Value of a `--name <value>` argument, or `fallback` when absent.
inline std::string arg_value(int argc, char** argv, const std::string& name,
                             const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return fallback;
}

/// The `--metrics-out` exports shared by the param-file drivers: the flat
/// aggregated `name{labels,stat} -> value` JSON at `path`, rank 0's JSONL
/// solver-telemetry event stream at the sibling path (events_path_for),
/// and a terminal summary of the top metrics (docs/OBSERVABILITY.md).
inline void write_metrics_outputs(
    const std::string& path, const std::vector<metrics::Registry>& regs) {
  metrics::write_metrics_json(path, regs);
  const std::string events_path = metrics::events_path_for(path);
  metrics::write_events_jsonl(events_path, regs.at(0));
  std::printf(
      "metrics: %zu rank registries; flat JSON written to %s, event log "
      "(%zu events) to %s\n",
      regs.size(), path.c_str(), regs.at(0).events().size(),
      events_path.c_str());
  std::printf(
      "top metrics by per-rank max:\n%s\n",
      metrics::aggregate_pretty(metrics::aggregate(regs), 12).c_str());
}

inline void print_timing_breakdown(const Stats& s) {
  std::printf("timing breakdown (rank 0):\n");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (s.seconds[i] <= 0.0 && s.flops[i] <= 0.0) continue;
    std::printf("  %-14s %8.3fs  %10.3f gflop  %8.3f MB sent\n",
                phase_name(static_cast<Phase>(i)), s.seconds[i],
                s.flops[i] / 1e9, s.comm_bytes_by_phase[i] / 1e6);
  }
}

inline std::string solver_label(const core::SolveSpec& spec) {
  if (spec.solver == core::Solver::sthosvd) return "STHOSVD";
  return core::variant_name(spec.ra.hooi) +
         (spec.solver == core::Solver::hooi ? " (fixed rank)"
                                            : " (rank-adaptive)");
}

/// Rank 0's report of one solve: the restore note, the per-sweep or
/// per-iteration history, and the final ranks, error and compression.
template <typename T>
void print_solve(const core::SolveSpec& spec,
                 const core::SolveOutput<T>& out) {
  if (!spec.ra.hooi.restore_path.empty()) {
    std::printf("restored from %s (%zu total steps incl. the checkpointed "
                "ones)\n",
                spec.ra.hooi.restore_path.c_str(),
                out.iterations.size() + out.error_history.size());
  }
  if (out.report.degraded()) {
    std::printf("solve degraded (numerical fallbacks taken):\n%s",
                out.report.to_string().c_str());
  }
  for (std::size_t i = 0; i < out.error_history.size(); ++i) {
    std::printf("iteration %zu: approximation error %.6e\n", i + 1,
                out.error_history[i]);
  }
  for (const auto& it : out.iterations) {
    std::printf("iteration %d: error %.4e after ranks %s -> %s\n", it.index,
                it.rel_error, dims_to_string(it.sweep_ranks).c_str(),
                it.satisfied ? "satisfied" : "grow");
  }
  std::printf("final: ranks %s rel_error %.4e compression %.1fx (%.3fs)\n",
              dims_to_string(out.tucker.ranks()).c_str(), out.rel_error,
              out.tucker.compression_ratio(), out.seconds);
}

/// Runs the spec on a world of its grid's size — with its fault plan and
/// watchdog, and the --profile / --metrics-out sinks — then writes
/// "Output file" and the reports.
template <typename T>
void run_spec(const io::ParamFile& params, const core::SolveSpec& spec,
              bool profile, const std::string& metrics_out) {
  RAHOOI_REQUIRE(!spec.grid.empty(), "'Processor grid dims' is required");
  int p = 1;
  for (const int g : spec.grid) p *= g;

  comm::RunOptions run_opts;
  run_opts.collective_timeout_s = core::collective_timeout_s(spec);
  std::optional<fault::Plan> fault_plan;
  if (!spec.fault_plan.empty()) {
    fault_plan.emplace(fault::Plan::parse(spec.fault_plan, spec.fault_seed));
    run_opts.fault_plan = &*fault_plan;
    std::printf("fault plan installed: %s\n", spec.fault_plan.c_str());
  }
  std::vector<Stats> per_rank;
  std::vector<prof::Recorder> traces;
  std::vector<metrics::Registry> rank_metrics;
  if (!metrics_out.empty()) run_opts.rank_metrics = &rank_metrics;
  std::printf("variant: %s\n", solver_label(spec).c_str());

  const std::string output = params.get_string("Output file", "");
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        const core::SolveOutput<T> out = core::solve<T>(spec, world);
        if (world.rank() != 0) return;
        if (!output.empty()) {
          io::write_tucker(out.tucker, output);
          std::printf("compressed Tucker tensor written to %s\n",
                      output.c_str());
        }
        print_solve(spec, out);
      },
      &per_rank, profile ? &traces : nullptr, run_opts);

  if (params.get_bool("Print timings", false)) {
    print_timing_breakdown(per_rank[0]);
  }
  if (!metrics_out.empty()) write_metrics_outputs(metrics_out, rank_metrics);
  if (profile) {
    const std::string trace_path =
        params.get_string("Trace file", "trace.json");
    prof::write_chrome_trace(trace_path, traces);
    std::size_t events = 0;
    for (const auto& t : traces) events += t.events().size();
    std::printf("profile: %zu spans on %d ranks; Chrome trace written to %s "
                "(open at chrome://tracing or https://ui.perfetto.dev)\n",
                events, p, trace_path.c_str());
    std::printf("top spans by per-rank max inclusive time:\n%s\n",
                prof::aggregate_pretty(prof::aggregate(traces), 12).c_str());
  }
}

/// The whole of a driver's main(): --help lists the parameter keys of
/// `scope`; otherwise the parameter file becomes a spec and runs. Errors
/// print as "error: ..." and exit 1.
inline int driver_main(int argc, char** argv, core::Driver driver,
                       const char* scope, const char* usage) {
  if (has_flag(argc, argv, "--help")) {
    std::printf("%s\nparameter keys (io::param_key_table):\n%s", usage,
                io::param_help(scope).c_str());
    return 0;
  }
  try {
    const std::string path = arg_value(argc, argv, "--parameter-file");
    RAHOOI_REQUIRE(!path.empty(), "usage: driver --parameter-file <file>");
    const io::ParamFile params = io::ParamFile::load(path);
    if (params.get_bool("Print options", false)) {
      std::printf("parsed options:\n%s\n", params.to_string().c_str());
    }
    core::SolveSpec spec = core::parse_solve_spec(params, driver);
    if (has_flag(argc, argv, "--restore")) {
      RAHOOI_REQUIRE(driver == core::Driver::hooi,
                     "--restore resumes hooi_driver solves only");
      RAHOOI_REQUIRE(!spec.ra.hooi.checkpoint_path.empty(),
                     "--restore needs a 'Checkpoint file' parameter naming "
                     "the checkpoint to resume from");
      spec.ra.hooi.restore_path = spec.ra.hooi.checkpoint_path;
    }
    const bool profile = has_flag(argc, argv, "--profile") ||
                         params.get_bool("Profile", false);
    const std::string metrics_out = arg_value(
        argc, argv, "--metrics-out", params.get_string("Metrics file", ""));
    if (spec.single) {
      run_spec<float>(params, spec, profile, metrics_out);
    } else {
      run_spec<double>(params, spec, profile, metrics_out);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace rahooi::examples
