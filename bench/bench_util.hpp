#pragma once
// Shared harness for the figure/table reproduction benches: runs an
// algorithm under the simulated message-passing runtime, collects wall time
// and the per-rank instrumentation counters, and provides the variant
// configuration table used across benches.

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/csv.hpp"
#include "common/stopwatch.hpp"
#include "core/hooi.hpp"
#include "core/rank_adaptive.hpp"
#include "metrics/metrics.hpp"
#include "model/cost_model.hpp"
#include "prof/report.hpp"

namespace rahooi::bench {

using la::idx_t;

/// Wall time plus rank-0 counters for one distributed run. Counters are
/// taken from rank 0; all ranks perform (near-)identical work under the
/// balanced block distribution used here.
struct RunResult {
  double seconds = 0.0;
  Stats stats;
  /// Per-rank span traces of the timed region (empty unless the run was
  /// profiled). The breakdown benches read their phase columns from here.
  std::vector<prof::Recorder> traces;
  /// Per-rank metrics registries of the timed region (empty unless the run
  /// was metered). The fig 4/6/8 progression benches read the solver
  /// telemetry event log from rank 0's registry (docs/OBSERVABILITY.md).
  std::vector<metrics::Registry> registries;

  /// Seconds attributed to `ph` on rank 0, from the profiler trace when the
  /// run was profiled (aggregated span self-times; see
  /// prof::Recorder::phase_seconds) and from the Stats phase timers
  /// otherwise. Both attributions are innermost-wins, so summing over all
  /// phases recovers the wall time of the run's root span.
  double phase_seconds(Phase ph) const {
    return traces.empty()
               ? stats.seconds[static_cast<int>(ph)]
               : traces[0].phase_seconds()[static_cast<int>(ph)];
  }
};

/// Runs a setup + timed-work pair on `p` rank-threads. `body(world)`
/// performs untimed setup (grid construction, dataset generation) and
/// returns the closure whose execution is timed between barriers. All ranks
/// must run the identical SPMD region. With `profile` set, a prof::Recorder
/// is installed on each rank around the timed closure only (setup is not
/// traced) and the traces are returned in RunResult::traces. With `metrics`
/// set, a metrics::Registry is likewise installed around the timed closure
/// and the per-rank registries are returned in RunResult::registries.
inline RunResult timed_run(
    int p, const std::function<std::function<void()>(comm::Comm&)>& body,
    bool profile = false, bool metrics = false) {
  RunResult out;
  std::vector<Stats> per_rank;
  std::vector<prof::Recorder> traces(profile ? p : 0);
  std::vector<rahooi::metrics::Registry> registries(metrics ? p : 0);
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        const std::function<void()> work = body(world);
        world.barrier();
        const int r = world.rank();
        if (profile) traces[r].set_rank(r);
        if (metrics) registries[r].set_rank(r);
        const ScopedRankField<&RankContext::recorder> rec(
            profile ? &traces[r] : nullptr);
        const ScopedRankField<&RankContext::registry> reg(
            metrics ? &registries[r] : nullptr);
        Stopwatch clock;
        work();
        world.barrier();
        if (world.rank() == 0) out.seconds = clock.elapsed();
      },
      &per_rank);
  out.stats = per_rank[0];
  out.traces = std::move(traces);
  out.registries = std::move(registries);
  return out;
}

/// Appends one per-phase seconds column for each phase in `phases` — the
/// breakdown-table boilerplate shared by the Fig. 3 and Fig. 5/7/9 benches.
/// Column order must match the header order declared by the caller.
inline void add_phase_columns(CsvTable& table, const RunResult& res,
                              std::initializer_list<Phase> phases) {
  for (const Phase ph : phases) table.add(res.phase_seconds(ph));
}

/// Sum of every phase column; with innermost-wins attribution this equals
/// the wall time of the run's root span, so the breakdown benches can check
/// their columns really account for the measured total.
inline double phase_seconds_total(const RunResult& res) {
  double sum = 0.0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    sum += res.phase_seconds(static_cast<Phase>(i));
  }
  return sum;
}

/// The five algorithms of the paper's evaluation with their HooiOptions.
struct Variant {
  model::Algorithm algo;
  core::HooiOptions hooi;  ///< meaningful for the four HOOI variants
};

inline std::vector<Variant> paper_variants(int iters = 2) {
  std::vector<Variant> out;
  out.push_back({model::Algorithm::sthosvd, {}});
  for (const auto algo : {model::Algorithm::hooi, model::Algorithm::hooi_dt,
                          model::Algorithm::hosi, model::Algorithm::hosi_dt}) {
    core::HooiOptions o;
    o.svd_method = (algo == model::Algorithm::hosi ||
                    algo == model::Algorithm::hosi_dt)
                       ? core::SvdMethod::subspace_iteration
                       : core::SvdMethod::gram_evd;
    o.use_dimension_tree = algo == model::Algorithm::hooi_dt ||
                           algo == model::Algorithm::hosi_dt;
    o.max_iters = iters;
    out.push_back({algo, o});
  }
  return out;
}

inline std::string dims_to_string(const std::vector<idx_t>& dims) {
  std::string s;
  for (std::size_t j = 0; j < dims.size(); ++j) {
    if (j) s += 'x';
    s += std::to_string(dims[j]);
  }
  return s;
}

inline std::string grid_to_string(const std::vector<int>& grid) {
  std::string s;
  for (std::size_t j = 0; j < grid.size(); ++j) {
    if (j) s += 'x';
    s += std::to_string(grid[j]);
  }
  return s;
}

/// Emits the table to stdout (pretty) and to <name>.csv in the working
/// directory.
inline void emit(const CsvTable& table, const std::string& name) {
  std::printf("%s\n", table.to_pretty().c_str());
  const std::string path = name + ".csv";
  table.write(path);
  std::printf("[csv written to %s]\n\n", path.c_str());
}

}  // namespace rahooi::bench
