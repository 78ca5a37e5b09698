#pragma once
// Entry point of the thread-based message-passing runtime: spawns P rank
// threads, each receiving a world communicator, and joins them — the
// equivalent of mpirun for this library's simulated distributed runs.
//
// Fault tolerance: a rank thread exiting via exception raises the world's
// sticky abort flag (comm/monitor.hpp), which wakes every peer blocked in a
// collective with AbortedError. run() therefore always terminates — joins
// all threads, classifies the failures, and rethrows the root cause.

#include <functional>

#include "comm/comm.hpp"

namespace rahooi::fault {
class Plan;
}  // namespace rahooi::fault

namespace rahooi::comm {

/// Knobs for a fault-tolerant Runtime::run.
struct RunOptions {
  /// Collective hang watchdog deadline in seconds. < 0 (default): read
  /// RAHOOI_COLLECTIVE_TIMEOUT_MS from the environment (unset/empty/0
  /// disables). 0 disables explicitly; > 0 arms the watchdog.
  double collective_timeout_s = -1.0;

  /// When non-null, receives one entry per failed rank after an aborted run
  /// (the entry whose error run() rethrows has root_cause = true).
  std::vector<RankFailure>* failures = nullptr;

  /// Collective-schedule divergence sanitizer (comm/schedule_check.hpp).
  /// < 0 (default): read RAHOOI_COMM_CHECK from the environment (unset,
  /// empty, or "0" falls back to the build default — ON when the library
  /// was configured with -DRAHOOI_COMM_CHECK=ON, else OFF). 0 disables
  /// explicitly; > 0 enables.
  int comm_check = -1;

  /// When non-null, enables the metrics layer (docs/OBSERVABILITY.md):
  /// each rank thread gets a metrics::Registry installed (rank-labelled)
  /// and the vector receives the per-rank registries after the join —
  /// the `hooi_driver --metrics-out` entry point. Null (default) keeps
  /// metrics off: every instrument site then costs one thread-local load.
  std::vector<metrics::Registry>* rank_metrics = nullptr;

  /// When non-null, a fault plan scoped to *this world*: each rank thread
  /// gets it in its RankContext, shadowing any process-wide ScopedPlan, so
  /// concurrent worlds with different plans never cross-inject (the serve
  /// scheduler's per-job isolation, DESIGN.md §13). The Plan handle is
  /// shared across the rank threads — rule hit counters span the world and
  /// persist across runs reusing the same Plan (retry attempts see prior
  /// attempts' counts). The pointee must outlive run().
  const fault::Plan* fault_plan = nullptr;

  /// Trace context for this world (docs/OBSERVABILITY.md). Nonzero: every
  /// rank thread's RankContext carries trace_id, so each metrics event,
  /// prof recorder, solver report, and flight-recorder timeline produced
  /// inside carries the id — the serve scheduler mints
  /// one per job and joins serve-level and rank-level telemetry with it.
  /// 0 (default): no trace context.
  std::uint64_t trace_id = 0;
};

class Runtime {
 public:
  /// Runs `fn(world)` on `p` rank-threads and joins them all. If any rank
  /// throws, the world is aborted (peers blocked in collectives wake with
  /// AbortedError), every thread is joined, and the *root cause* is
  /// rethrown: the first genuine failure, not a secondary AbortedError. A
  /// per-rank failure report goes to stderr when more than one rank failed.
  /// Each rank thread gets its own Stats object installed; `rank_stats`
  /// (if non-null) receives the per-rank records. When `rank_traces` is
  /// non-null, each rank thread additionally gets a prof::Recorder
  /// installed (rank-labelled) and the vector receives the per-rank traces
  /// — the full-run profiling entry point used by `hooi_driver --profile`.
  static void run(int p, const std::function<void(Comm&)>& fn,
                  std::vector<Stats>* rank_stats = nullptr,
                  std::vector<prof::Recorder>* rank_traces = nullptr,
                  const RunOptions& options = {});
};

}  // namespace rahooi::comm
