#pragma once
// The loop shell shared by the solvers (hooi, rank_adaptive_hooi, sthosvd):
// the cooperative yield point, the "sweep" fault site, the telemetry
// baselines behind each metrics::Event's deltas, the checkpoint-restore
// checks, and the SolveReport's closing fields. Internal to src/core: the
// public surface stays the solver entry points.

#include <atomic>
#include <cstdint>
#include <string>

#include "comm/comm.hpp"
#include "common/contracts.hpp"
#include "core/checkpoint.hpp"
#include "core/solve_report.hpp"
#include "dist/dist_tensor.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "obs/flight_recorder.hpp"
#include "prof/trace.hpp"

namespace rahooi::core::detail {

class SolverShell {
 public:
  /// `solver` labels the telemetry events and the PreemptedError message
  /// ("hooi", "ra", "sthosvd"). A null `yield_flag` costs nothing.
  SolverShell(const comm::Comm& world, const char* solver,
              const std::atomic<int>* yield_flag = nullptr)
      : world_(world),
        solver_(solver),
        yield_flag_(yield_flag),
        reg_(metrics::registry()),
        stats_(stats::current()),
        retries0_(reg_ ? reg_->counter(metrics::Counter::fault_retries) : 0) {}

  /// Opens one sweep/iteration boundary after `done` completed `unit`s:
  /// the cooperative yield point (rank 0 reads the flag and broadcasts the
  /// verdict, so every rank takes the same exit — recording a flight
  /// `yield` and throwing PreemptedError — while the previous boundary's
  /// checkpoint is on disk and no collective is torn mid-post), then the
  /// solver-level fault site ("kill:sweep@R#N" kills rank R at the start of
  /// its Nth step), then the step's telemetry baselines.
  void begin_step(const char* unit, int done, std::uint64_t fallbacks) {
    if (yield_flag_ != nullptr) {
      prof::TraceSpan span("yield_check");
      int yield = (world_.rank() == 0 &&
                   yield_flag_->load(std::memory_order_acquire) != 0)
                      ? 1
                      : 0;
      world_.bcast(&yield, 1, 0);
      if (yield != 0) {
        if (obs::FlightRecorder* fr = obs::flight_recorder()) {
          fr->record(obs::RecordKind::yield, unit, double(done));
        }
        throw PreemptedError(std::string(solver_) + " yielded after " +
                             unit + " " + std::to_string(done));
      }
    }
    fault::inject_point("sweep", world_.rank());
    mark(fallbacks);
  }

  /// Takes the step's telemetry baselines (only when metrics are on).
  void mark(std::uint64_t fallbacks) {
    if (reg_ == nullptr) return;
    if (stats_ != nullptr) {
      flops0_ = stats_->total_flops();
      bytes0_ = stats_->total_comm_bytes();
    }
    retries_step0_ = reg_->counter(metrics::Counter::fault_retries);
    fallbacks0_ = fallbacks;
    t0_ = stats::now();
  }

  /// Seconds since the step's baselines.
  double step_seconds() const { return stats::now() - t0_; }

  /// Stamps `ev` with this solver's label and the flop, byte, retry and
  /// fallback deltas of the step, then logs it; an event with a step index
  /// (ev.sweep > 0) also counts one Counter::solver_sweeps. The caller
  /// sets ev.seconds. No-op when metrics are off.
  void emit(metrics::Event ev, std::uint64_t fallbacks) const {
    if (reg_ == nullptr) return;
    if (ev.sweep > 0) reg_->count(metrics::Counter::solver_sweeps);
    ev.solver = solver_;
    if (stats_ != nullptr) {
      ev.flops = stats_->total_flops() - flops0_;
      ev.comm_bytes = stats_->total_comm_bytes() - bytes0_;
    }
    ev.retries =
        reg_->counter(metrics::Counter::fault_retries) - retries_step0_;
    ev.fallbacks = fallbacks - fallbacks0_;
    ev.llsv_fallback = ev.fallbacks > 0;
    reg_->add_event(std::move(ev));
  }

  /// Closes the report: retries over the whole solve, the final metrics
  /// snapshot, and the trace id the solve ran under.
  void finish(SolveReport& report) const {
    if (reg_ != nullptr) {
      report.retries =
          reg_->counter(metrics::Counter::fault_retries) - retries0_;
      report.metrics_snapshot = metrics::snapshot(*reg_);
    }
    report.trace_id = obs::trace_id();
  }

 private:
  const comm::Comm& world_;
  const char* solver_;
  const std::atomic<int>* yield_flag_;
  metrics::Registry* reg_;
  const Stats* stats_;
  std::uint64_t retries0_;
  // Baselines of the current step.
  double flops0_ = 0.0, bytes0_ = 0.0, t0_ = 0.0;
  std::uint64_t retries_step0_ = 0, fallbacks0_ = 0;
};

/// Loads the checkpoint a solve resumes from and checks it belongs to this
/// solve: the producing solver, the seed, the tensor's order and dims, and
/// at least one step left before `max_iters`. Every rank reads the
/// (replicated) file itself, so a corrupt checkpoint fails identically
/// everywhere and no broadcast is needed.
template <typename T>
SweepCheckpoint<T> load_resume_checkpoint(const std::string& path,
                                          CheckpointKind kind,
                                          std::uint64_t seed,
                                          const dist::DistTensor<T>& x,
                                          int max_iters) {
  SweepCheckpoint<T> ck = load_checkpoint<T>(path);
  RAHOOI_REQUIRE(ck.kind == kind,
                 kind == CheckpointKind::hooi
                     ? "restore: checkpoint was written by rank_adaptive_hooi"
                     : "restore: checkpoint was written by fixed-rank hooi()");
  RAHOOI_REQUIRE(ck.seed == seed,
                 "restore: checkpoint seed differs from options.seed");
  RAHOOI_REQUIRE(static_cast<int>(ck.factors.size()) == x.ndims(),
                 "restore: checkpoint order differs from the tensor");
  for (int j = 0; j < x.ndims(); ++j) {
    RAHOOI_REQUIRE(ck.factors[j].rows() == x.global_dim(j),
                   "restore: checkpoint dims differ from the tensor");
  }
  RAHOOI_REQUIRE(ck.sweeps_done < max_iters,
                 "restore: checkpointed solve already ran max_iters steps");
  return ck;
}

}  // namespace rahooi::core::detail
