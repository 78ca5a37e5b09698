// Overhead guard for the instrumentation that is off, or always on, in
// production runs (DESIGN.md §10/§11, docs/OBSERVABILITY.md). One leg per
// ctest, selected by the first argument:
//
//   comm_check — the collective-schedule sanitizer with comm_check *off*
//     (the default) costs under 1% on the bench_kernels hot path. Kernels
//     never call collectives and the only off-mode residue inside the
//     collectives is one relaxed atomic load, so the leg times the packed
//     GEMM bench_kernels times, (a) standalone and (b) inside a
//     comm_check=off Runtime world. Info: allreduce with the sanitizer
//     off/on (two extra barriers per call, deliberately not guarded).
//   metrics — with metrics *off* (no Registry installed, the default) the
//     instrumentation costs under 1%. Every site (TrackedBytes in the
//     allocators, the collective scope, the solver counter bumps) starts
//     with one RankContext load and a branch, so the leg times a TTM that
//     allocates its output every call, (a) standalone and (b) inside a
//     metrics-off world. Info: metrics-on ratio of the same workload and an
//     allreduce loop with metrics off/on.
//   obs — the flight recorder Runtime::run installs on every rank thread
//     costs under 1% on the solver hot path: the same small distributed
//     HOOI solve runs twice inside one world, (a) with the recorder
//     suppressed for the scope (ScopedFlightRecorder(nullptr)) and (b) with
//     the default always-on recorder. Info: raw record() throughput.
//
// Every leg shares one protocol: timing two runs of one process to 1% is
// noise-sensitive, so the guard is self-relative (no cross-machine
// baselines), uses medians of 31 repetitions, and takes the best of 5
// attempts before declaring a regression against the 1.01 budget.
// Exit code 0 = within budget, 1 = not, 2 = usage.
//
//   bench_overhead_guard comm_check|metrics|obs

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "core/hooi.hpp"
#include "data/synthetic.hpp"
#include "dist/dist_tensor.hpp"
#include "la/blas.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "tensor/ttm.hpp"

namespace {

using namespace rahooi;
using la::idx_t;

constexpr int kReps = 31;     // per-measurement repetitions (median)
constexpr int kAttempts = 5;  // best-of attempts before failing
constexpr double kBudget = 1.01;

/// Fills `n` doubles at `p` with seeded standard normals.
void fill_normal(double* p, idx_t n, std::uint64_t seed) {
  const CounterRng rng(seed);
  for (idx_t i = 0; i < n; ++i) p[i] = rng.normal(i);
}

/// Median seconds per call of `fn` over `reps` timed repetitions (after one
/// warmup call).
double median_seconds(int reps, const std::function<void()>& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double t0 = stats::now();
    fn();
    times.push_back(stats::now() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// One timed attempt: the baseline and the instrumented median, plus an
/// optional note for the attempt line.
struct Attempt {
  double base = 0.0;
  double guarded = 0.0;
  std::string note;
};

/// The shared protocol: up to kAttempts attempts, stopping at the first
/// best ratio under budget. Returns the best guarded/base ratio.
double best_ratio(const char* leg, const char* base_label,
                  const char* guarded_label,
                  const std::function<Attempt()>& attempt) {
  double best = 1e30;
  for (int k = 0; k < kAttempts; ++k) {
    const Attempt at = attempt();
    const double ratio = at.guarded / at.base;
    best = std::min(best, ratio);
    std::printf("%s_guard attempt %d: %s %.3f ms, %s %.3f ms, ratio %.4f%s\n",
                leg, k, base_label, at.base * 1e3, guarded_label,
                at.guarded * 1e3, ratio, at.note.c_str());
    if (best < kBudget) break;
  }
  return best;
}

/// Exit code for a leg's best ratio against the budget.
int verdict(const char* leg, const char* what, double best) {
  if (best >= kBudget) {
    std::fprintf(stderr, "%s_guard FAIL: %s %.4f exceeds budget %.2f\n", leg,
                 what, best, kBudget);
    return 1;
  }
  std::printf("%s_guard OK: best ratio %.4f (budget %.2f)\n", leg, best,
              kBudget);
  return 0;
}

/// Median of an allreduce loop over 4 ranks, as seen by rank 0.
double allreduce_median(const comm::RunOptions& opts) {
  double med = 0.0;
  comm::Runtime::run(
      4,
      [&](comm::Comm& world) {
        std::vector<double> v(64, 1.0);
        const double m = median_seconds(kReps, [&] {
          world.allreduce_sum(v.data(), static_cast<idx_t>(v.size()));
        });
        if (world.rank() == 0) med = m;
      },
      nullptr, nullptr, opts);
  return med;
}

int comm_check_leg() {
  constexpr idx_t kN = 192;  // the bench_kernels GEMM shape family
  la::Matrix<double> a(kN, kN), b(kN, kN), c(kN, kN);
  fill_normal(a.data(), a.size(), 1);
  fill_normal(b.data(), b.size(), 2);
  const auto kernel = [&] {
    la::gemm(la::Op::none, la::Op::none, 1.0, a.cref(), b.cref(), 0.0,
             c.ref());
  };
  const double best = best_ratio(
      "comm_check", "standalone", "comm_check=off world", [&] {
        Attempt at;
        at.base = median_seconds(kReps, kernel);
        comm::RunOptions off;
        off.comm_check = 0;
        comm::Runtime::run(
            1, [&](comm::Comm&) { at.guarded = median_seconds(kReps, kernel); },
            nullptr, nullptr, off);
        return at;
      });

  // Informational: sanitizer on-cost on an allreduce-heavy loop (expected to
  // be large and proportional to the two extra barriers per call).
  for (const int on : {0, 1}) {
    comm::RunOptions opts;
    opts.comm_check = on;
    std::printf("comm_check_guard info: allreduce comm_check=%d %.3f us\n", on,
                allreduce_median(opts) * 1e6);
  }
  return verdict("comm_check", "comm_check=off overhead ratio", best);
}

int metrics_leg() {
  constexpr idx_t kN = 48;  // mode size of the TTM workload
  constexpr idx_t kRank = 16;
  tensor::Tensor<double> x({kN, kN, kN});
  la::Matrix<double> u(kN, kRank);
  fill_normal(x.data(), x.size(), 1);
  fill_normal(u.data(), u.size(), 2);
  // Allocates the output tensor every call: the TrackedBytes acquire in the
  // Tensor ctor and the AlignedBuffer pack scratch both run per repetition.
  const auto kernel = [&] {
    tensor::Tensor<double> y = tensor::ttm(x, 0, u.cref(), la::Op::transpose);
    (void)y;
  };
  const double best =
      best_ratio("metrics", "standalone", "metrics-off world", [&] {
        Attempt at;
        at.base = median_seconds(kReps, kernel);
        comm::Runtime::run(1, [&](comm::Comm&) {
          at.guarded = median_seconds(kReps, kernel);
        });
        return at;
      });

  // Informational: metrics-on cost of the same workload (allocator tags now
  // update gauges) and of an allreduce loop (the collective scope reads the
  // clock twice and updates two histograms per call).
  {
    const double standalone = median_seconds(kReps, kernel);
    std::vector<metrics::Registry> regs;
    comm::RunOptions on;
    on.rank_metrics = &regs;
    double metered = 0.0;
    comm::Runtime::run(
        1, [&](comm::Comm&) { metered = median_seconds(kReps, kernel); },
        nullptr, nullptr, on);
    std::printf(
        "metrics_guard info: ttm metrics-on ratio %.4f (peak tensor bytes "
        "%.0f)\n",
        metered / standalone,
        regs.at(0).gauge(metrics::MemScope::tensor).peak);
  }
  for (const bool metered : {false, true}) {
    std::vector<metrics::Registry> regs;
    comm::RunOptions opts;
    if (metered) opts.rank_metrics = &regs;
    std::printf("metrics_guard info: allreduce metrics=%d %.3f us\n",
                metered ? 1 : 0, allreduce_median(opts) * 1e6);
  }
  return verdict("metrics", "metrics-off overhead ratio", best);
}

int obs_leg() {
  constexpr int kP = 2;  // world size: collectives on the solve path
  const std::vector<idx_t> dims{24, 24, 24};
  const std::vector<idx_t> ranks{4, 4, 4};
  const double best = best_ratio("obs", "recorder-off", "recorder-on", [&] {
    Attempt at;
    std::uint64_t recorded = 0;
    comm::Runtime::run(kP, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, {1, 1, kP});
      auto x = data::synthetic_tucker<double>(grid, dims, ranks, 1e-4, 7);
      core::HooiOptions opts;
      opts.max_iters = 2;
      const auto solve = [&] {
        auto res = core::hooi(x, ranks, opts);
        (void)res;
      };
      // Both legs run on every rank unconditionally, so the world's
      // collective schedules stay in lockstep across the comparison.
      double off_leg = 0.0;
      {
        obs::ScopedFlightRecorder none(nullptr);
        off_leg = median_seconds(kReps, solve);
      }
      const std::uint64_t before = obs::flight_recorder()->total();
      const double on_leg = median_seconds(kReps, solve);
      if (world.rank() == 0) {
        at.base = off_leg;
        at.guarded = on_leg;
        recorded = obs::flight_recorder()->total() - before;
      }
    });
    at.note = " (" + std::to_string(recorded) + " records over the on-leg)";
    return at;
  });

  // Informational: raw record() throughput of a standalone ring (the
  // absolute per-record cost the ratio above amortizes).
  {
    obs::FlightRecorder ring;
    constexpr int kRecords = 1 << 16;
    const double t0 = stats::now();
    for (int i = 0; i < kRecords; ++i) {
      ring.record(obs::RecordKind::collective_post, "allreduce", 4096.0);
    }
    const double per = (stats::now() - t0) / kRecords;
    std::printf("obs_guard info: record() %.1f ns/record (%llu total, %llu "
                "dropped)\n",
                per * 1e9, static_cast<unsigned long long>(ring.total()),
                static_cast<unsigned long long>(ring.dropped()));
  }
  return verdict("obs", "flight-recorder overhead ratio", best);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string leg = argc == 2 ? argv[1] : "";
  if (leg == "comm_check") return comm_check_leg();
  if (leg == "metrics") return metrics_leg();
  if (leg == "obs") return obs_leg();
  std::fprintf(stderr, "usage: bench_overhead_guard comm_check|metrics|obs\n");
  return 2;
}
