// Solver workloads: paper-regime error-specified solves at P = 2, one world
// per process, cycling three seeded inputs.
//
//   miranda-ra       RA-HOSI-DT, miranda_like 256^3 fp32, start ranks 4^3
//   miranda-sthosvd  error-specified ST-HOSVD (Gram + EVD), same inputs
//   hcci-ra          RA-HOSI-DT, hcci_like 96x96x16x64 fp64, start 8,8,6,6
//
// Untraced run: every op is timed between barriers and checked. Traced run:
// ops alternate untraced / traced (a prof::Recorder on every rank), so the
// per-layer numbers and the tracing overhead come from one process.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/rank_adaptive.hpp"
#include "core/sthosvd.hpp"
#include "data/science.hpp"
#include "model/calibration.hpp"
#include "model/cost_model.hpp"
#include "prof/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rahooi::Phase;
using rahooi::Stats;
using rahooi::la::idx_t;
namespace core = rahooi::core;
namespace dist = rahooi::dist;
namespace model = rahooi::model;
namespace prof = rahooi::prof;

struct SolverSpec {
  std::string name;
  bool hcci = false;     ///< hcci_like fp64, else miranda_like fp32
  bool sthosvd = false;  ///< error-specified ST-HOSVD, else RA-HOSI-DT
  std::vector<idx_t> dims;
  std::vector<idx_t> start_ranks;  ///< RA starting (undershoot) ranks
  std::vector<int> grid;
  double eps = 0.01;
  /// Goodput latency limit: about three times the median solve time.
  double latency_limit_s = 0.0;
};

const std::vector<SolverSpec>& specs() {
  static const std::vector<SolverSpec> s = {
      {"miranda-ra", false, false, {256, 256, 256}, {4, 4, 4}, {1, 1, 2},
       0.01, 0.5},
      {"miranda-sthosvd", false, true, {256, 256, 256}, {}, {1, 1, 2}, 0.01,
       0.9},
      {"hcci-ra", true, false, {96, 96, 16, 64}, {8, 8, 6, 6}, {1, 1, 1, 2},
       0.01, 0.45},
  };
  return s;
}

/// The three inputs of every run: fixed dataset seeds, like the paper's
/// fixed datasets. The workload seed picks the cycling order and the RA
/// start factors, so every run compresses the same data.
constexpr int kInputs = 3;
constexpr std::uint64_t kDataSeeds[kInputs] = {7001, 7002, 7003};

/// Orthonormality tolerance on max |U^T U - I| per precision.
template <typename T>
constexpr double kOrthTol = sizeof(T) == 4 ? 1e-4 : 1e-10;

/// Collective span names (comm/comm.hpp) reported one metric each; the
/// rest ("reduce", "send", "recv") count only toward the comm total.
constexpr std::array<const char*, 6> kCollectives = {
    "reduce_scatter", "allreduce", "alltoallv",
    "allgatherv",     "bcast",     "barrier"};
constexpr std::array<const char*, 3> kOtherCollectives = {"reduce", "send",
                                                          "recv"};

/// What one rank saw during one traced op.
struct RankSample {
  double solve_s = 0.0;
  std::array<double, rahooi::kPhaseCount> phase_s{};
  std::array<double, kCollectives.size()> coll_s{};
  double comm_s = 0.0;
  double redistribute_s = 0.0;
  double flops = 0.0;
  double ttm_flops = 0.0;
  double comm_bytes = 0.0;
  double messages = 0.0;
};

double geomean(const std::vector<idx_t>& v) {
  double s = 0.0;
  for (const idx_t x : v) s += std::log(double(x));
  return std::exp(s / double(v.size()));
}

template <typename T>
double orth_error(const rahooi::la::Matrix<T>& u) {
  double worst = 0.0;
  for (idx_t i = 0; i < u.cols(); ++i) {
    for (idx_t j = 0; j <= i; ++j) {
      double dot = 0.0;
      for (idx_t k = 0; k < u.rows(); ++k) {
        dot += double(u(k, i)) * double(u(k, j));
      }
      worst = std::max(worst, std::abs(dot - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

template <typename T>
dist::DistTensor<T> generate(const SolverSpec& spec,
                             const dist::ProcessorGrid& grid,
                             std::uint64_t seed) {
  if (spec.hcci) {
    return rahooi::data::hcci_like<T>(grid, spec.dims[0], spec.dims[1],
                                      spec.dims[2], spec.dims[3], seed);
  }
  return rahooi::data::miranda_like<T>(grid, spec.dims[0], seed);
}

/// One solve's result, whichever algorithm ran.
template <typename T>
struct OpResult {
  std::optional<core::RankAdaptiveResult<T>> ra;
  std::optional<core::TuckerResult<T>> st;
};

/// Checks one result on rank 0; returns "" when correct, else why not.
template <typename T>
std::string check(const SolverSpec& spec, const OpResult<T>& r) {
  char buf[160];
  if (r.st) {
    const double err = r.st->relative_error();
    if (!(err <= spec.eps)) {
      std::snprintf(buf, sizeof buf, "sthosvd rel_error %.4g > eps %.4g",
                    err, spec.eps);
      return buf;
    }
    return "";
  }
  if (!r.ra->satisfied) return "RA solve did not satisfy eps";
  if (!(r.ra->rel_error <= spec.eps)) {
    std::snprintf(buf, sizeof buf, "RA rel_error %.4g > eps %.4g",
                  r.ra->rel_error, spec.eps);
    return buf;
  }
  for (const auto& u : r.ra->tucker.factors) {
    const double e = orth_error(u);
    if (!(e <= kOrthTol<T>)) {
      std::snprintf(buf, sizeof buf, "factor |U^T U - I| = %.3g > %.1g", e,
                    kOrthTol<T>);
      return buf;
    }
  }
  return "";
}

template <typename T>
double relative_size(const OpResult<T>& r) {
  if (r.ra) return r.ra->relative_size();
  double full = 1.0;
  for (const auto& u : r.st->factors) full *= double(u.rows());
  return double(r.st->compressed_size()) / full;
}

/// Cost-model prediction for the op that produced `r` (per rank).
template <typename T>
model::CostBreakdown predict(const SolverSpec& spec, const OpResult<T>& r) {
  const int d = static_cast<int>(spec.dims.size());
  const double n = geomean(spec.dims);
  if (r.st) {
    return model::predict(model::Algorithm::sthosvd,
                          {d, n, geomean(r.st->ranks()), 1, spec.grid});
  }
  model::CostBreakdown sum;
  for (const auto& it : r.ra->iterations) {
    const auto c = model::predict(model::Algorithm::hosi_dt,
                                  {d, n, geomean(it.sweep_ranks), 1,
                                   spec.grid});
    sum.ttm_flops += c.ttm_flops;
    sum.gram_flops += c.gram_flops;
    sum.evd_flops += c.evd_flops;
    sum.qr_flops += c.qr_flops;
    sum.contraction_flops += c.contraction_flops;
    sum.core_analysis_flops += c.core_analysis_flops;
    sum.ttm_words += c.ttm_words;
    sum.llsv_words += c.llsv_words;
    sum.core_analysis_words += c.core_analysis_words;
  }
  return sum;
}

RankSample summarize(const prof::Recorder& rec, const Stats& before,
                     const Stats& after, double solve_s) {
  RankSample s;
  s.solve_s = solve_s;
  s.phase_s = rec.phase_seconds();
  for (const auto& e : rec.events()) {
    if (e.name == "redistribute") s.redistribute_s += e.seconds;
    for (std::size_t k = 0; k < kCollectives.size(); ++k) {
      if (e.name == kCollectives[k]) {
        s.coll_s[k] += e.seconds;
        s.comm_s += e.seconds;
      }
    }
    for (const char* other : kOtherCollectives) {
      if (e.name == other) s.comm_s += e.seconds;
    }
  }
  s.flops = after.total_flops() - before.total_flops();
  s.ttm_flops = after.flops[static_cast<int>(Phase::ttm)] -
                before.flops[static_cast<int>(Phase::ttm)];
  s.comm_bytes = after.total_comm_bytes() - before.total_comm_bytes();
  for (std::size_t k = 0; k < rahooi::kCollectiveCount; ++k) {
    s.messages += double(after.messages[k] - before.messages[k]);
  }
  return s;
}

/// Per-layer values of one traced op, from every rank's sample (max over
/// ranks where ranks differ; sums for exact counts).
void add_layer_sample(const std::vector<RankSample>& ranks,
                      const model::CostBreakdown& pred,
                      const model::MachineRates& rates, double iterations,
                      std::map<std::string, std::vector<double>>& layer) {
  auto max_of = [&](auto get) {
    double m = 0.0;
    for (const auto& r : ranks) m = std::max(m, get(r));
    return m;
  };
  auto sum_of = [&](auto get) {
    double s = 0.0;
    for (const auto& r : ranks) s += get(r);
    return s;
  };
  auto phase = [&](Phase p) {
    return max_of(
        [p](const RankSample& r) { return r.phase_s[static_cast<int>(p)]; });
  };
  const double ttm = phase(Phase::ttm);
  const double gram = phase(Phase::gram);
  const double evd = phase(Phase::evd);
  const double comm = max_of([](const RankSample& r) { return r.comm_s; });
  const double wall = max_of([](const RankSample& r) { return r.solve_s; });
  layer["tensor.ttm_s"].push_back(ttm);
  layer["tensor.ttm_gflops"].push_back(
      ttm > 0.0
          ? sum_of([](const RankSample& r) { return r.ttm_flops; }) / ttm / 1e9
          : 0.0);
  layer["tensor.gram_s"].push_back(gram);
  layer["la.evd_s"].push_back(evd);
  layer["la.qr_s"].push_back(phase(Phase::qr));
  layer["dist.contraction_s"].push_back(phase(Phase::contraction));
  layer["dist.redistribute_s"].push_back(
      max_of([](const RankSample& r) { return r.redistribute_s; }));
  for (std::size_t k = 0; k < kCollectives.size(); ++k) {
    layer[std::string("comm.") + kCollectives[k] + "_s"].push_back(
        max_of([k](const RankSample& r) { return r.coll_s[k]; }));
  }
  layer["comm.rank_imbalance"].push_back(
      wall / (sum_of([](const RankSample& r) { return r.solve_s; }) /
              double(ranks.size())));
  layer["comm.bytes_per_op"].push_back(
      sum_of([](const RankSample& r) { return r.comm_bytes; }));
  layer["comm.messages_per_op"].push_back(
      sum_of([](const RankSample& r) { return r.messages; }));
  layer["core.iterations"].push_back(iterations);
  layer["core.flops_per_op"].push_back(
      sum_of([](const RankSample& r) { return r.flops; }));
  layer["core.core_analysis_s"].push_back(phase(Phase::core_analysis));
  layer["core.other_s"].push_back(phase(Phase::other));

  // Phase self-times must account for each rank's wall time (the 2% rule
  // of bench_fig3_breakdown); keep the rank furthest from 1.
  double coverage = 1.0;
  for (const auto& r : ranks) {
    double sum = 0.0;
    for (const double s : r.phase_s) sum += s;
    const double c = r.solve_s > 0.0 ? sum / r.solve_s : 0.0;
    if (std::abs(c - 1.0) > std::abs(coverage - 1.0)) coverage = c;
  }
  layer["trace.coverage"].push_back(coverage);

  auto ratio = [](double measured, double predicted) {
    return predicted > 0.0 ? measured / predicted : 0.0;
  };
  layer["model.ratio.ttm"].push_back(
      ratio(ttm, pred.ttm_flops / rates.flops_per_sec));
  layer["model.ratio.gram"].push_back(
      ratio(gram, pred.gram_flops / rates.flops_per_sec));
  layer["model.ratio.evd"].push_back(
      ratio(evd, pred.evd_flops / rates.seq_flops_per_sec));
  layer["model.ratio.comm"].push_back(ratio(
      comm, pred.total_words() * rates.word_bytes / rates.bytes_per_sec));
  layer["model.ratio.total"].push_back(
      ratio(wall, model::modeled_seconds(pred, rates)));
}

template <typename T>
void run_typed(const SolverSpec& spec, const Args& args, Result& out) {
  double elems = 1.0;
  for (const idx_t n : spec.dims) elems *= double(n);
  print_facts(spec.name, elems * sizeof(T));
  std::printf("fact inputs = %d, ranks = %d, grid =", kInputs, kRanks);
  for (const int g : spec.grid) std::printf(" %d", g);
  std::printf("\n");

  model::MachineRates rates;
  if (args.trace) {
    rates = model::calibrate(true);
    rates.word_bytes = sizeof(T);
  }

  // Rank-0 bookkeeping (written by rank 0 only, read after the join).
  std::vector<double> setup_s, generate_s, latency, latency_traced,
      op_sys_s, op_faults, rel_size;
  std::map<std::string, std::vector<double>> layer;
  long long ops = 0, good = 0;
  double loop_s = 0.0;
  Usage loop_usage;
  std::vector<std::string> failures;

  // Shared per-rank slots, published across barriers.
  std::vector<double> rank_gen_s(kRanks, 0.0);
  std::vector<RankSample> rank_samples(kRanks);
  std::vector<prof::Recorder> recorders(kRanks);
  std::atomic<bool> stop{false};

  rahooi::comm::Runtime::run(kRanks, [&](rahooi::comm::Comm& world) {
    const int me = world.rank();
    recorders[me].set_rank(me);
    std::vector<std::unique_ptr<dist::ProcessorGrid>> grids;
    std::vector<std::unique_ptr<dist::DistTensor<T>>> inputs;

    core::RankAdaptiveOptions ra_opt;
    ra_opt.tolerance = spec.eps;
    ra_opt.max_iters = 3;  // the paper's cap
    ra_opt.hooi.seed = args.seed;

    auto solve = [&](const dist::DistTensor<T>& x, OpResult<T>& r) {
      if (spec.sthosvd) {
        r.st.emplace(core::sthosvd(x, spec.eps));
      } else {
        r.ra.emplace(core::rank_adaptive_hooi(x, spec.start_ranks, ra_opt));
      }
    };

    // Set-up: one sample per input = grid + generation + warm-up solve.
    for (int i = 0; i < kInputs; ++i) {
      world.barrier();
      const double t0 = now();
      grids.push_back(std::make_unique<dist::ProcessorGrid>(world, spec.grid));
      const double g0 = now();
      inputs.push_back(std::make_unique<dist::DistTensor<T>>(generate<T>(
          spec, *grids.back(), kDataSeeds[(args.seed + i) % kInputs])));
      rank_gen_s[me] = now() - g0;
      OpResult<T> warm;
      solve(*inputs.back(), warm);
      world.barrier();
      if (me == 0) {
        setup_s.push_back(now() - t0);
        generate_s.push_back(
            *std::max_element(rank_gen_s.begin(), rank_gen_s.end()));
        const std::string why = check(spec, warm);
        if (!why.empty()) failures.push_back("warm-up: " + why);
      }
    }

    // Timed loop: rank 0 decides when to stop; every op is checked.
    world.barrier();
    const double loop_t0 = now();
    const Usage usage0 = me == 0 ? usage_now() : Usage{};
    for (long long op = 0;; ++op) {
      const bool traced = args.trace && op % 2 == 1;
      const dist::DistTensor<T>& x = *inputs[op % kInputs];
      OpResult<T> r;
      const Usage u0 = me == 0 ? usage_now() : Usage{};
      const double t0 = now();
      if (traced) {
        recorders[me].clear();
        const Stats before = *rahooi::stats::current();
        double solve_s = 0.0;
        {
          prof::ScopedRecorder scope(recorders[me]);
          solve(x, r);
          solve_s = now() - t0;
        }
        rank_samples[me] = summarize(recorders[me], before,
                                     *rahooi::stats::current(), solve_s);
      } else {
        solve(x, r);
      }
      world.barrier();
      if (me == 0) {
        const double lat = now() - t0;
        const Usage du = usage_now() - u0;
        op_sys_s.push_back(du.sys_s);
        op_faults.push_back(du.minor_faults);
        (traced ? latency_traced : latency).push_back(lat);
        const std::string why = check(spec, r);
        ++ops;
        if (why.empty()) {
          if (lat <= spec.latency_limit_s) ++good;
        } else if (failures.size() < 5) {
          failures.push_back("op " + std::to_string(op) + ": " + why);
        }
        out.op(why.empty());
        rel_size.push_back(relative_size(r));
        if (traced) {
          add_layer_sample(rank_samples, predict(spec, r), rates,
                           r.ra ? double(r.ra->iterations.size()) : 1.0,
                           layer);
        }
        if (now() - loop_t0 >= args.seconds) {
          loop_s = now() - loop_t0;
          loop_usage = usage_now() - usage0;
          stop.store(true);
        }
      }
      world.barrier();
      if (stop.load()) break;
    }
  });

  for (const auto& f : failures) out.fail(f);
  const double n_ops = double(std::max(1LL, ops));
  if (!args.trace) {
    emit_end_to_end(
        {{"latency_s.p50", median(latency)},
         {"latency_s.p75", supported_quantile(latency, 0.75, "latency_s.p75")},
         {"throughput_per_s", double(ops) / loop_s},
         {"goodput_per_s", double(good) / loop_s},
         {"cpu_s_per_op", loop_usage.cpu_s() / n_ops},
         {"setup_s", median(setup_s)},
         {"peak_rss_mb", peak_rss_mb()},
         {"relative_size", mean(rel_size)},
         {"ok_frac", double(ops - out.failed()) / n_ops}},
        out);
    return;
  }

  // Traced run: per-layer medians over the traced ops.
  std::map<std::string, double> values;
  for (const auto& [name, v] : layer) values[name] = median(v);
  values["data.generate_s"] = median(generate_s);
  values["proc.minor_faults_per_op"] = median(op_faults);
  values["proc.sys_s_per_op"] = median(op_sys_s);
  values["comm.spawn_s.p50"] = spawn_seconds_p50(200);
  values["trace.overhead_frac"] =
      median(latency_traced) / median(latency) - 1.0;
  int uncovered = 0;
  for (const double c : layer["trace.coverage"]) {
    if (std::abs(c - 1.0) > 0.02) ++uncovered;
  }
  if (uncovered > 0) {
    out.fail(std::to_string(uncovered) +
             " traced ops whose phase self-times miss wall time by >2%");
  }
  emit_per_layer(values, out);
}

}  // namespace

bool is_solver_workload(const std::string& name) {
  for (const auto& s : specs()) {
    if (s.name == name) return true;
  }
  return false;
}

void run_solver(const Args& args, Result& out) {
  for (const auto& s : specs()) {
    if (s.name != args.workload) continue;
    if (s.hcci) {
      run_typed<double>(s, args, out);
    } else {
      run_typed<float>(s, args, out);
    }
  }
}

double spawn_seconds_p50(int samples) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double t0 = now();
    rahooi::comm::Runtime::run(kRanks,
                               [](rahooi::comm::Comm& w) { w.barrier(); });
    t.push_back(now() - t0);
  }
  return median(t);
}

}  // namespace perfbench
