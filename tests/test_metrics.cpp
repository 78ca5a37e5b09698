// Tests for rahooi::metrics (src/metrics/): the histogram/gauge primitives,
// the TrackedBytes allocator tag, the report/aggregation/export layer with
// its validators, and the two end-to-end observability invariants of
// docs/OBSERVABILITY.md — (a) SolveReport fallback/retry fields agree
// exactly with the metrics counters and the JSONL event log replays the
// sweep sequence, and (b) the dt-memo peak-bytes gauge stays within the
// cost model's predicted bound on a distributed HOSI-DT run.

#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "comm/runtime.hpp"
#include "core/hooi.hpp"
#include "core/rank_adaptive.hpp"
#include "fault/fault.hpp"
#include "metrics/report.hpp"
#include "model/cost_model.hpp"
#include "test_util.hpp"

namespace {

using namespace rahooi;
using la::idx_t;
using testutil::random_tensor;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, Log2Bucketing) {
  // Bucket i covers [2^(i-32), 2^(i-31)); bucket 0 absorbs everything
  // below 2^-32, including zero and negatives.
  EXPECT_EQ(metrics::Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(metrics::Histogram::bucket_of(1e-33), 0u);  // below 2^-32
  EXPECT_EQ(metrics::Histogram::bucket_of(1e-9), 2u);   // [2^-30, 2^-29)
  EXPECT_EQ(metrics::Histogram::bucket_of(1.0), 32u);
  EXPECT_EQ(metrics::Histogram::bucket_of(1.5), 32u);
  EXPECT_EQ(metrics::Histogram::bucket_of(2.0), 33u);
  EXPECT_EQ(metrics::Histogram::bucket_of(1024.0), 42u);
  EXPECT_EQ(metrics::Histogram::bucket_of(1e300),
            metrics::Histogram::kBuckets - 1);

  metrics::Histogram h;
  h.record(1.0);
  h.record(3.0);
  h.record(0.5);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 4.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_EQ(h.buckets[32], 1u);  // 1.0 in [1, 2)
  EXPECT_EQ(h.buckets[33], 1u);  // 3.0 in [2, 4)
  EXPECT_EQ(h.buckets[31], 1u);  // 0.5 in [0.5, 1)
}

TEST(MetricsGauge, PeakTracksHighWaterAndSubClamps) {
  metrics::Gauge g;
  g.add(100.0);
  g.add(50.0);
  g.sub(120.0);
  g.add(10.0);
  EXPECT_DOUBLE_EQ(g.live, 40.0);
  EXPECT_DOUBLE_EQ(g.peak, 150.0);
  g.sub(1000.0);  // over-release clamps at zero rather than going negative
  EXPECT_DOUBLE_EQ(g.live, 0.0);
  EXPECT_DOUBLE_EQ(g.peak, 150.0);
}

TEST(MetricsTrackedBytes, AcquireScopesCopyMoveRetag) {
  metrics::Registry reg(0);
  metrics::ScopedRegistry installed(reg);

  metrics::TrackedBytes a;
  a.acquire(100.0);  // ambient scope: tensor
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::tensor).live, 100.0);

  {
    const metrics::MemScopeGuard guard(metrics::MemScope::dt_memo);
    EXPECT_EQ(metrics::current_mem_scope(), metrics::MemScope::dt_memo);
    EXPECT_EQ(metrics::dist_scope(), metrics::MemScope::dt_memo);
    metrics::TrackedBytes b;
    b.acquire(50.0);
    EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::dt_memo).live, 50.0);

    // Copy re-acquires under the *source's* scope even though the ambient
    // scope is dt_memo.
    const metrics::TrackedBytes c(a);
    EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::tensor).live, 200.0);
  }
  // b and the copy released; dt_memo peak survives.
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::dt_memo).live, 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::dt_memo).peak, 50.0);
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::tensor).live, 100.0);
  EXPECT_EQ(metrics::dist_scope(), metrics::MemScope::dist_tensor);

  // Move transfers the charge without touching the gauges.
  metrics::TrackedBytes moved(std::move(a));
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::tensor).live, 100.0);
  EXPECT_DOUBLE_EQ(moved.bytes(), 100.0);

  // Retag moves the live charge across scopes.
  moved.retag(metrics::MemScope::checkpoint);
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::tensor).live, 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::checkpoint).live, 100.0);
  moved.release();
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::checkpoint).live, 0.0);

  {
    const metrics::ScopedBytes sb(metrics::MemScope::pack_buffer, 64.0);
    EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::pack_buffer).live, 64.0);
  }
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::pack_buffer).live, 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge(metrics::MemScope::pack_buffer).peak, 64.0);
}

TEST(MetricsTrackedBytes, InertWithoutRegistry) {
  ASSERT_EQ(metrics::registry(), nullptr);
  metrics::TrackedBytes t;
  t.acquire(1e6);  // no registry installed: must not crash, tag stays inert
  t.release();

  metrics::Registry reg(0);
  {
    const metrics::ScopedRegistry installed(reg);
    EXPECT_EQ(metrics::registry(), &reg);
  }
  EXPECT_EQ(metrics::registry(), nullptr);  // restored on scope exit
}

// ---------------------------------------------------------------------------
// Report / export / validators
// ---------------------------------------------------------------------------

metrics::Event sweep_event(int sweep, double err) {
  metrics::Event ev;
  ev.solver = "hooi";
  ev.kind = "sweep";
  ev.sweep = sweep;
  ev.ranks = {4, 4, 4};
  ev.rel_error = err;
  ev.seconds = 0.01;
  ev.flops = 1e6;
  ev.comm_bytes = 4096;
  return ev;
}

TEST(MetricsReport, SnapshotAggregateExportValidate) {
  std::vector<metrics::Registry> regs(2);
  for (int r = 0; r < 2; ++r) {
    regs[r].set_rank(r);
    regs[r].record_collective(CollectiveKind::allreduce, 1024.0,
                              0.5 * (r + 1));
    regs[r].mem_acquire(metrics::MemScope::dist_tensor, 4096.0);
    regs[r].count(metrics::Counter::solver_sweeps, 2);
    regs[r].add_named("custom.q", 7.0);
  }
  regs[0].add_event(sweep_event(1, 0.5));
  regs[0].add_event(sweep_event(2, 0.25));

  // Snapshot carries the expected flat keys.
  const std::vector<metrics::Sample> snap = metrics::snapshot(regs[0]);
  const auto value_of = [&](const std::string& key) -> double {
    for (const auto& s : snap) {
      if (s.key == key) return s.value;
    }
    ADD_FAILURE() << "missing snapshot key " << key;
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_DOUBLE_EQ(value_of("comm.calls{kind=\"allreduce\"}"), 1.0);
  EXPECT_DOUBLE_EQ(value_of("comm.bytes.sum{kind=\"allreduce\"}"), 1024.0);
  EXPECT_DOUBLE_EQ(value_of("mem.live_bytes{scope=\"dist_tensor\"}"), 4096.0);
  EXPECT_DOUBLE_EQ(value_of("mem.peak_bytes{scope=\"dist_tensor\"}"), 4096.0);
  EXPECT_DOUBLE_EQ(value_of("counter{name=\"solver_sweeps\"}"), 2.0);
  EXPECT_DOUBLE_EQ(value_of("named{name=\"custom.q\"}"), 7.0);
  EXPECT_DOUBLE_EQ(value_of("events.count"), 2.0);

  // Cross-rank aggregation: seconds differ between ranks, bytes do not.
  const std::vector<metrics::MetricStat> stats = metrics::aggregate(regs);
  bool saw_seconds = false;
  for (const auto& m : stats) {
    if (m.key == "comm.seconds.sum{kind=\"allreduce\"}") {
      saw_seconds = true;
      EXPECT_EQ(m.ranks, 2);
      EXPECT_DOUBLE_EQ(m.min, 0.5);
      EXPECT_DOUBLE_EQ(m.max, 1.0);
      EXPECT_DOUBLE_EQ(m.mean, 0.75);
      EXPECT_DOUBLE_EQ(m.sum, 1.5);
    }
  }
  EXPECT_TRUE(saw_seconds);
  EXPECT_FALSE(metrics::aggregate_csv(stats).to_string().empty());
  EXPECT_FALSE(metrics::aggregate_pretty(stats, 5).empty());

  // Exported flat JSON passes its validator, including nonzero checks.
  const std::string json = metrics::metrics_json(regs);
  std::string error;
  EXPECT_TRUE(metrics::validate_metrics_json(
      json,
      {"comm.calls{kind=\"allreduce\",stat=\"sum\"}",
       "counter{name=\"solver_sweeps\",stat=\"max\"}"},
      {"mem.peak_bytes{scope=\"dist_tensor\",stat=\"max\"}"}, &error))
      << error;
  EXPECT_FALSE(metrics::validate_metrics_json(
      json, {"no.such.key{stat=\"sum\"}"}, {}, &error));
  double v = 0.0;
  EXPECT_TRUE(metrics::metrics_value(
      json, "comm.bytes.sum{kind=\"allreduce\",stat=\"max\"}", &v));
  EXPECT_DOUBLE_EQ(v, 1024.0);

  // Event log: schema-valid JSONL with a sequential sweep sequence.
  const std::string jsonl = metrics::events_jsonl(regs[0]);
  EXPECT_TRUE(metrics::validate_events_jsonl(jsonl, &error)) << error;

  // A gap in the sweep sequence is rejected.
  metrics::Registry bad(0);
  bad.add_event(sweep_event(1, 0.5));
  bad.add_event(sweep_event(3, 0.25));
  EXPECT_FALSE(
      metrics::validate_events_jsonl(metrics::events_jsonl(bad), &error));

  EXPECT_EQ(metrics::events_path_for("run.json"), "run.jsonl");
  EXPECT_EQ(metrics::events_path_for("run.out"), "run.out.jsonl");
}

// ---------------------------------------------------------------------------
// Collective instrumentation under the runtime
// ---------------------------------------------------------------------------

TEST(MetricsRuntime, CollectivesRecordedPerRank) {
  std::vector<metrics::Registry> regs;
  comm::RunOptions opts;
  opts.rank_metrics = &regs;
  comm::Runtime::run(
      4,
      [](comm::Comm& world) {
        std::vector<double> v(64, double(world.rank()));
        world.allreduce_sum(v.data(), 64);
        world.barrier();
      },
      nullptr, nullptr, opts);

  ASSERT_EQ(regs.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(regs[r].rank(), r);
    const metrics::CollectiveMetrics& m =
        regs[r].collective(CollectiveKind::allreduce);
    EXPECT_GE(m.bytes.count, 1u);
    EXPECT_GT(m.bytes.sum, 0.0);
    EXPECT_GE(m.seconds.max, 0.0);
    EXPECT_EQ(m.seconds.count, m.bytes.count);
  }
}

// ---------------------------------------------------------------------------
// Satellite: SolveReport <-> counters <-> event log consistency
// ---------------------------------------------------------------------------

TEST(MetricsSolver, ReportCountersAndEventLogAgree) {
  // A NaN in the tensor forces LLSV fallbacks every sweep; a seeded
  // transient fault at rank 1's allreduce forces retries. The SolveReport
  // fields, the metrics counters, and the JSONL event log must all tell the
  // same story, per rank, exactly.
  auto x = random_tensor<double>({6, 5, 4}, 42);
  x[7] = std::numeric_limits<double>::quiet_NaN();

  fault::Plan plan = fault::Plan::parse("transient:allreduce@1*2");
  fault::ScopedPlan installed(plan);

  const int p = 4;
  std::vector<metrics::Registry> regs;
  comm::RunOptions opts;
  opts.rank_metrics = &regs;
  std::vector<core::HooiResult<double>> results(p);
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {2, 2, 1});
        auto xd = dist::DistTensor<double>::generate(
            grid, x.dims(),
            [&](const std::vector<idx_t>& g) { return x.at(g); });
        core::HooiOptions o;
        o.svd_method = core::SvdMethod::subspace_iteration;
        o.max_iters = 2;
        results[world.rank()] =
            core::hooi(xd, std::vector<idx_t>{2, 2, 2}, o);
      },
      nullptr, nullptr, opts);
  EXPECT_EQ(plan.fired(0), 2u);

  ASSERT_EQ(regs.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const core::HooiResult<double>& res = results[r];
    const metrics::Registry& reg = regs[r];

    // Counters and report fields are the same numbers, not merely both
    // nonzero: the report is defined as the counter deltas of the solve.
    EXPECT_GT(res.report.fallbacks, 0u) << "rank " << r;
    EXPECT_EQ(res.report.fallbacks,
              reg.counter(metrics::Counter::solver_fallbacks))
        << "rank " << r;
    EXPECT_EQ(res.report.retries,
              reg.counter(metrics::Counter::fault_retries))
        << "rank " << r;
    EXPECT_EQ(res.report.retries, r == 1 ? 2u : 0u) << "rank " << r;
    EXPECT_EQ(reg.counter(metrics::Counter::solver_sweeps),
              static_cast<std::uint64_t>(res.iterations));

    // The event log replays the sweep sequence: one "sweep" event per
    // error_history entry, sequential from 1, with matching errors, and
    // the per-sweep fallback/retry deltas summing to the report totals.
    std::vector<const metrics::Event*> sweeps;
    std::uint64_t ev_fallbacks = 0;
    std::uint64_t ev_retries = 0;
    for (const metrics::Event& ev : reg.events()) {
      ASSERT_EQ(ev.kind, "sweep");
      ASSERT_EQ(ev.solver, "hooi");
      sweeps.push_back(&ev);
      ev_fallbacks += ev.fallbacks;
      ev_retries += ev.retries;
      EXPECT_EQ(ev.llsv_fallback, ev.fallbacks > 0);
    }
    ASSERT_EQ(sweeps.size(), res.error_history.size()) << "rank " << r;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      EXPECT_EQ(sweeps[i]->sweep, static_cast<int>(i) + 1);
      // NaN-tolerant equality: the poisoned tensor makes the per-sweep
      // error NaN, and the log must replay exactly what the solver saw.
      const double a = sweeps[i]->rel_error;
      const double b = res.error_history[i];
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
          << "rank " << r << " sweep " << i << ": " << a << " vs " << b;
      EXPECT_EQ(sweeps[i]->ranks, (std::vector<std::int64_t>{2, 2, 2}));
    }
    EXPECT_EQ(ev_fallbacks, res.report.fallbacks) << "rank " << r;
    // Retries can also fire during pre-sweep setup collectives (the ||X||^2
    // allreduce), which belong to the solve total but to no sweep event.
    EXPECT_LE(ev_retries, res.report.retries) << "rank " << r;

    // The snapshot embedded in the SolveReport is the registry's snapshot.
    EXPECT_EQ(res.report.metrics_snapshot.size(),
              metrics::snapshot(reg).size());
  }
}

// ---------------------------------------------------------------------------
// Satellite: dt-memo peak gauge vs cost-model bound
// ---------------------------------------------------------------------------

TEST(MetricsSolver, DtMemoPeakWithinCostModelBound) {
  const std::vector<idx_t> dims{16, 16, 16};
  const std::vector<idx_t> target{4, 4, 4};
  const std::vector<int> grid_dims{2, 2, 1};
  auto x = random_tensor<double>(dims, 77);

  const int p = 4;
  // Both sweep shapes: the dimension tree and the direct sweep's star.
  for (const bool use_tree : {true, false}) {
    std::vector<metrics::Registry> regs;
    comm::RunOptions opts;
    opts.rank_metrics = &regs;
    std::vector<std::vector<int>> coords(p);
    comm::Runtime::run(
        p,
        [&](comm::Comm& world) {
          dist::ProcessorGrid grid(world, grid_dims);
          coords[world.rank()] = grid.coords_of(world.rank());
          auto xd = dist::DistTensor<double>::generate(
              grid, x.dims(),
              [&](const std::vector<idx_t>& g) { return x.at(g); });
          core::HooiOptions o;
          o.svd_method = core::SvdMethod::subspace_iteration;
          o.use_dimension_tree = use_tree;
          o.max_iters = 2;
          core::HooiResult<double> res = core::hooi(xd, target, o);
          EXPECT_FALSE(res.error_history.empty());
        },
        nullptr, nullptr, opts);

    ASSERT_EQ(regs.size(), static_cast<std::size_t>(p));
    // The clean solve's event log passes the schema validator (finite
    // errors, sequential sweeps) — the counterpart of the NaN-degraded
    // replay above.
    std::string error;
    EXPECT_TRUE(metrics::validate_events_jsonl(
        metrics::events_jsonl(regs[0]), &error))
        << error;
    const core::DimensionTree tree =
        use_tree ? core::build_dimension_tree(3) : core::build_direct_tree(3);
    for (int r = 0; r < p; ++r) {
      const double peak = regs[r].gauge(metrics::MemScope::dt_memo).peak;
      const double bound = model::predict_tree_memo_peak_bytes(
          tree, {dims.begin(), dims.end()}, {target.begin(), target.end()},
          grid_dims, coords[r], sizeof(double));
      EXPECT_GT(peak, 0.0) << "tree " << use_tree << " rank " << r;
      EXPECT_GT(bound, 0.0) << "tree " << use_tree << " rank " << r;
      EXPECT_LE(peak, bound) << "tree " << use_tree << " rank " << r;
    }
  }
}

TEST(MetricsCostModel, TreeMemoBoundGrowsWithRanks) {
  const std::vector<std::int64_t> dims{32, 32, 32, 32};
  const std::vector<int> grid{1, 1, 1, 1};
  const std::vector<int> coord{0, 0, 0, 0};
  const core::DimensionTree tree = core::build_dimension_tree(4);
  const double small = model::predict_tree_memo_peak_bytes(
      tree, dims, {4, 4, 4, 4}, grid, coord, 8.0);
  const double large = model::predict_tree_memo_peak_bytes(
      tree, dims, {8, 8, 8, 8}, grid, coord, 8.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

}  // namespace
