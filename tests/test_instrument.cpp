// Tests for the instrumentation spine: the collective table and the one
// collective scope (comm::CollectiveGuard) that feeds every sink from one
// byte figure, and the per-rank RankContext Runtime::run installs. For each
// Comm entry point the Stats totals, the metrics histograms, the prof
// TraceEvent and the flight-recorder complete record must agree exactly;
// every post must have its complete; every documented fault site must be
// reachable under its table name — docs/OBSERVABILITY.md, DESIGN.md §8.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "comm/runtime.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "obs/merge_trace.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {
namespace {

using Body = std::function<void(const Comm&)>;

/// One table-driven case: the entry points it calls (once each, in order)
/// and a body that calls them on every rank of the world.
struct Case {
  std::vector<SchedOp> ops;
  Body body;
};

std::vector<idx_t> ramp(int p) {
  std::vector<idx_t> counts(static_cast<std::size_t>(p));
  std::iota(counts.begin(), counts.end(), idx_t{1});
  return counts;
}

/// Every Comm entry point, called once per case. send/recv share a case: a
/// ring shift, so every rank both sends and receives one message.
std::vector<Case> cases() {
  constexpr idx_t n = 6;
  return {
      {{SchedOp::barrier}, [](const Comm& c) { c.barrier(); }},
      {{SchedOp::bcast},
       [](const Comm& c) {
         std::vector<double> v(n, double(c.rank()));
         c.bcast(v.data(), n, 0);
       }},
      {{SchedOp::reduce},
       [](const Comm& c) {
         std::vector<double> in(n, 1.0), out(n);
         c.reduce_sum(in.data(), out.data(), n, 0);
       }},
      {{SchedOp::allreduce},
       [](const Comm& c) {
         std::vector<double> v(n, 1.0);
         c.allreduce_sum(v.data(), n);
       }},
      {{SchedOp::allreduce_max},
       [](const Comm& c) {
         std::vector<float> v(n, float(c.rank()));
         c.allreduce_max(v.data(), n);
       }},
      {{SchedOp::reduce_scatter},
       [](const Comm& c) {
         const std::vector<idx_t> counts = ramp(c.size());
         constexpr idx_t blocks = 3;
         const idx_t group =
             std::accumulate(counts.begin(), counts.end(), idx_t{0});
         std::vector<double> in(std::size_t(blocks * group), 1.0);
         std::vector<double> out(std::size_t(blocks * counts[c.rank()]));
         c.reduce_scatter_sum(in.data(), out.data(), counts, blocks);
       }},
      {{SchedOp::allgatherv},
       [](const Comm& c) {
         const std::vector<idx_t> counts = ramp(c.size());
         std::vector<double> in(std::size_t(counts[c.rank()]), 1.0);
         std::vector<double> out(std::size_t(
             std::accumulate(counts.begin(), counts.end(), idx_t{0})));
         c.allgatherv(in.data(), out.data(), counts);
       }},
      {{SchedOp::alltoallv},
       [](const Comm& c) {
         const int p = c.size();
         std::vector<idx_t> displs(static_cast<std::size_t>(p));
         const std::vector<idx_t> counts(displs.size(), 2);
         for (int r = 0; r < p; ++r) displs[r] = 2 * r;
         std::vector<double> in(std::size_t(2 * p), 1.0), out(in.size());
         c.alltoallv(in.data(), displs, out.data(), counts, displs);
       }},
      {{SchedOp::split},
       [](const Comm& c) { (void)c.split(c.rank() % 2, c.rank()); }},
      {{SchedOp::send, SchedOp::recv},
       [](const Comm& c) {
         const int p = c.size();
         std::vector<double> out(n, 1.0), in(n);
         c.send(out.data(), n, (c.rank() + 1) % p, 7);
         c.recv(in.data(), n, (c.rank() + p - 1) % p, 7);
       }},
  };
}

/// What one rank's sinks saw during one case.
struct RankSinks {
  Stats stats;
  prof::Recorder trace;
  metrics::Registry metrics;
  obs::RankTimeline flight;
};

/// Runs `body` on a P-rank world with every sink installed.
std::vector<RankSinks> run_with_sinks(int p, const Body& body) {
  std::vector<Stats> stats;
  std::vector<prof::Recorder> traces;
  std::vector<metrics::Registry> regs;
  std::vector<obs::RankTimeline> flights(static_cast<std::size_t>(p));
  RunOptions opts;
  opts.rank_metrics = &regs;
  Runtime::run(
      p,
      [&](Comm& world) {
        body(world);
        flights[world.rank()] = obs::flight_recorder()->timeline();
      },
      &stats, &traces, opts);
  std::vector<RankSinks> out(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    out[r].stats = stats[r];
    out[r].trace = traces[r];
    out[r].metrics = regs[r];
    out[r].flight = flights[r];
  }
  return out;
}

std::vector<obs::Record> records_of(const obs::RankTimeline& tl,
                                    obs::RecordKind kind,
                                    std::string_view op) {
  std::vector<obs::Record> out;
  for (const obs::Record& rec : tl.records) {
    if (rec.kind == kind && std::string_view(rec.op) == op) out.push_back(rec);
  }
  return out;
}

class SinksAgree : public ::testing::TestWithParam<int> {};

TEST_P(SinksAgree, EveryCollectiveCountsOnceInEverySink) {
  const int p = GetParam();
  for (const Case& c : cases()) {
    const std::vector<RankSinks> sinks = run_with_sinks(p, c.body);
    for (int r = 0; r < p; ++r) {
      const RankSinks& s = sinks[r];
      for (const SchedOp op : c.ops) {
        const CollectiveDesc& d = collective_desc(op);
        SCOPED_TRACE(std::string(d.name) + " P=" + std::to_string(p) +
                     " rank " + std::to_string(r));
        // The span carries the table's span name; the flight recorder posts
        // and completes under the table's site name, once each.
        const prof::TraceEvent* ev = nullptr;
        for (const prof::TraceEvent& e : s.trace.events()) {
          if (e.name == d.span) ev = &e;
        }
        ASSERT_NE(ev, nullptr);
        const auto posts =
            records_of(s.flight, obs::RecordKind::collective_post, d.site);
        const auto completes = records_of(
            s.flight, obs::RecordKind::collective_complete, d.site);
        ASSERT_EQ(posts.size(), 1u);
        ASSERT_EQ(completes.size(), 1u);
        EXPECT_LT(posts[0].seq, completes[0].seq);
        EXPECT_DOUBLE_EQ(completes[0].bytes, ev->total_comm_bytes());

        // A single-rank world short-circuits the collectives before they
        // count, except alltoallv, which runs its exchange and counts one
        // 0-byte message; a send is a real message even to self.
        const bool moves = p > 1 || op == SchedOp::send;
        const bool counted = d.kind != CollectiveKind::count_ &&
                             (moves || op == SchedOp::alltoallv);
        EXPECT_EQ(ev->messages, counted ? 1u : 0u);
        if (d.kind == CollectiveKind::count_) continue;
        const auto k = static_cast<std::size_t>(d.kind);
        const metrics::CollectiveMetrics& m = s.metrics.collective(d.kind);
        EXPECT_DOUBLE_EQ(s.stats.comm_bytes[k], ev->comm_bytes[k]);
        EXPECT_EQ(s.stats.messages[k], ev->messages);
        EXPECT_DOUBLE_EQ(m.bytes.sum, s.stats.comm_bytes[k]);
        EXPECT_EQ(m.bytes.count, s.stats.messages[k]);
        EXPECT_EQ(m.seconds.count, m.bytes.count);
        if (moves) {
          EXPECT_GT(s.stats.comm_bytes[k], 0.0);
        }
      }
      if (p == 1 && c.ops.front() != SchedOp::send) {
        EXPECT_DOUBLE_EQ(s.stats.total_comm_bytes(), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SinksAgree, ::testing::Values(1, 2, 3));

TEST(CollectiveTable, SpanAndSiteNamesArePinned) {
  // Span names are matched by name in trace consumers (perfbench, the
  // profile smoke lint); site names are the fault-plan vocabulary of
  // docs/ROBUSTNESS.md. Both are public contracts.
  const std::set<std::string> spans{"barrier",   "bcast",     "reduce",
                                    "allreduce", "reduce_scatter",
                                    "allgatherv", "alltoallv", "split",
                                    "send",      "recv"};
  const std::set<std::string> sites{"allreduce", "barrier", "reduce_scatter",
                                    "allgather", "alltoall", "bcast",
                                    "reduce",    "send",    "recv",
                                    "split"};
  std::set<std::string> table_spans, table_sites, names;
  for (const CollectiveDesc& d : kCollectiveTable) {
    table_spans.insert(d.span);
    table_sites.insert(d.site);
    EXPECT_TRUE(names.insert(d.name).second) << d.name;
  }
  EXPECT_EQ(table_spans, spans);
  EXPECT_EQ(table_sites, sites);
  // Every row is exercised by the table-driven cases above.
  std::set<int> covered;
  for (const Case& c : cases()) {
    for (const SchedOp op : c.ops) covered.insert(int(op));
  }
  EXPECT_EQ(covered.size(), kSchedOpCount);
}

TEST(CollectiveTable, DocumentedFaultSitesFireExactlyOnce) {
  // A delay rule on rank 0 with room for many hits counts exactly the
  // calls that reach the site: one per case.
  for (const Case& c : cases()) {
    for (const SchedOp op : c.ops) {
      const char* site = collective_desc(op).site;
      fault::Rule rule;
      rule.op = site;
      rule.rank = 0;
      rule.count = 100;
      rule.action = fault::Action::delay;
      rule.delay_ms = 0.0;
      fault::Plan plan;
      plan.add(rule);
      RunOptions opts;
      opts.fault_plan = &plan;
      Runtime::run(2, [&](Comm& world) { c.body(world); }, nullptr, nullptr,
                   opts);
      EXPECT_EQ(plan.fired(0), 1u) << site;
    }
  }
}

TEST(CollectiveTable, MergedTracePairsEveryPostWithItsComplete) {
  // One P = 2 world calls every entry point once: the merged flight trace
  // holds one complete ("X") event per call per rank and no orphan post.
  constexpr int p = 2;
  std::size_t calls = 0;
  for (const Case& c : cases()) calls += c.ops.size();
  std::vector<obs::RankTimeline> flights(p);
  Runtime::run(p, [&](Comm& world) {
    for (const Case& c : cases()) c.body(world);
    flights[world.rank()] = obs::flight_recorder()->timeline();
  });
  const std::vector<obs::JobTimeline> jobs{{"all-collectives", 0, flights}};
  const std::string json = obs::merge_trace(jobs);
  std::string error;
  EXPECT_TRUE(obs::validate_merged_trace(json, jobs, &error)) << error;
  std::size_t complete_events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, calls * p);
  EXPECT_EQ(json.find("collective_post"), std::string::npos) << json;
}

TEST(RankContextScope, InstallsAndRestoresAcrossRankThreads) {
  // The host thread's context is untouched by the rank threads' scopes, and
  // each rank thread sees only its own sinks.
  Stats host;
  const ScopedStats tracked(host);
  std::vector<int> ranks(3, -1);
  std::vector<Stats> per_rank;
  Runtime::run(
      3,
      [&](Comm& world) {
        ranks[world.rank()] = rank_context().world_rank;
        stats::add_flops(1.0 + world.rank());
        world.barrier();
      },
      &per_rank);
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(stats::current(), &host);
  EXPECT_EQ(rank_context().world_rank, -1);
  EXPECT_DOUBLE_EQ(host.total_flops(), 0.0);
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(per_rank[r].total_flops(), 1.0 + r);
  }
}

}  // namespace
}  // namespace rahooi::comm
