#include "comm/runtime.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "metrics/metrics.hpp"

namespace rahooi::comm {

namespace {

/// Resolves the watchdog deadline: explicit option wins; a negative option
/// defers to the RAHOOI_COLLECTIVE_TIMEOUT_MS environment variable.
double resolve_timeout_s(const RunOptions& options) {
  if (options.collective_timeout_s >= 0.0) {
    return options.collective_timeout_s;
  }
  const char* env = std::getenv("RAHOOI_COLLECTIVE_TIMEOUT_MS");
  if (env == nullptr || *env == '\0') return 0.0;
  char* end = nullptr;
  const double ms = std::strtod(env, &end);
  if (end == env || ms <= 0.0) return 0.0;
  return ms / 1000.0;
}

/// Resolves the schedule-sanitizer switch: explicit option wins; a negative
/// option defers to the RAHOOI_COMM_CHECK environment variable ("0" = off),
/// which in turn defers to the compile-time default (the RAHOOI_COMM_CHECK
/// cmake option).
bool resolve_comm_check(const RunOptions& options) {
  if (options.comm_check >= 0) return options.comm_check != 0;
  const char* env = std::getenv("RAHOOI_COMM_CHECK");
  if (env != nullptr && *env != '\0') {
    return !(env[0] == '0' && env[1] == '\0');
  }
#ifdef RAHOOI_COMM_CHECK_DEFAULT
  return true;
#else
  return false;
#endif
}

struct ClassifiedError {
  std::exception_ptr ptr;
  bool is_aborted = false;  ///< secondary: woken by someone else's failure
  bool is_timeout = false;
  std::string what = "unknown exception";
};

ClassifiedError classify(std::exception_ptr err) {
  ClassifiedError c;
  c.ptr = err;
  try {
    std::rethrow_exception(err);
  } catch (const TimeoutError& e) {
    c.is_timeout = true;
    c.what = e.what();
  } catch (const AbortedError& e) {
    c.is_aborted = true;
    c.what = e.what();
  } catch (const std::exception& e) {
    c.what = e.what();
  } catch (...) {
  }
  return c;
}

}  // namespace

void Runtime::run(int p, const std::function<void(Comm&)>& fn,
                  std::vector<Stats>* rank_stats,
                  std::vector<prof::Recorder>* rank_traces,
                  const RunOptions& options) {
  RAHOOI_REQUIRE(p >= 1, "need at least one rank");
  auto monitor = std::make_shared<Monitor>(p);
  monitor->set_timeout(resolve_timeout_s(options));
  monitor->set_comm_check(resolve_comm_check(options));
  auto ctx = Context::create(p, monitor);

  std::vector<Stats> stats_store(p);
  std::vector<prof::Recorder> trace_store(rank_traces != nullptr ? p : 0);
  std::vector<metrics::Registry> metrics_store(
      options.rank_metrics != nullptr ? p : 0);
  // Always-on flight recorders: one fixed-size ring per rank, registered
  // with the monitor so a firing watchdog can render every rank's tail, and
  // snapshotted into the failure report after the join.
  std::vector<obs::FlightRecorder> flight_store(p);
  std::vector<std::exception_ptr> errors(p);
  std::vector<std::thread> threads;
  threads.reserve(p);

  // One RankContext per rank thread carries every per-rank sink: stats,
  // monitor binding, flight recorder, trace context, and the optional prof
  // recorder, metrics registry and world-scoped fault plan.
  std::vector<RankContext> contexts(p);
  for (int r = 0; r < p; ++r) {
    flight_store[r].set_rank(r);
    flight_store[r].set_trace_id(options.trace_id);
    monitor->set_flight_recorder(r, &flight_store[r]);
    RankContext& rc = contexts[r];
    rc.stats = &stats_store[r];
    rc.monitor = monitor.get();
    rc.world_rank = r;
    rc.fault_plan = options.fault_plan;
    rc.flight = &flight_store[r];
    rc.trace_id = options.trace_id;
    if (rank_traces != nullptr) {
      trace_store[r].set_rank(r);
      trace_store[r].set_trace_id(options.trace_id);
      rc.recorder = &trace_store[r];
    }
    if (options.rank_metrics != nullptr) {
      metrics_store[r].set_rank(r);
      rc.registry = &metrics_store[r];
    }
  }

  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      const ScopedRankContext bound(contexts[r]);
      Comm world(ctx, r);
      try {
        fn(world);
      } catch (const std::exception& e) {
        errors[r] = std::current_exception();
        // Wake every peer parked in a collective: with this rank dead, no
        // rendezvous over the world can ever complete.
        monitor->raise_abort(r, e.what());
      } catch (...) {
        errors[r] = std::current_exception();
        monitor->raise_abort(r, "unknown exception");
      }
    });
  }
  // Joining is safe even when a rank died mid-collective: raise_abort has
  // already released every blocked peer via AbortedError.
  for (auto& t : threads) t.join();

  if (rank_stats != nullptr) *rank_stats = std::move(stats_store);
  if (rank_traces != nullptr) *rank_traces = std::move(trace_store);
  if (options.rank_metrics != nullptr) {
    *options.rank_metrics = std::move(metrics_store);
  }

  // Classify failures and pick the root cause: prefer a genuine error over
  // a watchdog TimeoutError over secondary AbortedErrors (which only say
  // "someone else failed first").
  std::vector<int> failed;
  std::vector<ClassifiedError> classified(p);
  for (int r = 0; r < p; ++r) {
    if (!errors[r]) continue;
    classified[r] = classify(errors[r]);
    failed.push_back(r);
  }
  if (failed.empty()) return;

  int root = -1;
  for (const int r : failed) {
    if (!classified[r].is_aborted && !classified[r].is_timeout) {
      root = r;
      break;
    }
  }
  if (root < 0) {
    for (const int r : failed) {
      if (classified[r].is_timeout) {
        root = r;
        break;
      }
    }
  }
  if (root < 0) root = failed.front();

  if (options.failures != nullptr) {
    options.failures->clear();
    for (const int r : failed) {
      RankFailure f;
      f.rank = r;
      f.root_cause = (r == root);
      f.what = classified[r].what;
      // Quiesced snapshot (all rank threads are joined): exact, gap-free
      // modulo the ring's dropped count.
      f.flight = flight_store[r].timeline();
      options.failures->push_back(std::move(f));
    }
  }

  // The stderr report explains *asymmetric* death — who failed first and
  // who got dragged down. When every rank failed genuinely (no secondary
  // aborts, no timeouts) with one identical message, the unwind was
  // synchronized — a replicated precondition failure or a cooperative
  // preemption yield — and the rethrown exception already says everything.
  bool synchronized = static_cast<int>(failed.size()) == p;
  for (const int r : failed) {
    if (classified[r].is_aborted || classified[r].is_timeout ||
        classified[r].what != classified[root].what) {
      synchronized = false;
      break;
    }
  }
  if (failed.size() > 1 && !synchronized) {
    std::fprintf(stderr, "rahooi: run aborted, %zu of %d ranks failed:\n",
                 failed.size(), p);
    for (const int r : failed) {
      std::fprintf(stderr, "  rank %d%s: %s\n", r,
                   r == root ? " (root cause)" : "",
                   classified[r].what.c_str());
    }
  }
  std::rethrow_exception(classified[root].ptr);
}

}  // namespace rahooi::comm
