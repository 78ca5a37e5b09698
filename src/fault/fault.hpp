#pragma once
// Deterministic fault injection for the thread-based message-passing runtime
// (docs/ROBUSTNESS.md). A seeded Plan of nth-call matchers is installed
// either process-wide (ScopedPlan) or in the RankContext of one world's
// rank threads (comm::RunOptions::fault_plan, set by Runtime::run); the comm
// layer calls the inject hooks at every collective entry (and on selected
// payloads), and the solver loop exposes a per-sweep site ("sweep"). A
// world's plan shadows the process plan on its rank threads. With no plan
// installed anywhere every hook is one relaxed atomic load — the
// production hot path pays nothing.
//
// Actions:
//  * delay      — sleep `delay_ms` at the matched site (skew/straggler).
//  * transient  — throw comm::CommError at the matched site. Collectives
//                 retry transient faults with bounded exponential backoff
//                 (with_retry); a burst longer than the retry budget
//                 propagates and kills the rank.
//  * bitflip    — flip one bit of the matched collective's payload
//                 (seeded position unless `bit` pins it), exercising the
//                 solver's numerical guards.
//  * kill       — throw RankKilledError: hard rank death, never retried.
//                 The runtime's abort propagation must release the peers.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "comm/errors.hpp"
#include "metrics/metrics.hpp"

namespace rahooi::fault {

/// Injected hard rank death. Deliberately not a CommError: retry wrappers
/// must not resurrect a killed rank.
class RankKilledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Action { delay, transient, bitflip, kill };

/// One fault rule: fires at matching calls number [nth, nth + count) of the
/// site (op, rank). Counting is per rule across the whole run.
struct Rule {
  static constexpr std::uint64_t kRandomBit = ~std::uint64_t{0};

  std::string op = "*";  ///< site name ("allreduce", "barrier", "sweep", "*")
  int rank = -1;         ///< world rank to fault, -1 = any
  std::uint64_t nth = 0;    ///< first matching call to fire on (0-based)
  std::uint64_t count = 1;  ///< how many consecutive matches fire
  Action action = Action::transient;
  double delay_ms = 1.0;             ///< Action::delay
  std::uint64_t bit = kRandomBit;    ///< Action::bitflip: bit index into the
                                     ///< payload (mod size), or seeded random
};

/// Backoff schedule the collectives' retry wrapper uses for transient
/// faults: attempt k sleeps base_delay_ms * multiplier^(k-1).
struct RetryPolicy {
  int max_attempts = 4;
  double base_delay_ms = 0.05;
  double multiplier = 2.0;
};

/// A copyable handle to a shared fault plan (rule list + retry policy +
/// seed). Thread-safe to match against concurrently; build it fully before
/// installing. Every thread holding the same Plan shares one set of rule
/// counters: the runtime sets a job's plan in each rank thread's
/// RankContext, so nth-call matching spans the world while concurrent
/// worlds with different plans never cross-inject.
class Plan {
 public:
  explicit Plan(std::uint64_t seed = 1);

  Plan& add(const Rule& rule);
  Plan& set_retry(const RetryPolicy& policy);

  RetryPolicy retry() const;
  std::size_t size() const;
  Rule rule(std::size_t i) const;
  /// How many times rule `i` has fired so far (test introspection).
  std::uint64_t fired(std::size_t i) const;

  /// Parses the plan syntax documented in docs/ROBUSTNESS.md:
  ///   plan   := rule (';' rule)*
  ///   rule   := action ':' op ['@' rank] ['#' nth] ['*' count] ['=' param]
  ///   action := kill | transient | delay | bitflip
  /// `param` is the delay in ms (delay) or the bit index (bitflip). '%' is
  /// accepted as an alias for '#' (driver parameter files treat '#' as a
  /// comment). Examples: "kill:sweep@3#1", "transient:allreduce@1*2",
  /// "delay:barrier=5", "bitflip:allreduce@0#2=62".
  static Plan parse(const std::string& spec, std::uint64_t seed = 1);

  /// Opaque shared state (rule list + counters); defined in fault.cpp only.
  struct Impl;

 private:
  friend class ScopedPlan;
  friend std::shared_ptr<Impl> installed_plan();

  std::shared_ptr<Impl> impl_;
};

/// Installs `plan` as the process-wide fault plan for the lifetime of the
/// scope, restoring the previous one on destruction.
class ScopedPlan {
 public:
  explicit ScopedPlan(const Plan& plan);
  ~ScopedPlan();

  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

 private:
  std::shared_ptr<Plan::Impl> prev_;
};

/// True when a plan is installed (one relaxed atomic load).
bool active();

/// The installed plan's retry policy (defaults when no plan is installed).
RetryPolicy retry_policy();

/// Site hook: may sleep (delay), throw comm::CommError (transient), or
/// throw RankKilledError (kill). No-op without an installed plan. Rules
/// match the thread's world rank (RankContext::world_rank) on a Runtime
/// rank thread, else `rank` — the caller's communicator rank.
void inject_point(const char* op, int rank);

/// Payload hook: may flip one bit of [data, data + bytes). No-op without an
/// installed plan. `rank` as for inject_point.
void inject_payload(const char* op, int rank, void* data, std::size_t bytes);

/// Sleeps `ms` milliseconds (sub-millisecond values supported).
void sleep_ms(double ms);

/// Runs `f`, retrying injected transient comm::CommErrors with the
/// installed plan's bounded exponential backoff. Rethrows the last
/// CommError once the attempt budget is exhausted; all other exceptions
/// (including RankKilledError) propagate immediately.
template <typename F>
void with_retry(F&& f) {
  if (!active()) {
    f();
    return;
  }
  const RetryPolicy policy = retry_policy();
  double delay = policy.base_delay_ms;
  for (int attempt = 1;; ++attempt) {
    try {
      f();
      return;
    } catch (const comm::CommError&) {
      if (attempt >= policy.max_attempts) throw;
      if (metrics::Registry* reg = metrics::registry()) {
        reg->count(metrics::Counter::fault_retries);
      }
      sleep_ms(delay);
      delay *= policy.multiplier;
    }
  }
}

}  // namespace rahooi::fault
