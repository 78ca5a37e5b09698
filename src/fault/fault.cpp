#include "fault/fault.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"

namespace rahooi::fault {

struct Plan::Impl {
  struct RuleState {
    Rule rule;
    std::atomic<std::uint64_t> hits{0};   ///< matching calls seen
    std::atomic<std::uint64_t> fired{0};  ///< matches inside [nth, nth+count)
  };

  explicit Impl(std::uint64_t seed_in) : seed(seed_in) {}

  /// Consumes one match of rule `rs` and reports whether it fires. The
  /// per-rule counter makes nth-call matching deterministic regardless of
  /// which rank threads interleave (each rule typically pins one rank).
  static bool consume(RuleState& rs) {
    const std::uint64_t n =
        rs.hits.fetch_add(1, std::memory_order_relaxed);
    if (n < rs.rule.nth || n >= rs.rule.nth + rs.rule.count) return false;
    rs.fired.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  static bool site_matches(const Rule& r, const char* op, int rank) {
    if (r.rank != -1 && r.rank != rank) return false;
    return r.op == "*" || r.op == op;
  }

  std::uint64_t seed;
  RetryPolicy retry;
  std::deque<RuleState> rules;  ///< deque: stable refs, atomics never move
};

namespace {

// Process-wide installed plan. g_active is the fast path read at every
// collective entry; the shared_ptr swap is mutex-protected (installation is
// rare, matching is frequent).
std::atomic<bool> g_active{false};
std::mutex g_plan_mutex;
std::shared_ptr<Plan::Impl> g_plan;

/// The rank fault rules match: the world rank on a Runtime rank thread,
/// else the caller's communicator rank.
int site_rank(int comm_rank) {
  const int world = rank_context().world_rank;
  return world >= 0 ? world : comm_rank;
}

std::shared_ptr<Plan::Impl> install(std::shared_ptr<Plan::Impl> next) {
  std::lock_guard lock(g_plan_mutex);
  std::shared_ptr<Plan::Impl> prev = std::move(g_plan);
  g_plan = std::move(next);
  g_active.store(g_plan != nullptr, std::memory_order_release);
  return prev;
}

}  // namespace

/// The plan the calling thread matches against. A world's plan in the
/// RankContext shadows the process plan entirely, which is what keeps
/// concurrent serve jobs' plans from cross-injecting (DESIGN.md §13); it is
/// checked before the global on every hook and needs no lock.
std::shared_ptr<Plan::Impl> installed_plan() {
  if (const Plan* plan = rank_context().fault_plan) return plan->impl_;
  if (!g_active.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard lock(g_plan_mutex);
  return g_plan;
}

Plan::Plan(std::uint64_t seed) : impl_(std::make_shared<Impl>(seed)) {}

Plan& Plan::add(const Rule& rule) {
  RAHOOI_REQUIRE(!rule.op.empty(), "fault rule needs a site name");
  RAHOOI_REQUIRE(rule.count >= 1, "fault rule count must be positive");
  RAHOOI_REQUIRE(rule.delay_ms >= 0.0, "fault delay must be nonnegative");
  impl_->rules.emplace_back().rule = rule;
  return *this;
}

Plan& Plan::set_retry(const RetryPolicy& policy) {
  RAHOOI_REQUIRE(policy.max_attempts >= 1 && policy.base_delay_ms >= 0.0 &&
                     policy.multiplier >= 1.0,
                 "invalid retry policy");
  impl_->retry = policy;
  return *this;
}

RetryPolicy Plan::retry() const { return impl_->retry; }

std::size_t Plan::size() const { return impl_->rules.size(); }

Rule Plan::rule(std::size_t i) const {
  RAHOOI_REQUIRE(i < impl_->rules.size(), "fault rule index out of range");
  return impl_->rules[i].rule;
}

std::uint64_t Plan::fired(std::size_t i) const {
  RAHOOI_REQUIRE(i < impl_->rules.size(), "fault rule index out of range");
  return impl_->rules[i].fired.load(std::memory_order_relaxed);
}

Plan Plan::parse(const std::string& spec, std::uint64_t seed) {
  Plan plan(seed);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;

    const std::size_t colon = token.find(':');
    RAHOOI_REQUIRE(colon != std::string::npos,
                   "fault rule '" + token + "' lacks 'action:op'");
    const std::string action = token.substr(0, colon);
    std::string site = token.substr(colon + 1);

    Rule rule;
    if (action == "kill") {
      rule.action = Action::kill;
    } else if (action == "transient") {
      rule.action = Action::transient;
    } else if (action == "delay") {
      rule.action = Action::delay;
    } else if (action == "bitflip") {
      rule.action = Action::bitflip;
    } else {
      RAHOOI_REQUIRE(false, "unknown fault action '" + action + "'");
    }

    // Optional '=' param, then '@rank', '#nth', '*count' in any order.
    // '%' is an alias for '#' so plans are writable in driver parameter
    // files, where '#' starts a comment.
    const auto take = [&site](char sep) -> std::string {
      const std::size_t at = site.find(sep);
      if (at == std::string::npos) return {};
      std::size_t stop = site.size();
      for (const char other : {'@', '#', '%', '*', '='}) {
        const std::size_t next = site.find(other, at + 1);
        if (next != std::string::npos && next < stop) stop = next;
      }
      const std::string value = site.substr(at + 1, stop - at - 1);
      site.erase(at, stop - at);
      RAHOOI_REQUIRE(!value.empty(), std::string("empty fault rule field '") +
                                         sep + "'");
      return value;
    };
    const std::string param = take('=');
    const std::string rank = take('@');
    std::string nth = take('#');
    if (nth.empty()) nth = take('%');
    const std::string count = take('*');
    if (!rank.empty()) rule.rank = std::stoi(rank);
    if (!nth.empty()) rule.nth = std::stoull(nth);
    if (!count.empty()) rule.count = std::stoull(count);
    if (!param.empty()) {
      if (rule.action == Action::bitflip) {
        rule.bit = std::stoull(param);
      } else {
        rule.delay_ms = std::stod(param);
      }
    }
    rule.op = site;
    plan.add(rule);
  }
  return plan;
}

ScopedPlan::ScopedPlan(const Plan& plan) : prev_(install(plan.impl_)) {}

ScopedPlan::~ScopedPlan() { install(std::move(prev_)); }

bool active() {
  return rank_context().fault_plan != nullptr ||
         g_active.load(std::memory_order_relaxed);
}

RetryPolicy retry_policy() {
  const auto plan = installed_plan();
  return plan ? plan->retry : RetryPolicy{};
}

void inject_point(const char* op, int rank) {
  const auto plan = installed_plan();
  if (!plan) return;
  rank = site_rank(rank);
  for (auto& rs : plan->rules) {
    if (rs.rule.action == Action::bitflip) continue;
    if (!Plan::Impl::site_matches(rs.rule, op, rank)) continue;
    if (!Plan::Impl::consume(rs)) continue;
    // The rule fired: leave a flight-recorder mark before acting, so the
    // post-mortem timeline shows the injection site even when the action
    // throws and unwinds the rank.
    if (obs::FlightRecorder* fr = obs::flight_recorder()) {
      fr->record(obs::RecordKind::fault_hit, op);
    }
    switch (rs.rule.action) {
      case Action::delay:
        sleep_ms(rs.rule.delay_ms);
        break;  // a delay composes with later rules
      case Action::transient:
        throw comm::CommError(std::string("injected transient fault at ") +
                              op + " on rank " + std::to_string(rank));
      case Action::kill:
        throw RankKilledError(std::string("injected rank death at ") + op +
                              " on rank " + std::to_string(rank));
      case Action::bitflip:
        break;  // unreachable, filtered above
    }
  }
}

void inject_payload(const char* op, int rank, void* data, std::size_t bytes) {
  const auto plan = installed_plan();
  if (!plan || bytes == 0) return;
  rank = site_rank(rank);
  for (auto& rs : plan->rules) {
    if (rs.rule.action != Action::bitflip) continue;
    if (!Plan::Impl::site_matches(rs.rule, op, rank)) continue;
    if (!Plan::Impl::consume(rs)) continue;
    if (obs::FlightRecorder* fr = obs::flight_recorder()) {
      fr->record(obs::RecordKind::fault_hit, op, double(bytes));
    }
    std::uint64_t bit = rs.rule.bit;
    if (bit == Rule::kRandomBit) {
      const std::uint64_t n =
          rs.fired.load(std::memory_order_relaxed) +
          (rs.rule.rank == -1 ? 0u : static_cast<std::uint64_t>(rank));
      bit = CounterRng(plan->seed).stream(0xB17F11Bull).bits(n);
    }
    bit %= bytes * 8;
    static_cast<unsigned char*>(data)[bit / 8] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  }
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace rahooi::fault
