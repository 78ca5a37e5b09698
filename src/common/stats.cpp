#include "common/stats.hpp"

#include <chrono>
#include <iterator>
#include <numeric>

namespace rahooi {

namespace {

constinit thread_local RankContext t_rank_context;

}  // namespace

// Out of line on purpose: with the accessor inlined, GCC 12 under
// -fsanitize=address,undefined miscompiles UBSan's null check of the
// thread-local address at some call sites (a branch on stale flags) and
// reports a null access that cannot happen.
RankContext& rank_context() { return t_rank_context; }

const char* phase_name(Phase p) {
  static constexpr const char* kNames[] = {
      "ttm", "gram", "evd", "qr", "contraction", "core_analysis", "other"};
  static_assert(std::size(kNames) == kPhaseCount);
  const auto i = static_cast<std::size_t>(p);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* collective_name(CollectiveKind k) {
  static constexpr const char* kNames[] = {
      "bcast", "reduce", "allreduce", "reduce_scatter", "allgather",
      "alltoall", "p2p"};
  static_assert(std::size(kNames) == kCollectiveCount);
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

double Stats::total_flops() const {
  return std::accumulate(flops.begin(), flops.end(), 0.0);
}

double Stats::total_comm_bytes() const {
  return std::accumulate(comm_bytes.begin(), comm_bytes.end(), 0.0);
}

double Stats::total_seconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

double Stats::sequential_flops() const {
  return flops[static_cast<int>(Phase::evd)] +
         flops[static_cast<int>(Phase::qr)];
}

double Stats::parallel_flops() const {
  return total_flops() - sequential_flops();
}

Stats& Stats::operator+=(const Stats& o) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    flops[i] += o.flops[i];
    comm_bytes_by_phase[i] += o.comm_bytes_by_phase[i];
    seconds[i] += o.seconds[i];
  }
  for (std::size_t i = 0; i < kCollectiveCount; ++i) {
    comm_bytes[i] += o.comm_bytes[i];
    messages[i] += o.messages[i];
  }
  return *this;
}

void Stats::reset() { *this = Stats{}; }

namespace stats {

void add_flops(double n) {
  const RankContext& rc = rank_context();
  if (rc.stats != nullptr) rc.stats->flops[static_cast<int>(rc.phase)] += n;
}

void add_comm(CollectiveKind k, double bytes) {
  const RankContext& rc = rank_context();
  if (rc.stats != nullptr) {
    rc.stats->comm_bytes[static_cast<int>(k)] += bytes;
    rc.stats->comm_bytes_by_phase[static_cast<int>(rc.phase)] += bytes;
    rc.stats->messages[static_cast<int>(k)] += 1;
  }
}

double now() {
  using clock = std::chrono::steady_clock;
  // Monotonicity is load-bearing: TraceSpan durations and cross-rank trace
  // lanes would go negative / misalign under a wall-clock (system_clock)
  // adjustment.
  static_assert(clock::is_steady, "timing must use a monotonic clock");
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace stats

}  // namespace rahooi
