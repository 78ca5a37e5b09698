#pragma once
// Dynamic collective-schedule divergence sanitizer (MUST-style; see
// docs/STATIC_ANALYSIS.md and DESIGN.md §10).
//
// The whole stack relies on every rank of a communicator executing the
// *same* sequence of collectives with compatible replicated arguments —
// fallback chains, rank-adaptive truncation decisions, and fault recovery
// are only safe because every such decision is a function of replicated
// data. Nothing enforces that invariant at runtime: a divergent schedule
// normally shows up as a deadlock (caught late by the watchdog) or, worse,
// as silently mismatched payloads.
//
// When enabled (RunOptions::comm_check / RAHOOI_COMM_CHECK), every
// collective entry records a fingerprint — op kind, communicator id, root,
// dtype, byte count, reduce-scatter block count — chained into a per-rank
// rolling FNV-1a schedule hash, and the fingerprints are cross-validated at
// an extra rendezvous before the collective runs. A mismatch aborts the world with a report naming
// both ranks' ops, prof span paths, and the first mismatching call index.
//
// Overhead when off: one relaxed atomic load per collective (the
// Monitor::comm_check flag), checked in Context::schedule_check. When on:
// one slot write plus two extra barriers per collective — strictly a
// debugging/CI mode.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.hpp"

namespace rahooi::comm {

class Context;

/// Comm entry points, one per row of the collective table below. Tagged
/// point-to-point send/recv are deliberately never fingerprinted: they
/// involve only two ranks, so a communicator-wide rendezvous on them would
/// itself deadlock.
enum class SchedOp : std::uint8_t {
  barrier,
  bcast,
  reduce,
  allreduce,
  allreduce_max,
  reduce_scatter,
  allgatherv,
  alltoallv,
  split,
  send,
  recv,
  count_
};

constexpr std::size_t kSchedOpCount = static_cast<std::size_t>(SchedOp::count_);

/// One row of the collective table: every name and accounting slot a Comm
/// entry point reports under, read by comm::CollectiveGuard.
struct CollectiveDesc {
  const char* name;  ///< schedule-sanitizer report name (unique per row)
  const char* span;  ///< prof::TraceSpan name
  const char* site;  ///< fault-injection site and flight-recorder op
  /// Stats/metrics slot; count_ = never counted (barrier and split move no
  /// payload; p2p bytes are counted once, by the sender).
  CollectiveKind kind;
};

/// The collective table, indexed by SchedOp.
inline constexpr std::array<CollectiveDesc, kSchedOpCount> kCollectiveTable{{
    {"barrier", "barrier", "barrier", CollectiveKind::count_},
    {"bcast", "bcast", "bcast", CollectiveKind::bcast},
    {"reduce", "reduce", "reduce", CollectiveKind::reduce},
    {"allreduce", "allreduce", "allreduce", CollectiveKind::allreduce},
    {"allreduce_max", "allreduce", "allreduce", CollectiveKind::allreduce},
    {"reduce_scatter", "reduce_scatter", "reduce_scatter",
     CollectiveKind::reduce_scatter},
    {"allgatherv", "allgatherv", "allgather", CollectiveKind::allgather},
    {"alltoallv", "alltoallv", "alltoall", CollectiveKind::alltoall},
    {"split", "split", "split", CollectiveKind::count_},
    {"send", "send", "send", CollectiveKind::point_to_point},
    {"recv", "recv", "recv", CollectiveKind::count_},
}};

constexpr const CollectiveDesc& collective_desc(SchedOp op) {
  return kCollectiveTable[static_cast<std::size_t>(op)];
}

/// Packed element-type tag: size byte plus float/signed flags. The same T
/// yields the same tag on every rank; distinct fundamental types used by the
/// collectives yield distinct tags.
template <typename T>
constexpr std::uint32_t sched_dtype_tag() {
  return static_cast<std::uint32_t>(sizeof(T)) |
         (std::is_floating_point_v<T> ? 0x100u : 0u) |
         (std::is_signed_v<T> ? 0x200u : 0u);
}

/// Render a tag for reports: "f8", "i4", "u2", ... ("-" for tag 0, ops
/// without a payload).
std::string sched_dtype_name(std::uint32_t tag);

/// The replicated-argument fingerprint of one collective call. Fields that
/// may legitimately differ across ranks (alltoallv per-rank counts, split
/// colors/keys) are excluded — zero means "not part of this op's contract".
struct SchedFingerprint {
  SchedOp op = SchedOp::barrier;
  std::uint32_t dtype = 0;   ///< sched_dtype_tag<T>(), 0 when no payload
  std::int32_t root = -1;    ///< root rank, -1 when the op has none
  std::uint64_t bytes = 0;   ///< replicated payload bytes, 0 otherwise
  std::uint64_t blocks = 0;  ///< reduce_scatter block count, 0 otherwise

  bool operator==(const SchedFingerprint&) const = default;
};

/// Per-communicator sanitizer state: one slot per rank with its rolling
/// schedule hash, call count, and in-flight fingerprint + prof span path.
/// Owned by Context; all cross-rank slot accesses are ordered by the
/// context's rendezvous barriers, so the slots need no locks of their own.
class ScheduleChecker {
 public:
  explicit ScheduleChecker(int size);

  /// The sanitizer rendezvous run before a collective's own first barrier:
  /// records `fp` (chaining this rank's rolling hash), cross-validates every
  /// rank's fingerprint between an entry and an exit barrier of `ctx`, and —
  /// on any mismatch — raises the world abort and throws
  /// ScheduleDivergenceError on *every* rank after the exit barrier, so no
  /// peer is left parked in a rendezvous that cannot complete.
  void check(Context& ctx, int comm_rank, const SchedFingerprint& fp);

  std::uint64_t comm_id() const { return comm_id_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< rolling FNV-1a, seeded by the constructor
    std::uint64_t calls = 0;
    int world_rank = -1;
    SchedFingerprint fp;
    std::string path;  ///< prof span path at entry ("" without a Recorder)
  };

  std::string divergence_report(int rank_a, int rank_b) const;

  std::uint64_t comm_id_;
  std::vector<Slot> slots_;
};

}  // namespace rahooi::comm
