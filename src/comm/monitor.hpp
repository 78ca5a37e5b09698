#pragma once
// World health monitor: the shared state behind the fault-tolerant runtime.
//
// One Monitor is shared by a world communicator and every sub-communicator
// split from it. It owns three concerns (DESIGN.md §9, docs/ROBUSTNESS.md):
//
//  * the *sticky abort flag*: once any rank raises it, every blocked and
//    every future collective wait on any attached context wakes and throws
//    AbortedError. The flag is per-world (not per-collective) because after
//    one rank dies no collective over that world can ever complete — the
//    world is dead as a unit, and polling per collective would leave ranks
//    parked in earlier rendezvous hanging.
//  * the *park registry*: each rank thread records which collective it is
//    currently blocked in (and the prof span path at entry, when a
//    Recorder is installed), so a watchdog firing can report exactly where
//    every rank is stuck.
//  * the *watchdog deadline*: an opt-in bound on collective waits
//    (RAHOOI_COLLECTIVE_TIMEOUT_MS or RunOptions::collective_timeout_s). A wait
//    exceeding it dumps the park registry, aborts the world, and throws
//    TimeoutError — turning silent mismatched-collective deadlocks into
//    actionable diagnostics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/errors.hpp"
#include "comm/schedule_check.hpp"
#include "obs/flight_recorder.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {

class Context;

/// One rank's outcome in an aborted run (Runtime failure report).
struct RankFailure {
  int rank = -1;
  bool root_cause = false;  ///< this rank's error is the one rethrown
  std::string what;
  /// The rank's flight-recorder timeline at unwind — what the rank was
  /// doing in its last ~256 events (docs/OBSERVABILITY.md). Always
  /// populated by Runtime::run; recording is on for every rank thread.
  obs::RankTimeline flight;
};

class Monitor {
 public:
  explicit Monitor(int world_size);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  int world_size() const { return world_size_; }

  // -- sticky abort flag ---------------------------------------------------

  /// Raises the abort flag and wakes every wait on every attached context.
  /// First raiser wins (its rank/what become the recorded origin); returns
  /// whether this call was the first.
  bool raise_abort(int origin_rank, const std::string& what);

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Throws AbortedError carrying the recorded origin. Pre: aborted().
  [[noreturn]] void throw_aborted() const;

  // -- watchdog ------------------------------------------------------------

  /// Deadline in seconds for any single collective wait; <= 0 disables.
  void set_timeout(double seconds) {
    timeout_s_.store(seconds, std::memory_order_relaxed);
  }
  double timeout() const { return timeout_s_.load(std::memory_order_relaxed); }

  // -- collective-schedule sanitizer ---------------------------------------

  /// Enables the collective-schedule divergence sanitizer on every context
  /// attached to this world (docs/STATIC_ANALYSIS.md). Off by default: the
  /// disabled fast path is one relaxed atomic load per collective.
  void set_comm_check(bool on) {
    comm_check_.store(on, std::memory_order_relaxed);
  }
  bool comm_check() const {
    return comm_check_.load(std::memory_order_relaxed);
  }

  // -- park registry -------------------------------------------------------

  /// Marks `world_rank` as blocked in collective `op` (entered now). `path`
  /// is the caller's prof span path at entry ("" when no Recorder).
  void park(int world_rank, const char* op, std::string path);
  void unpark(int world_rank);

  /// Human-readable snapshot of where every rank currently is — the
  /// diagnostic a firing watchdog attaches to its TimeoutError. When flight
  /// recorders are registered, each rank's line is followed by the tail of
  /// its recorder ring (last few span/collective/fault records).
  std::string park_report() const;

  // -- flight recorders ----------------------------------------------------

  /// Registers `world_rank`'s flight recorder so park_report() can render
  /// its tail. The recorder must outlive the world's rank threads (it lives
  /// in Runtime::run's frame, like the stats store). nullptr deregisters.
  void set_flight_recorder(int world_rank, const obs::FlightRecorder* fr);

  // -- context wakeup registration ----------------------------------------

  /// Registers a context whose waits must be woken on abort (the world
  /// context and every child split from it).
  void attach(std::weak_ptr<Context> ctx);

 private:
  struct ParkSlot {
    mutable std::mutex m;
    const char* op = nullptr;  ///< nullptr: not blocked in a collective
    double since = 0.0;
    std::string path;
    std::uint64_t entered = 0;  ///< collectives entered so far
  };

  void wake_all();

  int world_size_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> comm_check_{false};
  std::atomic<double> timeout_s_{0.0};
  mutable std::mutex mutex_;  ///< guards origin_rank_/what_/contexts_
  int origin_rank_ = -1;
  std::string what_;
  std::vector<std::weak_ptr<Context>> contexts_;
  std::vector<ParkSlot> slots_;  ///< fixed size world_size_, never resized
  /// Per-rank flight recorders for park_report (guarded by mutex_; reads of
  /// the recorders themselves are lock-free snapshots).
  std::vector<const obs::FlightRecorder*> recorders_;
};

/// The one scope every Comm entry point opens before its first rendezvous.
/// Its row of the collective table names everything it does, in order:
///  * opens the prof span (so the span encloses the whole collective);
///  * registers the rank in the park registry (with the prof span path when
///    a Recorder is installed and the watchdog is armed);
///  * records the flight-recorder post;
///  * runs the fault-injection entry hook — transient injected CommErrors
///    are retried here with bounded exponential backoff; exhaustion lets the
///    CommError propagate and kill the rank.
/// done(bytes) then counts the call once, feeding Stats, the metrics
/// histograms and the flight-recorder complete record from one figure. A
/// collective that returns normally without counting (barrier, split, recv,
/// every P = 1 early return) records a complete with 0 bytes on
/// destruction, so every post has its complete.
class CollectiveGuard {
 public:
  CollectiveGuard(Context* ctx, int comm_rank, SchedOp op);
  ~CollectiveGuard();

  CollectiveGuard(const CollectiveGuard&) = delete;
  CollectiveGuard& operator=(const CollectiveGuard&) = delete;

  /// Cross-validates this call's replicated arguments (schedule_check.hpp);
  /// fields that are not part of the op's contract stay zero / -1.
  void check(std::uint32_t dtype = 0, int root = -1, std::uint64_t bytes = 0,
             std::uint64_t blocks = 0) const;

  /// Payload fault hook (bitflip rules) at this collective's site.
  void inject_payload(void* data, std::size_t bytes) const;

  /// Counts the call: `bytes` sent by this rank, one message.
  void done(double bytes);

 private:
  prof::TraceSpan span_;  ///< first member: opened first, closed last
  RankContext& rc_;
  const CollectiveDesc& desc_;
  SchedOp op_;
  Context* ctx_;
  int comm_rank_;
  Monitor* mon_ = nullptr;
  /// World rank for the park registry and fault matching (the
  /// communicator rank off a Runtime rank thread).
  int world_rank_ = -1;
  int uncaught_;        ///< std::uncaught_exceptions() at entry
  bool done_ = false;
  double t0_ = 0.0;     ///< entry time (metrics on only)
};

}  // namespace rahooi::comm
