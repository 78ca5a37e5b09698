#pragma once
// rahooi::serve — multi-tenant solve scheduler (docs/SERVING.md).
//
// Accepts many concurrent Tucker-decomposition jobs (in-memory SolveRequests
// carrying the same parameter keys as the hooi_driver, or param files loaded
// into one), runs them on a shared pool of rank threads that time-multiplexes
// several comm::Runtime worlds, and returns serve::SolveReports. The layer
// *wires* the existing substrates rather than rebuilding them:
//
//  * isolation/fault runtime — every job runs in its own Runtime::run world
//    (fresh Monitor + Context per call), so a rank killed or a watchdog
//    abort in one job unwinds that world completely (run() always joins all
//    rank threads) and never poisons the pool or a neighbor job; a job's
//    "Fault plan" is scoped to its own world (RunOptions::fault_plan), so
//    concurrent jobs never cross-inject;
//  * resilience — jobs carry a RetryPolicy: a *transient* failure (injected
//    kill, watchdog timeout, comm fault) requeues the job with deterministic
//    backoff and, when the job checkpoints, the next attempt resumes from
//    the last sweep boundary instead of from scratch. A queued high-priority
//    job that cannot get ranks asks the lowest-priority running job to
//    checkpoint-and-yield at its next sweep boundary (cooperative
//    preemption; the victim requeues and resumes later);
//  * elastic sizing — when a request carries no "Processor grid dims", the
//    model:: cost machinery picks the rank count and grid from the tensor
//    shape and solver configuration (plan_ranks);
//  * result cache — completed solves are cached under a fingerprint of the
//    result-affecting parameter keys (io::param_key_table order), so a
//    repeated request returns the *same* factors without running a world;
//  * metrics — the scheduler owns one metrics::Registry with SLO counters
//    (serve_submitted/completed/cache_hits/shed/deadline_misses/failed), a
//    queue-depth gauge, per-stage latency histograms, and one "solve"
//    telemetry event per finished job (docs/OBSERVABILITY.md).
//
// Admission: jobs queue in (priority desc, submission order) and dispatch
// strictly head-of-line — a large job waiting for ranks is never overtaken
// by a smaller one, so nothing starves. When the queue is full, a new job
// is shed at submit unless it outranks a queued job, in which case the
// lowest-priority (latest-submitted) such job is evicted instead. Shed and
// deadline-missed jobs still produce well-formed reports — reported, never
// dropped.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/request.hpp"
#include "core/solve_report.hpp"
#include "fault/fault.hpp"
#include "io/param_file.hpp"
#include "metrics/metrics.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "tensor/tucker_tensor.hpp"

namespace rahooi::serve {

using la::idx_t;

// ---------------------------------------------------------------------------
// Requests and reports
// ---------------------------------------------------------------------------

enum class Priority : int { low = 0, normal = 1, high = 2 };

const char* priority_name(Priority p);

/// Parses "low" | "normal" | "high"; throws precondition_error otherwise.
Priority priority_from_name(const std::string& name);

/// Terminal state of one job.
enum class Outcome : int {
  completed = 0,  ///< solve ran and produced a result
  cache_hit,      ///< answered from the result cache (shares the factors)
  shed,           ///< load-shed: queue full, evicted, or scheduler shutdown
  deadline_miss,  ///< deadline expired before the job could be dispatched
  failed,         ///< the solve threw (injected fault, watchdog, bad request)
};

const char* outcome_name(Outcome o);

/// Per-job retry policy (retry-with-resume, docs/ROBUSTNESS.md). Defaults
/// run a job exactly once, so transient failures report Outcome::failed the
/// way they always did. With max_attempts > 1, a *transient* failure
/// (comm::CommError, comm::TimeoutError, comm::AbortedError,
/// fault::RankKilledError — faults of the world, not of the request)
/// requeues the job; deterministic failures (precondition_error,
/// numerical_error, checkpoint corruption, schedule divergence) never
/// retry. When the job checkpoints, the retry resumes from the last sweep
/// boundary instead of starting over. Populated from the "Serve max
/// attempts" / "Serve retry backoff ms" / "Serve retry jitter ms" keys.
struct RetryPolicy {
  int max_attempts = 1;          ///< total solve attempts (1 = no retry)
  double backoff_base_ms = 0.0;  ///< attempt k redispatches after base * 2^(k-1)
  /// Upper bound of the additive jitter, drawn from the counter-based RNG
  /// keyed by (job id, attempt) — deterministic for a fixed submission
  /// order, so soak tests replay exactly.
  double jitter_ms = 0.0;
};

/// One decomposition job. `params` uses the hooi_driver parameter keys
/// (io::param_key_table scope "serve"); priority/deadline may equivalently
/// come from the "Serve priority" / "Serve deadline s" keys, which override
/// the struct fields when present.
struct SolveRequest {
  std::string name;     ///< caller label, echoed in the report and events
  io::ParamFile params;
  Priority priority = Priority::normal;
  double deadline_s = 0.0;  ///< seconds from submit; 0 = no deadline
};

/// The solved decomposition, shared between a completed report and any
/// cache hits of the same fingerprint (hits return bitwise-identical
/// factors because they alias this object).
struct JobResult {
  bool single = true;  ///< which member is populated
  tensor::TuckerTensor<float> tucker_f;
  tensor::TuckerTensor<double> tucker_d;
};

/// Final report of one job. Every submitted job gets exactly one, whatever
/// its outcome — shed and deadline-missed jobs report too.
struct SolveReport {
  std::uint64_t id = 0;
  std::string name;
  Outcome outcome = Outcome::failed;
  std::string error;          ///< failure/shed/miss cause ("" on success)
  Priority priority = Priority::normal;
  int ranks_used = 0;         ///< world size the solve ran on (0 if it never ran)
  std::vector<int> grid;      ///< processor grid (planned, possibly elastic)
  bool elastic_grid = false;  ///< grid chosen by the cost model, not the request
  std::uint64_t fingerprint = 0;  ///< result-cache key component
  bool deadline_overrun = false;  ///< completed, but after its deadline
  int attempts = 0;     ///< solve attempts consumed (>= 2 means it retried)
  int resumes = 0;      ///< attempts that restored the job's checkpoint
  int preemptions = 0;  ///< times the job checkpoint-yielded to a high job
  std::vector<idx_t> tucker_ranks;
  double rel_error = -1.0;
  idx_t compressed_size = 0;
  double queue_seconds = 0.0;  ///< submit -> dispatch (or terminal decision)
  double solve_seconds = 0.0;  ///< dispatch -> result (0 for non-running outcomes)
  double total_seconds = 0.0;  ///< submit -> report
  core::SolveReport solve;     ///< degradation telemetry of the solve (rank 0)
  /// Trace id minted for this job at submit (obs::mint_trace_id of the job
  /// id and submission sequence). Every metrics event, solver report, and
  /// flight timeline the job's worlds produced carries the same id, so a
  /// post-mortem joins them without guessing (docs/OBSERVABILITY.md).
  std::uint64_t trace_id = 0;
  /// Per-rank flight-recorder timelines of the most recent *failed or
  /// preempted* attempt (one entry per world rank). Empty for jobs that
  /// never hit a world fault; retained even when a later retry succeeds, so
  /// the report shows what the absorbed fault looked like.
  std::vector<obs::RankTimeline> flight;
  std::shared_ptr<const JobResult> result;  ///< null unless ok()

  bool ok() const {
    return outcome == Outcome::completed || outcome == Outcome::cache_hit;
  }
};

// ---------------------------------------------------------------------------
// Elastic rank planning and cache fingerprinting
// ---------------------------------------------------------------------------

struct RankPlan {
  int p = 1;
  std::vector<int> grid;
  bool elastic = false;  ///< true when the cost model chose the grid
};

/// Chooses the job's world size and grid from its parsed spec. A request
/// carrying "Processor grid dims" gets exactly that grid (rejected when it needs more ranks
/// than the pool owns). Otherwise the model:: cost machinery evaluates the
/// power-of-two world sizes up to `pool_ranks` — best grid per size, the
/// roofline runtime model, plus a per-rank world-spawn overhead term — and
/// picks the *smallest* world within 15% of the fastest, so small jobs
/// leave ranks free for neighbors (multi-tenancy beats the last few percent
/// of one job's speedup).
RankPlan plan_ranks(const core::SolveSpec& spec, int pool_ranks);

/// FNV-1a fingerprint of the result-affecting parameters: walks
/// io::param_key_table in order and hashes every present key with
/// `cache_key` set. Keys outside the table (and non-result keys like output
/// paths or deadlines) do not perturb the fingerprint. Combined with eps
/// ("HOOI-Adapt Threshold") and "SVD Method" being table entries, this is
/// the (dataset fingerprint, eps, SvdMethod) cache key of docs/SERVING.md.
std::uint64_t request_fingerprint(const io::ParamFile& params);

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

struct ServeOptions {
  int pool_ranks = 8;   ///< total rank-thread budget shared by running jobs
  int workers = 2;      ///< dispatcher threads (= max concurrently running jobs)
  std::size_t max_queue = 32;      ///< queued-job cap before load shedding
  std::size_t cache_capacity = 16; ///< LRU result-cache entries (0 disables)
  /// Per-job collective hang-watchdog deadline (seconds; 0 = per-request
  /// "Collective timeout ms" only). The larger of the two applies.
  double collective_timeout_s = 0.0;
  /// Collective-schedule divergence sanitizer for job worlds
  /// (comm::RunOptions::comm_check semantics: -1 env/build default).
  int comm_check = -1;
  /// Construct with dispatch paused: submissions queue but nothing runs
  /// until start(). Makes admission-order tests and saturation benches
  /// deterministic.
  bool start_paused = false;
  /// When non-empty, every job without an explicit "Checkpoint file" key
  /// checkpoints to `<checkpoint_dir>/job-<id>.rhk` — the substrate of
  /// retry-with-resume and checkpoint preemption. Empty (default): only
  /// jobs that ask for a checkpoint get one, and a preemption request
  /// passes over jobs with nowhere to save their state.
  std::string checkpoint_dir;
  /// Keep job checkpoint files after successful completion (debugging aid;
  /// also per-request via "Serve keep checkpoint"). Default deletes the
  /// checkpoint once its job completes — it only existed to survive
  /// faults. Checkpoints of *failed* jobs are always kept for post-mortems.
  bool keep_checkpoints = false;
};

class Scheduler {
 public:
  using JobId = std::uint64_t;

  explicit Scheduler(ServeOptions options = {});
  ~Scheduler();  ///< sheds queued jobs, finishes running ones, joins workers

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits (or sheds) a job; never blocks on solving. The returned id is
  /// always valid to wait() on — a shed job yields its report immediately.
  JobId submit(SolveRequest req);

  /// Blocks until the job reaches a terminal outcome and returns its report.
  SolveReport wait(JobId id);

  /// Waits for every submitted job and returns all reports in submit order.
  std::vector<SolveReport> drain();

  /// Releases dispatch after ServeOptions::start_paused construction.
  void start();

  /// Snapshot of the scheduler's metrics registry (SLO counters, queue
  /// gauge, latency histograms, per-job events), taken under the lock.
  metrics::Registry metrics() const;

  /// Point-in-time scheduler introspection, taken under the lock: queue
  /// depth (total and by priority), one JobStatus row per queued and
  /// running job, cache occupancy, and the rank-pool budget. This is the
  /// producer side of the obs::Exporter exposition/status files
  /// (docs/OBSERVABILITY.md "The live plane").
  obs::Status status() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct Job {
    JobId id = 0;
    SolveRequest req;
    core::SolveSpec spec;  ///< req.params parsed once, at submit
    RankPlan plan;
    double submit_time = 0.0;
    double deadline_s = 0.0;
    double dispatch_time = 0.0;  ///< last dispatch (status elapsed column)
    std::uint64_t trace_id = 0;  ///< minted at submit, rides RunOptions
    bool done = false;
    SolveReport report;
    // --- resilience state (docs/ROBUSTNESS.md "Serving resilience") ---
    RetryPolicy retry;
    int attempts = 0;            ///< solve attempts started so far
    double not_before = 0.0;     ///< backoff: no dispatch before this time
    std::string checkpoint_path; ///< per-job checkpoint file ("" = none)
    bool keep_checkpoint = false;
    /// Job-scoped fault plan, parsed once per job (not per attempt) so rule
    /// counters persist across retries: "kill:sweep@1%1" fires exactly once
    /// and the retry of that job sails past the sweep that killed it.
    std::optional<fault::Plan> fault_plan;
    /// Cooperative preemption flag handed to the solver loop as
    /// HooiOptions::yield_flag. shared_ptr: the rank threads of a world
    /// being shut down may outlive a requeue decision under the lock.
    std::shared_ptr<std::atomic<int>> yield =
        std::make_shared<std::atomic<int>>(0);
    bool preempt_requested = false;  ///< yield signalled, not yet honored
  };

  struct CacheEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const Job> source;  ///< completed job whose result is shared
  };

  /// How one solve attempt ended — decides requeue vs terminal report.
  enum class RunStatus {
    completed,  ///< result produced
    failed,     ///< deterministic failure: never retried
    transient,  ///< world fault (kill/timeout/comm): retriable
    preempted,  ///< checkpoint-yielded to a higher-priority job
  };

  void worker_loop();
  /// Sorted insert by (priority desc, id asc).
  void enqueue_locked(const std::shared_ptr<Job>& job);
  void finish_locked(const std::shared_ptr<Job>& job, Outcome outcome,
                     std::string error);
  const Job* cache_find_locked(std::uint64_t key) const;
  void cache_insert_locked(const std::shared_ptr<Job>& job);
  /// Head job outranks the pool's free ranks: ask the lowest-priority
  /// running job (that has a checkpoint path and strictly lower priority)
  /// to checkpoint-and-yield at its next sweep boundary. At most one
  /// outstanding request at a time.
  void maybe_preempt_locked(const Job& head);
  /// Runs one solve attempt outside the lock; fills job.report fields and
  /// classifies the ending. `restore` resumes from the job's checkpoint.
  RunStatus run_job(Job& job, bool restore);

  ServeOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue/rank availability
  std::condition_variable done_cv_;  ///< waiters: job completion
  std::vector<std::thread> workers_;
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  std::vector<std::shared_ptr<Job>> queue_;  ///< pending, priority-sorted
  std::vector<std::shared_ptr<Job>> running_;  ///< dispatched, not yet back
  std::vector<CacheEntry> cache_;            ///< LRU order, front = oldest
  metrics::Registry registry_;
  JobId next_id_ = 0;
  int free_ranks_ = 0;
  std::uint64_t finished_seq_ = 0;  ///< event sweep index (completion order)
  bool paused_ = false;
  bool stopping_ = false;
};

}  // namespace rahooi::serve
