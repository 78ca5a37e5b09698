// serve-open: one seeded open-loop Poisson generator feeding one
// serve::Scheduler (1 worker, single-rank job worlds).
//
// The mix: synthetic 32^3 / 48^3 / 64^3 fp32 jobs in proportion 2:21:1,
// half RA-HOSI-DT at eps = 0.01 and half fixed-rank HOSI-DT; a quarter of
// requests repeat a recent request, which by then is in the result cache.
// Requests have no deadline, so none is dropped for lateness; a request
// counts toward goodput when it completes correctly within kLatencyLimit of
// its due time.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = rahooi::serve;
using rahooi::la::idx_t;

constexpr double kEps = 0.01;
constexpr double kNoise = 1e-3;  ///< fixed-rank error ~1e-3, well inside eps
/// Offered load: about 0.3 of the mix's measured saturation rate (README,
/// "Load well below capacity").
constexpr double kRatePerSec = 80.0;
/// Goodput latency limit, from due time to report.
constexpr double kLatencyLimit = 0.1;
constexpr int kSetupRounds = 15;
/// One worker: with 3, two 48^3 jobs running at once took up to twice as
/// long in some host phases and not in others, and the latency p75 moved
/// by 0.85 over ten seeds (README, "One worker").
constexpr int kWorkers = 1;

struct JobSize {
  idx_t n;
  idx_t true_rank;
  idx_t ra_start;  ///< RA starting rank: one growth step below true_rank
};
constexpr JobSize kSizes[] = {{32, 4, 3}, {48, 6, 4}, {64, 8, 6}};

/// One request of the mix.
struct Planned {
  double due = 0.0;  ///< seconds after the generator starts
  int size = 0;      ///< index into kSizes
  bool ra = false;
  std::uint64_t data_seed = 0;
  int repeat_of = -1;  ///< index of the request this one repeats
};

std::string params_text(const Planned& p) {
  const JobSize& s = kSizes[p.size];
  auto triple = [](idx_t v) {
    const std::string x = std::to_string(v);
    return x + " " + x + " " + x + "\n";
  };
  std::string t;
  t += "Global dims = " + triple(s.n);
  t += "Construction Ranks = " + triple(s.true_rank);
  t += "Processor grid dims = 1 1 1\n";
  t += "Noise = 0.001\n";
  t += "SVD Method = 2\n";
  t += "Dimension Tree Memoization = true\n";
  t += "Seed = " + std::to_string(p.data_seed) + "\n";
  if (p.ra) {
    t += "Decomposition Ranks = " + triple(s.ra_start);
    t += "HOOI-Adapt Threshold = 0.01\n";
    t += "HOOI max iters = 3\n";
  } else {
    t += "Decomposition Ranks = " + triple(s.true_rank);
    t += "HOOI max iters = 2\n";
  }
  return t;
}

serve::SolveRequest request(const Planned& p, std::size_t index) {
  serve::SolveRequest r;
  r.name = "r";
  r.name += std::to_string(index);
  r.params = rahooi::io::ParamFile::parse(params_text(p));
  return r;
}

/// Request kinds of one block of 64, before the seeded shuffle: 16 repeats
/// and 48 fresh jobs (32^3 x4, 48^3 x42, 64^3 x2, each half RA). Fixing the
/// proportions per block keeps the latency percentiles inside one job class
/// whatever the seed: hits fill the bottom quarter, and p50 and p75 fall
/// inside the 48^3 jobs, away from the steps between classes, where a small
/// shift in a class's share moved a percentile by 2-3x. 48^3 jobs (about
/// 10 ms) rather than 32^3 ones (about 3 ms) carry the percentiles because
/// millisecond-scale thread wake-up delays on a shared host moved the
/// latency of 3 ms jobs by half from run to run.
struct Slot {
  int size;  ///< -1 = repeat
  bool ra;
};
constexpr std::uint64_t kBlockSize = 64;
std::vector<Slot> block_kinds() {
  const struct {
    Slot slot;
    int count;
  } mix[] = {{{-1, false}, 16}, {{0, true}, 2},  {{0, false}, 2},
             {{1, true}, 21},   {{1, false}, 21}, {{2, true}, 1},
             {{2, false}, 1}};
  std::vector<Slot> out;
  for (const auto& m : mix) {
    out.insert(out.end(), static_cast<std::size_t>(m.count), m.slot);
  }
  return out;
}

/// The open-loop schedule: Poisson arrivals at kRatePerSec for `seconds`,
/// every draw keyed by the workload seed. A repeat copies a fresh request
/// sent 8-14 requests earlier: late enough that it has finished, recent
/// enough that it is still among the 16 cached results.
std::vector<Planned> plan(std::uint64_t seed, double seconds) {
  const rahooi::CounterRng rng(seed);
  const auto arrivals = rng.stream(1), shuffle = rng.stream(2),
             repeats = rng.stream(3), data = rng.stream(4);
  std::vector<Planned> out;
  const std::vector<Slot> kinds = block_kinds();
  std::vector<Slot> block;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(1.0 - arrivals.uniform(i)) / kRatePerSec;
    if (t >= seconds) break;
    if (i % kBlockSize == 0) {  // Fisher-Yates shuffle of the next block
      block = kinds;
      for (std::uint64_t k = kBlockSize - 1; k > 0; --k) {
        const auto j =
            static_cast<std::uint64_t>(shuffle.uniform(i + k) * double(k + 1));
        std::swap(block[k], block[j]);
      }
    }
    const Slot slot = block[i % kBlockSize];
    Planned p;
    p.due = t;
    std::size_t back = 8 + static_cast<std::size_t>(repeats.uniform(i) * 7.0);
    while (back < out.size() && out[out.size() - back].repeat_of >= 0) ++back;
    if (slot.size < 0 && back <= 14 && back <= out.size()) {
      p = out[out.size() - back];
      p.due = t;
      p.repeat_of = static_cast<int>(out.size() - back);
    } else {
      // A repeat with nothing to repeat yet (start of the run) runs fresh.
      p.size = slot.size < 0 ? 0 : slot.size;
      p.ra = slot.ra;
      p.data_seed = data.bits(i) >> 34;  // fits the "Seed" key (int)
    }
    out.push_back(p);
  }
  return out;
}

/// Bitwise comparison of two solved decompositions.
bool same_factors(const serve::JobResult& a, const serve::JobResult& b) {
  const auto& x = a.tucker_f;
  const auto& y = b.tucker_f;
  if (x.factors.size() != y.factors.size()) return false;
  for (std::size_t j = 0; j < x.factors.size(); ++j) {
    const auto& u = x.factors[j];
    const auto& v = y.factors[j];
    if (u.rows() != v.rows() || u.cols() != v.cols() ||
        std::memcmp(u.data(), v.data(), sizeof(float) * u.size()) != 0) {
      return false;
    }
  }
  return x.core.size() == y.core.size() &&
         std::memcmp(x.core.data(), y.core.data(),
                     sizeof(float) * x.core.size()) == 0;
}

std::unique_ptr<serve::Scheduler> make_scheduler() {
  serve::ServeOptions o;
  o.pool_ranks = kWorkers;  // one rank per job world
  o.workers = kWorkers;
  o.max_queue = 256;
  o.cache_capacity = 16;
  return std::make_unique<serve::Scheduler>(o);
}

/// The generator's CPU set and the scheduler's. submit() wakes a worker;
/// sharing a CPU, the woken worker preempted the generator for about one
/// job, so with 3 ms jobs submit() returned 2.5 ms after the call at the
/// median while its body took 0.05 ms, and requests that were due meanwhile
/// went out late. A load generator must not slow the system it drives, so the
/// generator gets the first allowed CPU and the scheduler's threads, which
/// inherit the mask of the thread that creates them, get the rest.
struct CpuSplit {
  cpu_set_t all, generator, service;
  bool split = false;  ///< false: fewer than 2 CPUs, nothing is pinned
};

CpuSplit split_cpus() {
  CpuSplit c;
  if (pthread_getaffinity_np(pthread_self(), sizeof c.all, &c.all) != 0 ||
      CPU_COUNT(&c.all) < 2) {
    return c;
  }
  CPU_ZERO(&c.generator);
  c.service = c.all;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &c.all)) {
      CPU_SET(cpu, &c.generator);
      CPU_CLR(cpu, &c.service);
      break;
    }
  }
  c.split = true;
  return c;
}

void pin_this_thread(const CpuSplit& c, const cpu_set_t& set) {
  if (c.split &&
      pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

/// Median seconds to generate one job's tensor in its one-rank world, per
/// size.
std::vector<double> generate_seconds() {
  std::vector<double> out;
  for (const JobSize& s : kSizes) {
    std::vector<double> t;
    for (int rep = 0; rep < 9; ++rep) {
      double dt = 0.0;
      rahooi::comm::Runtime::run(1, [&](rahooi::comm::Comm& world) {
        rahooi::dist::ProcessorGrid grid(world, {1, 1, 1});
        const double t0 = now();
        auto x = rahooi::data::synthetic_tucker<float>(
            grid, {s.n, s.n, s.n}, {s.true_rank, s.true_rank, s.true_rank},
            kNoise, 1000 + static_cast<std::uint64_t>(rep));
        dt = now() - t0;
      });
      t.push_back(dt);
    }
    out.push_back(median(t));
  }
  return out;
}

}  // namespace

void run_serve(const Args& args, Result& out) {
  double bytes = 0.0;
  for (const JobSize& s : kSizes) bytes += double(s.n * s.n * s.n) * 4.0;
  print_facts("serve-open", bytes / 3.0);
  std::printf("fact pool_ranks = %d, workers = %d, job grid = 1 1 1, "
              "offered rate = %.1f/s, latency limit = %.3f s\n",
              kWorkers, kWorkers, kRatePerSec, kLatencyLimit);
  const CpuSplit cpus = split_cpus();
  if (cpus.split) {
    std::printf("fact cpus = 1 for the generator, %d for the scheduler\n",
                CPU_COUNT(&cpus.service));
  } else {
    std::printf("fact cpus = shared by generator and scheduler\n");
  }
  pin_this_thread(cpus, cpus.service);

  // Set-up, sampled kSetupRounds times: build the schedule and a scheduler,
  // then push two warm-up jobs of every size x kind through it one at a
  // time. The last scheduler serves the run.
  std::vector<double> setup_s;
  std::vector<Planned> schedule;
  std::unique_ptr<serve::Scheduler> sched;
  for (int round = 0; round < kSetupRounds; ++round) {
    const double t0 = now();
    schedule = plan(args.seed, args.seconds);
    sched.reset();
    sched = make_scheduler();
    for (int k = 0; k < 12; ++k) {
      Planned p;
      p.size = k % 6 / 2;
      p.ra = k % 2 == 0;
      p.data_seed = (std::uint64_t{1} << 40) + std::uint64_t(round * 16 + k);
      const serve::SolveReport r = sched->wait(sched->submit(request(p, 0)));
      if (!r.ok() || !(r.rel_error <= kEps)) {
        out.fail("warm-up job failed: " +
                 std::string(serve::outcome_name(r.outcome)) + " " + r.error);
      }
    }
    setup_s.push_back(now() - t0);
  }

  // Open loop: the generator sends on schedule, whatever the backlog.
  struct Sent {
    serve::Scheduler::JobId id = 0;
    double lag = 0.0;     ///< call time - due time
    double submit = 0.0;  ///< duration of submit()
  };
  std::vector<Sent> sent(schedule.size());
  pin_this_thread(cpus, cpus.generator);
  const Usage usage0 = usage_now();
  const double start = now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = start + schedule[i].due;
    const double wait = due - now();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double t_call = now();
    sent[i].id = sched->submit(request(schedule[i], i));
    sent[i].submit = now() - t_call;
    sent[i].lag = t_call - due;
  }
  std::vector<serve::SolveReport> reports;
  reports.reserve(schedule.size());
  for (const Sent& s : sent) reports.push_back(sched->wait(s.id));
  const double elapsed = now() - start;
  const Usage usage = usage_now() - usage0;
  pin_this_thread(cpus, cpus.all);

  // Check every report against the plan. Only a planned repeat may be a
  // cache hit, and its factors must equal those of the request it repeats.
  // A planned repeat that missed the cache was solved afresh, and its
  // factors must still equal the original's bitwise (the solves are
  // deterministic).
  std::vector<double> latency, queue, solve, lag, submit, rel_size;
  long long good = 0, hits = 0, ok_count = 0, shed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const serve::SolveReport& r = reports[i];
    const double lat = sent[i].lag + r.total_seconds;
    latency.push_back(lat);
    lag.push_back(sent[i].lag);
    submit.push_back(sent[i].submit);
    queue.push_back(r.queue_seconds);
    if (r.outcome == serve::Outcome::shed) ++shed;
    const int orig = schedule[i].repeat_of;
    const bool hit = r.outcome == serve::Outcome::cache_hit;
    std::string why;
    if (!r.ok()) {
      why = std::string(serve::outcome_name(r.outcome)) + " " + r.error;
    } else if (!(r.rel_error <= kEps)) {
      why = "rel_error " + std::to_string(r.rel_error) + " > eps";
    } else if (hit && orig < 0) {
      why = "cache hit on a request that repeats none";
    } else if (orig >= 0) {
      const serve::SolveReport& o = reports[static_cast<std::size_t>(orig)];
      if (!o.ok()) {
        why = "repeats request " + std::to_string(orig) + ", which failed";
      } else if (!same_factors(*o.result, *r.result)) {
        why = hit ? "cache hit differs from the request it repeats"
                  : "repeat solved afresh differs from the request it repeats";
      }
    }
    if (hit) ++hits;
    if (r.outcome == serve::Outcome::completed) {
      solve.push_back(r.solve_seconds);
    }
    out.op(why.empty());
    if (!why.empty()) {
      if (out.failed() <= 5) {
        out.fail("request " + std::to_string(i) + ": " + why);
      }
      continue;
    }
    ++ok_count;
    if (lat <= kLatencyLimit) ++good;
    const double n = double(kSizes[schedule[i].size].n);
    rel_size.push_back(double(r.compressed_size) / (n * n * n));
  }
  const double n_req = double(std::max<std::size_t>(1, reports.size()));

  if (!args.trace) {
    emit_end_to_end(
        {{"latency_s.p50", median(latency)},
         {"latency_s.p75", supported_quantile(latency, 0.75, "latency_s.p75")},
         {"throughput_per_s", double(ok_count) / elapsed},
         {"goodput_per_s", double(good) / elapsed},
         {"cpu_s_per_op", usage.cpu_s() / n_req},
         {"setup_s", median(setup_s)},
         {"peak_rss_mb", peak_rss_mb()},
         {"relative_size", mean(rel_size)},
         {"ok_frac", double(ok_count) / n_req}},
        out);
    std::printf("metric serve.latency_s.p99 = %.9g s (n = %zu)\n",
                supported_quantile(latency, 0.99, "latency_s.p99"),
                latency.size());
    return;
  }

  // Traced run: the scheduler's own counters must agree with the reports.
  const rahooi::metrics::Registry reg = sched->metrics();
  if (reg.counter(rahooi::metrics::Counter::serve_cache_hits) !=
      static_cast<std::uint64_t>(hits)) {
    out.fail("scheduler cache-hit counter disagrees with the reports");
  }
  sched.reset();

  // data.generate_s: per cold solve, the generation time of its size.
  const std::vector<double> gen = generate_seconds();
  std::vector<double> gen_per_op;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].outcome == serve::Outcome::completed) {
      gen_per_op.push_back(gen[static_cast<std::size_t>(schedule[i].size)]);
    }
  }
  emit_per_layer(
      {{"data.generate_s", median(gen_per_op)},
       {"comm.spawn_s.p50", spawn_seconds_p50(200)},
       {"serve.submit_s.p50", median(submit)},
       {"serve.queue_s.p50", median(queue)},
       {"serve.queue_s.p99", supported_quantile(queue, 0.99, "queue p99")},
       {"serve.solve_s.p50", median(solve)},
       {"serve.latency_s.p99",
        supported_quantile(latency, 0.99, "latency p99")},
       {"serve.cache_hit_ratio", double(hits) / double(std::max(1LL, ok_count))},
       {"serve.shed", double(shed)},
       {"serve.gen_lag_s.p99", supported_quantile(lag, 0.99, "lag p99")},
       {"proc.minor_faults_per_op", usage.minor_faults / n_req},
       {"proc.sys_s_per_op", usage.sys_s / n_req}},
      out);
}

}  // namespace perfbench
