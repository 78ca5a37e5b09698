#pragma once
// Shared pieces of the perfbench workloads: command-line arguments, sample
// statistics, process counters (getrusage), the machine facts printed with
// every result, and the result printer whose last line is the JSON object
// the benchmark contract asks for.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A metric the benchmark reports: name and unit exactly as BENCHMARK.json
/// lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced run) and per-layer metrics (traced
/// run), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Quantile with linear interpolation between order statistics (the
/// numpy/`statistics` "inclusive" rule); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// Process-wide CPU time and minor page faults, from getrusage(RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double cpu_s() const { return user_s + sys_s; }
};
Usage usage_now();
Usage operator-(const Usage& a, const Usage& b);

/// Peak resident set size of this process in MiB (ru_maxrss).
double peak_rss_mb();

/// Seconds on a steady clock (same epoch as rahooi::stats::now()).
double now();

/// Prints the facts that explain a noisy run: logical CPUs, load average at
/// start, CPU model, last-level cache size, and the workload's dataset
/// bytes (computed from array sizes, not measured traffic).
void print_facts(const std::string& workload, double dataset_bytes);

/// Collects named metrics and prints them, one per line with unit, then the
/// result JSON as the final stdout line.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records one checked operation; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A failed check outside the counted operations (set-up, coverage).
  void fail(const std::string& why);

  long long failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && problems_.empty(); }

  /// Prints everything; returns the process exit code (0 iff correct).
  int print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Adds every end-to-end metric from `values`; a missing or unknown name is
/// a bug in the workload and fails the run.
void emit_end_to_end(const std::map<std::string, double>& values,
                     Result& out);

/// Adds every per-layer metric from `values`. A layer the workload does not
/// exercise (or cannot observe) reports 0; an unknown name fails the run.
void emit_per_layer(const std::map<std::string, double>& values,
                    Result& out);

/// Percentile that needs at least `beyond` samples above it: warns on
/// stderr when the sample is too small to support it.
double supported_quantile(const std::vector<double>& v, double q,
                          const char* what, std::size_t beyond = 10);

}  // namespace perfbench
