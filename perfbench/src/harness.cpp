#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "common/stats.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

double supported_quantile(const std::vector<double>& v, double q,
                          const char* what, std::size_t beyond) {
  const double above = (1.0 - q) * double(v.size());
  if (above < double(beyond)) {
    std::fprintf(stderr,
                 "perfbench: warning: %s has %zu samples, fewer than %zu "
                 "beyond its q=%.2f percentile\n",
                 what, v.size(), beyond, q);
  }
  return quantile(v, q);
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec);
  u.sys_s = double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
  u.minor_faults = double(ru.ru_minflt);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s,
          a.minor_faults - b.minor_faults};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double now() { return rahooi::stats::now(); }

namespace {

/// CPU brand string from cpuid (no file access needed).
std::string cpu_model() {
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int r[4] = {};
    __get_cpuid(0x80000002u + i, &r[0], &r[1], &r[2], &r[3]);
    std::memcpy(brand + 16 * i, r, sizeof r);
  }
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

}  // namespace

void print_facts(const std::string& workload, double dataset_bytes) {
  double load[3] = {-1.0, -1.0, -1.0};
  if (getloadavg(load, 3) < 0) load[0] = -1.0;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("fact workload = %s\n", workload.c_str());
  std::printf("fact nproc = %u\n", std::thread::hardware_concurrency());
  std::printf("fact loadavg_at_start = %.2f %.2f %.2f\n", load[0], load[1],
              load[2]);
  std::printf("fact cpu_model = %s\n", cpu_model().c_str());
  std::printf("fact llc_bytes = %ld\n", llc);
  std::printf("fact dataset_bytes = %.0f (computed from array sizes; the "
              "working set may fit in the LLC, so no DRAM bandwidth is "
              "claimed)\n",
              dataset_bytes);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_s.p50", "s"},        {"latency_s.p75", "s"},
      {"throughput_per_s", "1/s"},   {"goodput_per_s", "1/s"},
      {"cpu_s_per_op", "s"},         {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},        {"relative_size", "ratio"},
      {"ok_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"data.generate_s", "s"},
      {"tensor.ttm_s", "s"},
      {"tensor.ttm_gflops", "GF/s"},
      {"tensor.gram_s", "s"},
      {"la.evd_s", "s"},
      {"la.qr_s", "s"},
      {"dist.contraction_s", "s"},
      {"dist.redistribute_s", "s"},
      {"comm.reduce_scatter_s", "s"},
      {"comm.allreduce_s", "s"},
      {"comm.alltoallv_s", "s"},
      {"comm.allgatherv_s", "s"},
      {"comm.bcast_s", "s"},
      {"comm.barrier_s", "s"},
      {"comm.rank_imbalance", "ratio"},
      {"comm.bytes_per_op", "bytes"},
      {"comm.messages_per_op", "count"},
      {"comm.spawn_s.p50", "s"},
      {"core.iterations", "count"},
      {"core.flops_per_op", "flop"},
      {"core.core_analysis_s", "s"},
      {"core.other_s", "s"},
      {"serve.submit_s.p50", "s"},
      {"serve.queue_s.p50", "s"},
      {"serve.queue_s.p99", "s"},
      {"serve.solve_s.p50", "s"},
      {"serve.latency_s.p99", "s"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.shed", "count"},
      {"serve.gen_lag_s.p99", "s"},
      {"proc.minor_faults_per_op", "count"},
      {"proc.sys_s_per_op", "s"},
      {"model.ratio.ttm", "ratio"},
      {"model.ratio.gram", "ratio"},
      {"model.ratio.evd", "ratio"},
      {"model.ratio.comm", "ratio"},
      {"model.ratio.total", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

namespace {

void emit(const std::vector<MetricDef>& defs,
          const std::map<std::string, double>& values, bool missing_is_zero,
          Result& out) {
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& d : defs) known = known || name == d.name;
    if (!known) out.fail("workload produced unknown metric " + name);
  }
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() && !missing_is_zero) {
      out.fail(std::string("workload did not measure ") + d.name);
    }
    out.add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

}  // namespace

void emit_end_to_end(const std::map<std::string, double>& values,
                     Result& out) {
  emit(end_to_end_metrics(), values, false, out);
}

void emit_per_layer(const std::map<std::string, double>& values,
                    Result& out) {
  emit(per_layer_metrics(), values, true, out);
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    problems_.push_back("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) { problems_.push_back(why); }

int Result::print() const {
  for (const auto& p : problems_) std::printf("check FAILED: %s\n", p.c_str());
  std::printf("ops attempted = %lld, failed = %lld\n", attempted_, failed_);
  for (const auto& m : metrics_) {
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    if (i) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
