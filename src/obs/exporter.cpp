#include "obs/exporter.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/contracts.hpp"
#include "metrics/report.hpp"
#include "obs/merge_trace.hpp"

namespace rahooi::obs {

namespace {

const char* const kPriorityNames[3] = {"low", "normal", "high"};

bool parse_seq(const std::string& line, const std::string& prefix,
               std::uint64_t* seq) {
  if (line.rfind(prefix, 0) != 0) return false;
  const std::string rest = line.substr(prefix.size());
  if (rest.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(rest.c_str(), &end, 10);
  if (end == rest.c_str() || *end != '\0') return false;
  *seq = v;
  return true;
}

}  // namespace

void write_atomic(const std::string& path, const std::string& content) {
  // Unique sibling tmp per writer (same discipline as checkpoint save):
  // concurrent exporters never share a tmp file, and the reader sees either
  // the previous complete file or the new one.
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    RAHOOI_REQUIRE(out.good(), "cannot open status output file: " + tmp);
    out << content;
    out.flush();
    RAHOOI_REQUIRE(out.good(), "failed writing status output file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    RAHOOI_REQUIRE(false, "cannot rename status output into place: " + path);
  }
}

std::string exposition_name(const std::string& key) {
  std::string out = key;
  const std::size_t brace = out.find('{');
  const std::size_t name_end = brace == std::string::npos ? out.size() : brace;
  for (std::size_t i = 0; i < name_end; ++i) {
    if (out[i] == '.') out[i] = '_';
  }
  return out;
}

std::string exposition_text(const metrics::Registry& r, const Status& s,
                            std::uint64_t seq) {
  std::string out = "# rahooi-exposition v1 seq=" + std::to_string(seq) + "\n";
  out += "# time " + metrics::fmt_number(s.time) + "\n";
  for (const metrics::Sample& sample : metrics::snapshot(r)) {
    // The registry's queue gauge lags the scheduler state it mirrors; the
    // Status snapshot below is authoritative for the live depth.
    if (sample.key == "serve.queue.depth") continue;
    out += exposition_name(sample.key) + " " +
           metrics::fmt_number(sample.value) + "\n";
  }
  out += "serve_queue_depth " + std::to_string(s.queue_depth) + "\n";
  for (int p = 0; p < 3; ++p) {
    out += std::string("serve_queue_depth{priority=\"") + kPriorityNames[p] +
           "\"} " + std::to_string(s.queued_by_priority[std::size_t(p)]) +
           "\n";
  }
  out += "serve_jobs_running " + std::to_string(s.running_jobs()) + "\n";
  out += "serve_cache_entries " + std::to_string(s.cache_entries) + "\n";
  out += "serve_cache_capacity " + std::to_string(s.cache_capacity) + "\n";
  out += "serve_ranks_free " + std::to_string(s.free_ranks) + "\n";
  out += "serve_ranks_pool " + std::to_string(s.pool_ranks) + "\n";
  out += "obs_scrape_seq " + std::to_string(seq) + "\n";
  out += "# end rahooi-exposition seq=" + std::to_string(seq) + "\n";
  return out;
}

std::string status_table(const Status& s, std::uint64_t seq) {
  char line[256];
  std::string out = "rahooi serve status (scrape " + std::to_string(seq) +
                    ", t=" + metrics::fmt_number(s.time) + "s)\n";
  std::snprintf(line, sizeof(line),
                "queue %zu (low=%zu normal=%zu high=%zu)  running %zu  "
                "cache %zu/%zu  ranks free %d/%d%s%s\n",
                s.queue_depth, s.queued_by_priority[0],
                s.queued_by_priority[1], s.queued_by_priority[2],
                s.running_jobs(), s.cache_entries, s.cache_capacity,
                s.free_ranks, s.pool_ranks, s.paused ? "  [paused]" : "",
                s.stopping ? "  [stopping]" : "");
  out += line;
  if (s.jobs.empty()) {
    out += "(no queued or running jobs)\n";
    return out;
  }
  std::snprintf(line, sizeof(line), "%6s  %-20s %-7s %-8s %3s %5s %9s  %s\n",
                "id", "name", "prio", "stage", "att", "world", "elapsed",
                "trace");
  out += line;
  for (const JobStatus& j : s.jobs) {
    std::snprintf(line, sizeof(line),
                  "%6llu  %-20.20s %-7s %-8s %3d %5d %8.3fs  %s\n",
                  static_cast<unsigned long long>(j.id), j.name.c_str(),
                  j.priority.c_str(), j.stage.c_str(), j.attempts, j.world,
                  j.elapsed_s, trace_id_hex(j.trace_id).c_str());
    out += line;
  }
  return out;
}

bool validate_exposition(const std::string& text, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::uint64_t header_seq = 0;
  std::uint64_t trailer_seq = 0;
  bool saw_header = false;
  bool saw_trailer = false;
  bool saw_scrape_seq = false;
  double scrape_seq_value = -1.0;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1) {
      if (!parse_seq(line, "# rahooi-exposition v1 seq=", &header_seq)) {
        return fail("exposition has no v1 header: '" + line + "'");
      }
      saw_header = true;
      continue;
    }
    if (saw_trailer) {
      return fail("exposition has content after the trailer: '" + line + "'");
    }
    if (line[0] == '#') {
      if (parse_seq(line, "# end rahooi-exposition seq=", &trailer_seq)) {
        saw_trailer = true;
      }
      continue;
    }
    // Sample line: name{labels}? SP value.
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      return fail("exposition line " + std::to_string(line_no) +
                  " is not 'name value': '" + line + "'");
    }
    const std::string name = line.substr(0, sp);
    const std::string value_str = line.substr(sp + 1);
    const char c0 = name[0];
    if (!(std::isalpha(static_cast<unsigned char>(c0)) || c0 == '_')) {
      return fail("exposition sample name is malformed: '" + name + "'");
    }
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      if (c == '{') {
        if (name.back() != '}') {
          return fail("exposition sample labels are unterminated: '" + name +
                      "'");
        }
        break;
      }
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
        return fail("exposition sample name is malformed: '" + name + "'");
      }
    }
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0' || !std::isfinite(value)) {
      return fail("exposition value is not a finite number: '" + line + "'");
    }
    if (name == "obs_scrape_seq") {
      saw_scrape_seq = true;
      scrape_seq_value = value;
    }
  }
  if (!saw_header) return fail("exposition is empty");
  if (!saw_trailer) {
    return fail("exposition has no trailer (torn or truncated scrape)");
  }
  if (trailer_seq != header_seq) {
    return fail("exposition header seq " + std::to_string(header_seq) +
                " != trailer seq " + std::to_string(trailer_seq) +
                " (interleaved scrape)");
  }
  if (!saw_scrape_seq) {
    return fail("exposition has no obs_scrape_seq sample");
  }
  if (scrape_seq_value != double(header_seq)) {
    return fail("obs_scrape_seq does not match the frame seq");
  }
  return true;
}

bool exposition_value(const std::string& text, const std::string& key,
                      double* value) {
  const std::string name = exposition_name(key);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() > name.size() + 1 && line.rfind(name, 0) == 0 &&
        line[name.size()] == ' ') {
      const std::string value_str = line.substr(name.size() + 1);
      char* end = nullptr;
      const double v = std::strtod(value_str.c_str(), &end);
      if (end != value_str.c_str() && *end == '\0') {
        if (value != nullptr) *value = v;
        return true;
      }
    }
  }
  return false;
}

Exporter::Exporter(Options options, SnapshotFn snapshot)
    : options_(std::move(options)), snapshot_(std::move(snapshot)) {
  RAHOOI_REQUIRE(static_cast<bool>(snapshot_),
                 "obs::Exporter needs a snapshot callback");
  thread_ = std::thread([this] { loop(); });
}

Exporter::~Exporter() { stop(); }

void Exporter::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      return;  // already stopped; the final publish happened on first stop()
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  publish();  // terminal snapshot: files end equal to the exit dump
}

void Exporter::loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.interval_ms);
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, interval, [this] { return stop_; });
    if (stop_) break;
    lk.unlock();
    publish();
    lk.lock();
  }
}

void Exporter::publish() {
  metrics::Registry reg;
  Status status;
  snapshot_(&reg, &status);
  const std::uint64_t seq =
      scrapes_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (!options_.exposition_path.empty()) {
    write_atomic(options_.exposition_path, exposition_text(reg, status, seq));
  }
  if (!options_.status_path.empty()) {
    write_atomic(options_.status_path, status_table(status, seq));
  }
}

}  // namespace rahooi::obs
