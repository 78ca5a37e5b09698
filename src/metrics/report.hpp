#pragma once
// Cross-rank aggregation, exporters, and validators for the metrics
// registry (docs/OBSERVABILITY.md).
//
// snapshot() flattens one Registry into `name{label="value"}` samples (the
// Prometheus text-format naming convention, but emitted as flat JSON);
// aggregate() folds per-rank registries into min/mean/max/sum statistics in
// the same style as prof::aggregate. Exporters emit
//   * a flat `name{labels,stat="..."} -> value` JSON object
//     (--metrics-out), and
//   * a JSONL solver-telemetry event stream (one fixed-key object per
//     sweep/iteration/solve), sibling file derived by events_path_for().
// The validators back the `metrics_lint` tool and the metrics-smoke ctest
// fixture; JSON syntax checking is shared with prof::validate_json_syntax.

#include <cstddef>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "metrics/metrics.hpp"

namespace rahooi::metrics {

/// Compact numeric formatting shared by every metrics export: integers
/// exactly, everything else with round-trip precision.
std::string fmt_number(double v);

/// One flat per-rank sample; `key` is `name` or `name{label="value",...}`.
struct Sample {
  std::string key;
  double value = 0.0;
};

/// Flattens every populated slot of `r` (collective counters/histograms,
/// memory gauges, fixed + named counters, event count) into samples.
/// Gauges and fixed counters are always emitted (even at zero) so required
/// metric names are stable; histogram buckets are emitted only when
/// nonzero, labeled with their pow2 exponent.
std::vector<Sample> snapshot(const Registry& r);

/// Cross-rank statistics for one sample key. A rank whose snapshot lacks
/// the key contributes 0 to min and mean (imbalance stays visible), same
/// convention as prof::aggregate.
struct MetricStat {
  std::string key;
  int ranks = 0;  ///< number of ranks the sample appeared on
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// One row per distinct sample key, sorted by key (deterministic output).
std::vector<MetricStat> aggregate(const std::vector<Registry>& ranks);

/// Flat CSV: key,ranks,min,mean,max,sum.
CsvTable aggregate_csv(const std::vector<MetricStat>& stats);

/// Terminal table of the `top_n` keys by max (all when top_n == 0).
std::string aggregate_pretty(const std::vector<MetricStat>& stats,
                             std::size_t top_n = 0);

/// Flat JSON object: every aggregated sample expanded into four entries
/// with a `stat` label (min/mean/max/sum), plus `meta.ranks`.
std::string metrics_json(const std::vector<Registry>& ranks);

/// One JSON object (fixed key set, no newlines) for one telemetry event.
std::string event_json(const Event& e);

/// JSONL event stream: event_json() per line, in emission order.
std::string events_jsonl(const Registry& r);

/// Writes metrics_json() to `path`; throws on IO failure.
void write_metrics_json(const std::string& path,
                        const std::vector<Registry>& ranks);

/// Writes events_jsonl() to `path`; throws on IO failure.
void write_events_jsonl(const std::string& path, const Registry& r);

/// Sibling event-log path for a metrics JSON path: "x.json" -> "x.jsonl",
/// anything else gets ".jsonl" appended.
std::string events_path_for(const std::string& metrics_path);

/// Looks up `key` (raw, unescaped form) in a flat metrics JSON document and
/// parses its numeric value. Returns false when the key is absent.
bool metrics_value(const std::string& json, const std::string& key,
                   double* value);

/// Structural validation of an emitted metrics JSON: must parse, contain
/// every key in `required_keys`, and every key in `nonzero_keys` must parse
/// to a value > 0. Returns false and fills `error` on the first violation.
bool validate_metrics_json(const std::string& json,
                           const std::vector<std::string>& required_keys,
                           const std::vector<std::string>& nonzero_keys,
                           std::string* error = nullptr);

/// Structural validation of a JSONL event stream: every nonempty line must
/// parse as JSON, carry the fixed event keys, record a finite non-negative
/// rel_error on sweep/iteration events, and keep sweep indices sequential
/// per (solver, kind) — each next index is previous + 1 or restarts at 1.
bool validate_events_jsonl(const std::string& jsonl,
                           std::string* error = nullptr);

}  // namespace rahooi::metrics
