// HOOI driver, mirroring the paper artifact's `hooi` binary. The four HOOI
// variants are selected exactly as in the artifact's table, plus the
// sketched backends of this library:
//
//   variant       Dimension Tree Memoization   SVD Method
//   HOOI          false                        0
//   HOOI-DT       true                         0
//   HOSI          false                        2
//   HOSI-DT       true                         2
//   HOSK(-DT)     either                       3  (Gaussian sketch)
//   HOSK-KRP(-DT) either                       4  (Khatri-Rao sketch)
//
// "SVD Method = -1" asks the cost model to pick the cheapest LLSV backend
// for the problem shape (model::pick_llsv_backend). The sketched backends
// read the optional knobs "Sketch Oversample" (default 8), "Sketch Min
// Cols" (16), "Sketch Growth" (2.0), "Sketch Safety" (0.5) and "Sketch
// Deterministic" (false; bitwise grid-invariant fixed-point apply).
//
// "HOOI-Adapt Threshold" > 0 enables the rank-adaptive (error-specified)
// driver (paper Alg. 3) with that epsilon; 0 runs fixed-rank HOOI. The
// rank-adaptive start is controlled by "RA Init" = random (default, the
// Alg. 3 cold start) or sketched (randomized ST-HOSVD warm start).
//
//   ./hooi_driver --parameter-file HOOI.cfg [--profile] [--restore]
//               [--metrics-out <metrics.json>]
//
// --profile records a per-rank hierarchical span trace of the run and
// writes it as Chrome trace_event JSON ("Trace file" key, default
// trace.json); see docs/PROFILING.md.
//
// --metrics-out (or a "Metrics file" key) enables the metrics layer:
// per-rank counters/histograms/peak-memory gauges aggregated into a flat
// JSON file, plus a JSONL solver-telemetry event log at the sibling
// path — see docs/OBSERVABILITY.md.
//
// --restore resumes a solve (fixed-rank or rank-adaptive) from the
// "Checkpoint file" written by a previous (interrupted) run; "Collective
// timeout ms" arms the world's hang watchdog and "Fault plan" scopes
// deterministic fault injection to the world — see docs/ROBUSTNESS.md.

//
// Example configuration (artifact appendix B.1):
//   Print options = true
//   Print timings = true
//   Dimension Tree Memoization = false
//   Noise = 0.0001
//   HOOI-Adapt Threshold = 0.0
//   HOOI max iters = 2
//   SVD Method = 0
//   Processor grid dims = 1 2 2 1
//   Global dims = 100 100 100 100
//   Construction Ranks = 10 10 10 10
//   Decomposition Ranks = 10 10 10 10

#include "driver_common.hpp"

int main(int argc, char** argv) {
  return rahooi::examples::driver_main(
      argc, argv, rahooi::core::Driver::hooi, "hooi",
      "usage: hooi_driver --parameter-file <file.cfg> [--profile]\n"
      "                   [--restore] [--metrics-out <metrics.json>]\n");
}
