// STHOSVD driver, mirroring the paper artifact's `sthosvd` binary: all
// settings come from a TuckerMPI-style parameter file.
//
//   ./sthosvd_driver --parameter-file STHOSVD.cfg [--profile]
//                    [--metrics-out <metrics.json>]
//
// --metrics-out (or a "Metrics file" key) enables the metrics layer and
// writes the aggregated flat metrics JSON plus the JSONL solver-telemetry
// event log (one "solve" event) — see docs/OBSERVABILITY.md. --profile
// traces the run as in hooi_driver.

//
// Example configuration (artifact appendix B.1):
//   Print options = true
//   Print timings = true
//   Noise = 0.0001
//   SV Threshold = 0.0        # 0 -> fixed-rank mode using "Ranks"
//   Perform STHOSVD = true
//   Processor grid dims = 1 2 2 2
//   Global dims = 100 100 100 100
//   Ranks = 10 10 10 10
//   Single precision = true

#include "driver_common.hpp"

int main(int argc, char** argv) {
  return rahooi::examples::driver_main(
      argc, argv, rahooi::core::Driver::sthosvd, "sthosvd",
      "usage: sthosvd_driver --parameter-file <file.cfg> [--profile]\n"
      "                      [--metrics-out <metrics.json>]\n");
}
