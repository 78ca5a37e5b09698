// perfbench — end-to-end and per-layer benchmark of the rahooi library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: miranda-ra, miranda-sthosvd, hcci-ra, serve-open. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics. Every metric is printed by name and unit,
// and the last stdout line is the result JSON. Exits 1 when any check
// fails, 2 on bad arguments. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<miranda-ra|miranda-sthosvd|hcci-ra|serve-open> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      const std::string v = val;
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_workload) return usage("--workload is required");

  perfbench::Result out;
  try {
    if (perfbench::is_solver_workload(args.workload)) {
      perfbench::run_solver(args, out);
    } else if (args.workload == "serve-open") {
      perfbench::run_serve(args, out);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    // An op that throws ends the run: no result line, nonzero exit.
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return out.print();
}
