#pragma once
// The four perfbench workloads (see perfbench/README.md for why each one
// exists and which layer it loads).

#include "harness.hpp"

namespace perfbench {

/// Rank count of every world the benchmark starts: half of the 4-core box,
/// leaving headroom for other tenants (README: "Why P=2").
constexpr int kRanks = 2;

/// miranda-ra, miranda-sthosvd, hcci-ra. Returns false for another name.
bool is_solver_workload(const std::string& name);
void run_solver(const Args& args, Result& out);

/// serve-open.
void run_serve(const Args& args, Result& out);

/// Median seconds of Runtime::run on a barrier-only body at P = kRanks:
/// the per-job world spawn + join cost the serve tier pays.
double spawn_seconds_p50(int samples);

}  // namespace perfbench
