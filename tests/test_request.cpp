// The one solve entry (core/request.hpp): parameter-file parsing into a
// SolveSpec — unknown keys, the ranks rule, defaults that match the key
// table — and the request path's agreement with the serve scheduler, plus
// the "Collective timeout ms" watchdog arming it owns.

#include "core/request.hpp"

#include <gtest/gtest.h>

#include <string>

#include "comm/errors.hpp"
#include "comm/runtime.hpp"
#include "common/contracts.hpp"
#include "fault/fault.hpp"
#include "serve/serve.hpp"

namespace rahooi {
namespace {

const char* kBase =
    "Global dims = 12 12 12\n"
    "Processor grid dims = 1 1 2\n"
    "Decomposition Ranks = 3 3 3\n";

core::SolveSpec parse(const std::string& text,
                      core::Driver driver = core::Driver::hooi) {
  return core::parse_solve_spec(io::ParamFile::parse(text), driver);
}

std::string error_of(const std::string& text,
                     core::Driver driver = core::Driver::hooi) {
  try {
    parse(text, driver);
  } catch (const precondition_error& e) {
    return e.what();
  }
  return "";
}

TEST(RequestSpec, UnknownKeyIsRejectedByName) {
  const std::string what =
      error_of(std::string(kBase) + "Dimension tree memoization = true\n");
  EXPECT_NE(what.find("unknown parameter key 'Dimension tree memoization'"),
            std::string::npos)
      << what;
  EXPECT_NE(error_of(std::string(kBase) + "Sweeps = 3\n").find("'Sweeps'"),
            std::string::npos);
}

TEST(RequestSpec, RanksRuleIsOneAliasOnEverySurface) {
  // "Ranks" alone drives hooi and sthosvd alike.
  const std::string ranks_only =
      "Global dims = 12 12 12\nProcessor grid dims = 1 1 2\n"
      "Ranks = 3 3 3\n";
  for (const auto driver : {core::Driver::hooi, core::Driver::sthosvd}) {
    const core::SolveSpec spec = parse(ranks_only, driver);
    EXPECT_EQ(spec.decomposition, (std::vector<la::idx_t>{3, 3, 3}));
    EXPECT_EQ(spec.construction, spec.decomposition);
    EXPECT_EQ(spec, parse(kBase, driver));
    // Both spellings at once are inconsistent, whatever the values.
    EXPECT_NE(error_of(std::string(kBase) + "Ranks = 3 3 3\n", driver)
                  .find("not both"),
              std::string::npos);
  }
  const std::string no_ranks =
      "Global dims = 12 12 12\nProcessor grid dims = 1 1 2\n";
  EXPECT_NE(error_of(no_ranks).find("'Decomposition Ranks'"),
            std::string::npos);
  EXPECT_NE(error_of(no_ranks, core::Driver::sthosvd).find("SV Threshold"),
            std::string::npos);
  // Error-specified ST-HOSVD needs no ranks.
  EXPECT_EQ(parse(no_ranks + "SV Threshold = 0.1\n", core::Driver::sthosvd)
                .solver,
            core::Solver::sthosvd);
}

TEST(RequestSpec, RenderedDefaultsParseLikeAbsentKeys) {
  // Every key whose table row renders a literal default: writing that
  // default out must parse to the same spec as leaving the key out, so the
  // table's help text and the options structs cannot disagree.
  std::string all_defaults = kBase;
  int written = 0;
  for (const io::ParamKey& k : io::param_key_table()) {
    if (k.fallback[0] == '(') continue;  // required or derived
    all_defaults += std::string(k.key) + " = " + k.fallback + "\n";
    ++written;
  }
  EXPECT_GT(written, 20);
  for (const auto driver : {core::Driver::hooi, core::Driver::sthosvd}) {
    EXPECT_EQ(parse(all_defaults, driver), parse(kBase, driver));
  }
}

TEST(RequestSpec, SolverFollowsDriverAndThreshold) {
  const core::SolveSpec fixed = parse(kBase);
  EXPECT_EQ(fixed.solver, core::Solver::hooi);
  EXPECT_EQ(fixed.ra.hooi, core::HooiOptions{});

  const core::SolveSpec ra = parse(std::string(kBase) +
                                   "HOOI-Adapt Threshold = 0.05\n"
                                   "HOOI max iters = 4\n"
                                   "Rank growth factor = 2\n"
                                   "RA Init = sketched\n"
                                   "SVD Method = 2\n");
  EXPECT_EQ(ra.solver, core::Solver::rank_adaptive);
  EXPECT_DOUBLE_EQ(ra.ra.tolerance, 0.05);
  EXPECT_EQ(ra.ra.max_iters, 4);
  EXPECT_EQ(ra.ra.hooi.max_iters, 4);
  EXPECT_DOUBLE_EQ(ra.ra.growth_factor, 2.0);
  EXPECT_EQ(ra.ra.init, core::RaInit::sketched_sthosvd);
  EXPECT_EQ(ra.ra.hooi.svd_method, core::SvdMethod::subspace_iteration);

  EXPECT_EQ(parse(kBase, core::Driver::sthosvd).solver,
            core::Solver::sthosvd);
  EXPECT_NE(error_of(std::string(kBase) + "SVD Method = 7\n").find(
                "SVD Method"),
            std::string::npos);
}

TEST(RequestSpec, AutoSvdMethodResolvesOnTheGrid) {
  // "SVD Method = -1" leaves the choice to model::pick_llsv_backend, which
  // set_grid runs for the parsed 1x1x2 grid: d = 3, n = 12, r = 3, P = 2
  // favours warm-started subspace iteration.
  const core::SolveSpec spec =
      parse(std::string(kBase) + "SVD Method = -1\n");
  EXPECT_TRUE(spec.auto_llsv);
  EXPECT_EQ(spec.ra.hooi.svd_method, core::SvdMethod::subspace_iteration);
  EXPECT_FALSE(parse(kBase).auto_llsv);
}

TEST(RequestServe, UnknownKeyIsRejectedAtSubmitWithoutAWorld) {
  serve::Scheduler sched;
  const serve::SolveReport r = sched.wait(sched.submit(
      {"typo",
       io::ParamFile::parse(std::string(kBase) +
                            "Dimension tree memoization = true\n"),
       serve::Priority::normal, 0.0}));
  EXPECT_EQ(r.outcome, serve::Outcome::failed);
  EXPECT_EQ(r.error.rfind("rejected: unknown parameter key", 0), 0u)
      << r.error;
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(r.ranks_used, 0);
}

template <typename T>
void expect_same_tucker(const tensor::TuckerTensor<T>& got,
                        const tensor::TuckerTensor<T>& want) {
  ASSERT_EQ(got.ranks(), want.ranks());
  for (la::idx_t i = 0; i < want.core.size(); ++i) {
    ASSERT_EQ(got.core.data()[i], want.core.data()[i]) << "core " << i;
  }
  ASSERT_EQ(got.factors.size(), want.factors.size());
  for (std::size_t j = 0; j < want.factors.size(); ++j) {
    ASSERT_EQ(got.factors[j].size(), want.factors[j].size());
    for (la::idx_t i = 0; i < want.factors[j].size(); ++i) {
      ASSERT_EQ(got.factors[j].data()[i], want.factors[j].data()[i])
          << "factor " << j << " entry " << i;
    }
  }
}

template <typename T>
void expect_request_matches_scheduler(const std::string& text) {
  const core::SolveSpec spec = parse(text);
  core::SolveOutput<T> direct;
  comm::Runtime::run(2, [&](comm::Comm& world) {
    core::SolveOutput<T> out = core::solve<T>(spec, world);
    if (world.rank() == 0) direct = std::move(out);
  });

  serve::Scheduler sched;
  const serve::SolveReport r = sched.wait(
      sched.submit({"parity", io::ParamFile::parse(text),
                    serve::Priority::normal, 0.0}));
  ASSERT_EQ(r.outcome, serve::Outcome::completed) << r.error;
  ASSERT_NE(r.result, nullptr);
  EXPECT_EQ(r.tucker_ranks, direct.tucker.ranks());
  EXPECT_EQ(r.rel_error, direct.rel_error);
  EXPECT_EQ(r.compressed_size, direct.compressed_size);
  if constexpr (std::is_same_v<T, float>) {
    expect_same_tucker(r.result->tucker_f, direct.tucker);
  } else {
    expect_same_tucker(r.result->tucker_d, direct.tucker);
  }
}

TEST(RequestParity, FixedRankFp64MatchesTheScheduler) {
  expect_request_matches_scheduler<double>(
      std::string(kBase) + "Construction Ranks = 3 3 3\n"
                           "Single precision = false\n"
                           "HOOI max iters = 3\n");
}

TEST(RequestParity, RankAdaptiveFp32MatchesTheScheduler) {
  expect_request_matches_scheduler<float>(
      "Global dims = 16 16 16\n"
      "Processor grid dims = 1 2 1\n"
      "Construction Ranks = 4 4 4\n"
      "Decomposition Ranks = 2 2 2\n"
      "Noise = 0.001\n"
      "SVD Method = 2\n"
      "Dimension Tree Memoization = true\n"
      "HOOI-Adapt Threshold = 0.05\n"
      "HOOI max iters = 3\n");
}

// Rank 0 stalls 400 ms at its first sweep while rank 1 waits in the sweep's
// first collective: the request's 30 ms deadline must fire the watchdog.
const char* kStalled =
    "Global dims = 12 12 12\n"
    "Processor grid dims = 1 1 2\n"
    "Decomposition Ranks = 3 3 3\n"
    "Collective timeout ms = 30\n"
    "Fault plan = delay:sweep@0=400\n";

TEST(RequestTimeout, RequestDeadlineArmsTheWorldWatchdog) {
  const core::SolveSpec spec = parse(kStalled);
  EXPECT_DOUBLE_EQ(core::collective_timeout_s(spec), 0.03);
  const fault::Plan plan = fault::Plan::parse(spec.fault_plan, spec.fault_seed);
  comm::RunOptions ro;
  ro.collective_timeout_s = core::collective_timeout_s(spec);
  ro.fault_plan = &plan;
  EXPECT_THROW(comm::Runtime::run(
                   2,
                   [&](comm::Comm& world) {
                     core::solve<float>(spec, world);
                   },
                   nullptr, nullptr, ro),
               comm::TimeoutError);

  // Unset on both sides: -1 defers to RAHOOI_COLLECTIVE_TIMEOUT_MS.
  EXPECT_EQ(core::collective_timeout_s(parse(kBase)), -1.0);
  EXPECT_EQ(core::collective_timeout_s(parse(kBase), 2.0), 2.0);
}

TEST(RequestTimeout, ServedRequestDeadlineEndsInAWatchdogTimeout) {
  serve::Scheduler sched;
  const serve::SolveReport r = sched.wait(sched.submit(
      {"stalled", io::ParamFile::parse(kStalled), serve::Priority::normal,
       0.0}));
  EXPECT_EQ(r.outcome, serve::Outcome::failed);
  EXPECT_NE(r.error.find("watchdog expired"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace rahooi
