#include "model/calibration.hpp"

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"

namespace rahooi::model {

namespace {

la::Matrix<float> random_matrix(la::idx_t rows, la::idx_t cols,
                                std::uint64_t seed) {
  rahooi::CounterRng rng(seed);
  la::Matrix<float> m(rows, cols);
  for (la::idx_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(i));
  }
  return m;
}

}  // namespace

MachineRates calibrate(bool quick) {
  MachineRates rates;

  // Parallel-kernel rate: GEMM at a TTM-like shape (tall-skinny output).
  {
    const la::idx_t m = quick ? 128 : 512;
    const la::idx_t k = quick ? 128 : 512;
    const la::idx_t n = 32;
    auto a = random_matrix(m, k, 1);
    auto b = random_matrix(k, n, 2);
    la::Matrix<float> c(m, n);
    Stopwatch clock;
    int reps = 0;
    do {
      la::gemm<float>(la::Op::none, la::Op::none, 1.0f, a, b, 0.0f, c.ref());
      ++reps;
    } while (clock.elapsed() < (quick ? 0.02 : 0.2));
    rates.flops_per_sec = 2.0 * static_cast<double>(m) *
                          static_cast<double>(n) * static_cast<double>(k) *
                          reps / std::max(clock.elapsed(), 1e-9);
  }

  // Sequential rate: the EVD kernel itself (it is the STHOSVD bottleneck
  // the model must capture), called as llsv_gram calls it: on a Gram
  // matrix of the paper-regime mode size (DESIGN §1, miranda_like 256^3),
  // forming only a few leading vectors. Smaller n reads a lower rate: the
  // O(n^2) QL iteration, slow per flop, weighs more there.
  {
    const la::idx_t n = 256;
    constexpr la::idx_t kKept = 8;
    auto a = random_matrix(n, 2 * n, 3);
    la::Matrix<float> s(n, n);
    la::syrk<float>(1.0f, a.cref(), 0.0f, s.ref());
    const la::EvdKeep keep = [](const std::vector<double>&) { return kKept; };
    Stopwatch clock;
    int reps = 0;
    do {
      (void)la::sym_evd<float>(s.cref(), keep);
      ++reps;
    } while (clock.elapsed() < (quick ? 0.02 : 0.2));
    rates.seq_flops_per_sec =
        la::sym_evd_flops(static_cast<double>(n), static_cast<double>(kKept)) *
        reps / std::max(clock.elapsed(), 1e-9);
  }

  // Local memory bandwidth: a large streaming AXPY (2 reads + 1 write per
  // element). Used by the roofline extension; the per-node aggregate keeps
  // its Perlmutter-like default since only one core exists here.
  {
    const la::idx_t n = quick ? (1 << 18) : (1 << 22);
    std::vector<float> x(n, 1.0f), y(n, 2.0f);
    Stopwatch clock;
    int reps = 0;
    do {
      la::axpy<float>(n, 1.0f, x.data(), y.data());
      ++reps;
    } while (clock.elapsed() < (quick ? 0.02 : 0.2));
    rates.core_mem_bytes_per_sec = 3.0 * sizeof(float) *
                                   static_cast<double>(n) * reps /
                                   std::max(clock.elapsed(), 1e-9);
  }

  return rates;
}

}  // namespace rahooi::model
