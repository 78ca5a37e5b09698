// Property sweep validating the packed register-blocked GEMM/SYRK kernels
// against the retained naive references (gemm_ref / syrk_ref) across shapes
// straddling every blocking boundary, all op combinations, non-unit leading
// dimensions, and the beta values used in the codebase.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/stats.hpp"
#include "la/blas.hpp"
#include "test_util.hpp"

namespace rahooi::la {
namespace {

using testutil::random_matrix;

template <typename T>
constexpr double rel_tol() {
  return std::is_same_v<T, float> ? 1e-4 : 1e-12;
}

/// Max elementwise |a-b| scaled by the magnitude of the reference.
template <typename T>
double rel_err(ConstMatrixRef<T> got, ConstMatrixRef<T> want) {
  double scale = 1.0;
  for (idx_t j = 0; j < want.cols; ++j) {
    for (idx_t i = 0; i < want.rows; ++i) {
      scale = std::max(scale, std::abs(static_cast<double>(want(i, j))));
    }
  }
  return max_abs_diff<T>(got, want) / scale;
}

template <typename T>
class BlasPackedTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BlasPackedTyped, Scalars);

// The shape set straddles the register-tile edges (MR up to 64, NR = 4) and
// the odd remainders that force zero-padded packing.
constexpr idx_t kShapes[] = {1, 2, 3, 5, 7, 17, 64, 65};
constexpr double kBetas[] = {0.0, 1.0, 0.5};

/// gemm against gemm_ref at one shape, for all op combinations and betas,
/// with every view at a non-unit leading dimension.
template <typename T>
void check_gemm_all_ops(idx_t m, idx_t n, idx_t k, std::uint64_t& seed) {
  for (Op op_a : {Op::none, Op::transpose}) {
    for (Op op_b : {Op::none, Op::transpose}) {
      for (double beta : kBetas) {
        // Padded allocations so every view has ld > rows.
        const idx_t ar = (op_a == Op::none) ? m : k;
        const idx_t ac = (op_a == Op::none) ? k : m;
        const idx_t br = (op_b == Op::none) ? k : n;
        const idx_t bc = (op_b == Op::none) ? n : k;
        auto astore = random_matrix<T>(ar + 3, ac + 1, seed++);
        auto bstore = random_matrix<T>(br + 2, bc + 1, seed++);
        auto cstore = random_matrix<T>(m + 5, n + 1, seed++);
        auto cref_store = cstore;  // identical initial contents
        auto a = astore.cref().block(2, 1, ar, ac);
        auto b = bstore.cref().block(1, 0, br, bc);
        auto c = cstore.ref().block(3, 1, m, n);
        auto cr = cref_store.ref().block(3, 1, m, n);
        const T alpha = static_cast<T>(1.25);
        gemm<T>(op_a, op_b, alpha, a, b, static_cast<T>(beta), c);
        gemm_ref<T>(op_a, op_b, alpha, a, b, static_cast<T>(beta), cr);
        // Deep products accumulate more rounding than the shallow sweep.
        const double tol = rel_tol<T>() * (k > 65 ? 10 : 1);
        ASSERT_LT(rel_err<T>(c, cr), tol)
            << "m=" << m << " n=" << n << " k=" << k
            << " op_a=" << static_cast<int>(op_a)
            << " op_b=" << static_cast<int>(op_b) << " beta=" << beta;
        // Padding around the C block must be untouched.
        ASSERT_EQ(cstore(0, 0), cref_store(0, 0));
        ASSERT_EQ(cstore(2, n), cref_store(2, n));
        ASSERT_EQ(cstore(m + 4, n), cref_store(m + 4, n));
      }
    }
  }
}

TYPED_TEST(BlasPackedTyped, GemmSweepAllOpsShapesBetasNonUnitLd) {
  using T = TypeParam;
  std::uint64_t seed = 1;
  for (idx_t m : kShapes) {
    for (idx_t n : kShapes) {
      for (idx_t k : kShapes) {
        check_gemm_all_ops<T>(m, n, k, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Thin row: one side of C at the edges of the vector length and the
  // register tile (the thin path switches at m < MR), the other side wide,
  // and depths on both sides of KC = 256.
  const TileShape tile = tile_shape<T>();
  const idx_t wide = 37;
  for (idx_t thin : {idx_t{1}, tile.vl - 1, tile.vl + 1, tile.mr - 1,
                     tile.mr + 1}) {
    if (thin < 1) continue;
    for (idx_t k : {idx_t{255}, idx_t{256}, idx_t{257}, idx_t{600}}) {
      check_gemm_all_ops<T>(thin, wide, k, seed);
      check_gemm_all_ops<T>(wide, thin, k, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TYPED_TEST(BlasPackedTyped, SyrkSweepShapesBetas) {
  using T = TypeParam;
  std::uint64_t seed = 1000;
  for (idx_t m : kShapes) {
    for (idx_t k : kShapes) {
      for (double beta : kBetas) {
        auto astore = random_matrix<T>(m + 2, k + 1, seed++);
        auto a = astore.cref().block(1, 1, m, k);
        auto c = random_matrix<T>(m, m, seed++);
        // syrk semantics only guarantee a symmetric result for symmetric
        // beta-input, so symmetrize the accumulator first.
        for (idx_t j = 0; j < m; ++j) {
          for (idx_t i = 0; i < j; ++i) c(i, j) = c(j, i);
        }
        auto cref = c;
        const T alpha = static_cast<T>(0.75);
        syrk<T>(alpha, a, static_cast<T>(beta), c.ref());
        syrk_ref<T>(alpha, a, static_cast<T>(beta), cref.ref());
        ASSERT_LT(rel_err<T>(c.cref(), cref.cref()), rel_tol<T>())
            << "m=" << m << " k=" << k << " beta=" << beta;
        for (idx_t j = 0; j < m; ++j) {
          for (idx_t i = 0; i < j; ++i) {
            ASSERT_EQ(c(i, j), c(j, i)) << "asymmetric at " << i << "," << j;
          }
        }
      }
    }
  }
}

/// gemm_strided_batch against a per-slab gemm_ref loop at one shape.
template <typename T>
void check_strided_batch(idx_t batch, idx_t m, idx_t n, idx_t k, Op op_b,
                         std::uint64_t seed) {
  // Slabs embedded with a gap: stride exceeds the slab footprint.
  const idx_t a_stride = m * k + 5, c_stride = m * n + 3;
  std::vector<T> abuf(batch * a_stride), cbuf(batch * c_stride), crefbuf;
  CounterRng rng(seed);
  for (std::size_t i = 0; i < abuf.size(); ++i) {
    abuf[i] = static_cast<T>(rng.normal(i));
  }
  for (std::size_t i = 0; i < cbuf.size(); ++i) {
    cbuf[i] = static_cast<T>(rng.normal(i + abuf.size()));
  }
  crefbuf = cbuf;
  auto bstore = random_matrix<T>((op_b == Op::none) ? k : n,
                                 (op_b == Op::none) ? n : k, seed + 1);
  gemm_strided_batch<T>(op_b, batch, static_cast<T>(1.5), abuf.data(), m, k,
                        a_stride, bstore.cref(), static_cast<T>(0.5),
                        cbuf.data(), n, c_stride);
  for (idx_t s = 0; s < batch; ++s) {
    ConstMatrixRef<T> as(abuf.data() + s * a_stride, m, k, m);
    MatrixRef<T> cs{crefbuf.data() + s * c_stride, m, n, m};
    gemm_ref<T>(Op::none, op_b, static_cast<T>(1.5), as, bstore.cref(),
                static_cast<T>(0.5), cs);
  }
  for (std::size_t i = 0; i < cbuf.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(cbuf[i]), crefbuf[i], rel_tol<T>() * 100)
        << "batch=" << batch << " m=" << m << " n=" << n << " k=" << k
        << " op_b=" << static_cast<int>(op_b) << " i=" << i;
  }
}

TYPED_TEST(BlasPackedTyped, StridedBatchGemmMatchesPerSlabLoop) {
  // Slab heights below, at and across the register tile; ranks on both
  // sides of the thin path's tile width; depths on both sides of KC.
  std::uint64_t seed = 2000;
  for (idx_t batch : {idx_t{1}, idx_t{3}, idx_t{9}}) {
    for (idx_t m : {idx_t{13}, idx_t{64}, idx_t{65}, idx_t{130}}) {
      for (idx_t n : {idx_t{1}, idx_t{4}, idx_t{6}, idx_t{17}}) {
        for (idx_t k : {idx_t{17}, idx_t{257}}) {
          for (Op op_b : {Op::none, Op::transpose}) {
            check_strided_batch<TypeParam>(batch, m, n, k, op_b, seed);
            if (::testing::Test::HasFatalFailure()) return;
            seed += 2;
          }
        }
      }
    }
  }
}

/// Bit pattern equality (EXPECT_EQ on values would let +0 match -0).
template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// The thin path needs no switch to test: zero-padding the small side r up
// to the full register tile sends the same product down the packed path,
// and its leading r rows (gemm) or columns (strided batch) must equal the
// thin product bit for bit.
TYPED_TEST(BlasPackedTyped, ThinPathBitwiseEqualsZeroPaddedPackedPath) {
  using T = TypeParam;
  const TileShape tile = tile_shape<T>();
  const idx_t mr = tile.mr;
  const T alpha = static_cast<T>(1.25), beta = static_cast<T>(0.5);
  std::uint64_t seed = 7000;
  for (idx_t r : {idx_t{1}, idx_t{3}, tile.vl - 1, tile.vl + 1, mr - 1}) {
    if (r < 1) continue;
    for (idx_t k : {idx_t{100}, idx_t{257}, idx_t{600}}) {
      // gemm: op(A) is (r x k) thin against (mr x k) padded with zero rows.
      const idx_t n = 37;
      for (Op op_a : {Op::none, Op::transpose}) {
        for (Op op_b : {Op::none, Op::transpose}) {
          auto apad = (op_a == Op::none) ? random_matrix<T>(mr, k, seed++)
                                         : random_matrix<T>(k, mr, seed++);
          for (idx_t i = r; i < mr; ++i) {
            for (idx_t l = 0; l < k; ++l) {
              (op_a == Op::none ? apad(i, l) : apad(l, i)) = T{0};
            }
          }
          const auto a = (op_a == Op::none) ? apad.cref().block(0, 0, r, k)
                                            : apad.cref().block(0, 0, k, r);
          auto b = (op_b == Op::none) ? random_matrix<T>(k, n, seed++)
                                      : random_matrix<T>(n, k, seed++);
          auto cpad = random_matrix<T>(mr, n, seed++);
          auto c = cpad.leading_block(r, n);
          gemm<T>(op_a, op_b, alpha, a, b.cref(), beta, c.ref());
          gemm<T>(op_a, op_b, alpha, apad.cref(), b.cref(), beta, cpad.ref());
          for (idx_t j = 0; j < n; ++j) {
            for (idx_t i = 0; i < r; ++i) {
              ASSERT_TRUE(same_bits(c(i, j), cpad(i, j)))
                  << "gemm r=" << r << " k=" << k << " op_a="
                  << static_cast<int>(op_a) << " op_b="
                  << static_cast<int>(op_b) << " at " << i << "," << j;
            }
          }
        }
      }
      // Strided batch: op(B) is (k x r) thin against (k x mr) padded with
      // zero columns; slab heights at and past one vector.
      const idx_t batch = 3;
      for (idx_t m : {tile.vl, 2 * mr + 3}) {
        for (Op op_b : {Op::none, Op::transpose}) {
          auto a = random_matrix<T>(m * k, batch, seed++);
          auto bpad = (op_b == Op::none) ? random_matrix<T>(k, mr, seed++)
                                         : random_matrix<T>(mr, k, seed++);
          for (idx_t j = r; j < mr; ++j) {
            for (idx_t l = 0; l < k; ++l) {
              (op_b == Op::none ? bpad(l, j) : bpad(j, l)) = T{0};
            }
          }
          const auto b = (op_b == Op::none) ? bpad.cref().block(0, 0, k, r)
                                            : bpad.cref().block(0, 0, r, k);
          auto cpad = random_matrix<T>(m * mr, batch, seed++);
          Matrix<T> c(m * r, batch);
          for (idx_t s = 0; s < batch; ++s) {
            for (idx_t i = 0; i < m * r; ++i) c(i, s) = cpad(i, s);
          }
          gemm_strided_batch<T>(op_b, batch, alpha, a.data(), m, k, m * k, b,
                                beta, c.data(), r, m * r);
          gemm_strided_batch<T>(op_b, batch, alpha, a.data(), m, k, m * k,
                                bpad.cref(), beta, cpad.data(), mr, m * mr);
          for (idx_t s = 0; s < batch; ++s) {
            for (idx_t i = 0; i < m * r; ++i) {
              ASSERT_TRUE(same_bits(c(i, s), cpad(i, s)))
                  << "batch r=" << r << " k=" << k << " m=" << m
                  << " op_b=" << static_cast<int>(op_b) << " slab " << s
                  << " entry " << i;
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(BlasPackedTyped, BatchTnMatchesAccumulatedTransposedGemms) {
  using T = TypeParam;
  const idx_t batch = 5, rows = 11, m = 7, n = 4;
  const idx_t a_stride = rows * m, b_stride = rows * n;
  auto astore = random_matrix<T>(rows, m * batch, 3000);
  auto bstore = random_matrix<T>(rows, n * batch, 3001);
  Matrix<T> c(m, n), cref(m, n);
  gemm_batch_tn<T>(batch, T{1}, astore.data(), rows, m, a_stride,
                   bstore.data(), n, b_stride, T{0}, c.ref());
  for (idx_t s = 0; s < batch; ++s) {
    ConstMatrixRef<T> as(astore.data() + s * a_stride, rows, m, rows);
    ConstMatrixRef<T> bs(bstore.data() + s * b_stride, rows, n, rows);
    gemm_ref<T>(Op::transpose, Op::none, T{1}, as, bs,
                s == 0 ? T{0} : T{1}, cref.ref());
  }
  EXPECT_LT(rel_err<T>(c.cref(), cref.cref()), rel_tol<T>() * 10);
}

TYPED_TEST(BlasPackedTyped, SyrkBatchTMatchesStackedSyrk) {
  using T = TypeParam;
  const idx_t batch = 4, rows = 9, n = 6;
  const idx_t a_stride = rows * n;
  auto astore = random_matrix<T>(rows, n * batch, 4000);
  Matrix<T> c(n, n), cref(n, n);
  syrk_batch_t<T>(batch, T{1}, astore.data(), rows, n, a_stride, T{0},
                  c.ref());
  // Reference: transpose each slab to (n x rows) and accumulate syrk_ref.
  Matrix<T> slabT(n, rows);
  for (idx_t s = 0; s < batch; ++s) {
    ConstMatrixRef<T> as(astore.data() + s * a_stride, rows, n, rows);
    transpose<T>(as, slabT.ref());
    syrk_ref<T>(T{1}, slabT.cref(), s == 0 ? T{0} : T{1}, cref.ref());
  }
  EXPECT_LT(rel_err<T>(c.cref(), cref.cref()), rel_tol<T>() * 10);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < j; ++i) EXPECT_EQ(c(i, j), c(j, i));
  }
}

TYPED_TEST(BlasPackedTyped, TransposeWithViews) {
  using T = TypeParam;
  auto astore = random_matrix<T>(10, 8, 5000);
  auto a = astore.cref().block(1, 2, 7, 5);
  Matrix<T> bt(5, 7);
  transpose<T>(a, bt.ref());
  for (idx_t j = 0; j < 5; ++j) {
    for (idx_t i = 0; i < 7; ++i) EXPECT_EQ(bt(j, i), a(i, j));
  }
}

// Regression for the seed kernel's data-dependent flop accounting: the old
// axpy formulation skipped columns where b(l, j) == 0, so flop counts (and
// the paper-table GFLOP/s derived from them) depended on sparsity. The
// packed kernel must record exactly 2 m n k regardless of the data.
TEST(BlasPacked, FlopCountIndependentOfZeroEntries) {
  Matrix<double> a(10, 20), b(20, 30), c(10, 30);
  for (idx_t i = 0; i < a.size(); ++i) a.data()[i] = 1.0;
  // b stays all zero.
  Stats s;
  {
    ScopedStats scoped(s);
    gemm<double>(Op::none, Op::none, 1.0, a, b, 0.0, c.ref());
  }
  EXPECT_DOUBLE_EQ(s.total_flops(), 2.0 * 10 * 30 * 20);
}

TEST(BlasPacked, BatchedKernelsRecordExactFlops) {
  const idx_t batch = 3, m = 4, k = 5, n = 6, rows = 7, r = 2;
  Stats s;
  {
    ScopedStats scoped(s);
    std::vector<double> a(batch * m * k), c(batch * m * n);
    Matrix<double> b(k, n);
    gemm_strided_batch<double>(Op::none, batch, 1.0, a.data(), m, k, m * k,
                               b.cref(), 0.0, c.data(), n, m * n);
  }
  EXPECT_DOUBLE_EQ(s.total_flops(), 2.0 * m * batch * n * k);

  // Thin shapes: the small side below the register tile, read in place.
  const TileShape tile = tile_shape<double>();
  const idx_t thin = tile.mr - 1, tall = 2 * tile.mr + 1, deep = 300;
  Stats st;
  {
    ScopedStats scoped(st);
    Matrix<double> u(deep, thin), x(deep, tall), y(thin, tall);
    gemm<double>(Op::transpose, Op::none, 1.0, u, x, 0.0, y.ref());
    std::vector<double> xs(batch * tall * deep), ys(batch * tall * thin);
    gemm_strided_batch<double>(Op::none, batch, 1.0, xs.data(), tall, deep,
                               tall * deep, u.cref(), 0.0, ys.data(), thin,
                               tall * thin);
  }
  const double thin_flops = 2.0 * static_cast<double>(thin * tall * deep);
  EXPECT_DOUBLE_EQ(st.total_flops(), thin_flops * (1 + batch));

  Stats s2;
  {
    ScopedStats scoped(s2);
    std::vector<double> y(batch * rows * m), g(batch * rows * r);
    Matrix<double> z(m, r);
    gemm_batch_tn<double>(batch, 1.0, y.data(), rows, m, rows * m, g.data(),
                          r, rows * r, 0.0, z.ref());
  }
  EXPECT_DOUBLE_EQ(s2.total_flops(), 2.0 * m * r * rows * batch);

  Stats s3;
  {
    ScopedStats scoped(s3);
    std::vector<double> x(batch * rows * n);
    Matrix<double> g(n, n);
    syrk_batch_t<double>(batch, 1.0, x.data(), rows, n, rows * n, 0.0,
                         g.ref());
  }
  EXPECT_DOUBLE_EQ(s3.total_flops(),
                   static_cast<double>(n) * (n + 1) * rows * batch);
}

}  // namespace
}  // namespace rahooi::la
