#include "la/eig.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "test_util.hpp"

namespace rahooi::la {
namespace {

using testutil::random_matrix;

template <typename T>
Matrix<T> random_symmetric(idx_t n, std::uint64_t seed) {
  auto a = random_matrix<T>(n, n, seed);
  Matrix<T> s(n, n);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < n; ++i) {
      s(i, j) = static_cast<T>(0.5 * (a(i, j) + a(j, i)));
    }
  }
  return s;
}

/// n x m Gaussian matrix whose row i is scaled by q^i: its Gram matrix has
/// a spectrum graded like a compressible unfolding's.
template <typename T>
Matrix<T> graded_rows(idx_t n, idx_t m, double q, std::uint64_t seed) {
  auto a = random_matrix<T>(n, m, seed);
  for (idx_t i = 0; i < n; ++i) {
    const double w = std::pow(q, static_cast<double>(i));
    for (idx_t j = 0; j < m; ++j) a(i, j) = static_cast<T>(w * a(i, j));
  }
  return a;
}

/// G = A A^T.
template <typename T>
Matrix<T> gram_of(const Matrix<T>& a) {
  Matrix<T> g(a.rows(), a.rows());
  syrk<T>(T{1}, a.cref(), T{0}, g.ref());
  return g;
}

/// Keeps a fixed number of leading eigenvectors.
EvdKeep keep_first(idx_t k) {
  return [k](const std::vector<double>&) { return k; };
}

/// The sign rule of eig.hpp: the largest-magnitude entry of every column
/// (lowest row on ties) is positive.
template <typename T>
void expect_sign_rule(const Matrix<T>& v) {
  for (idx_t j = 0; j < v.cols(); ++j) {
    idx_t arg = 0;
    for (idx_t i = 1; i < v.rows(); ++i) {
      if (std::abs(v(i, j)) > std::abs(v(arg, j))) arg = i;
    }
    EXPECT_GT(v(arg, j), T{0}) << "column " << j;
  }
}

template <typename T>
class EigTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(EigTyped, Scalars);

TYPED_TEST(EigTyped, ReconstructsSymmetricMatrix) {
  using T = TypeParam;
  auto a = random_symmetric<T>(12, 200);
  auto evd = sym_evd<T>(a.cref());
  // A = V diag(d) V^T
  Matrix<T> vd(12, 12);
  for (idx_t j = 0; j < 12; ++j) {
    for (idx_t i = 0; i < 12; ++i) {
      vd(i, j) = static_cast<T>(evd.vectors(i, j) * evd.eigenvalues[j]);
    }
  }
  auto rec = matmul<T>(Op::none, Op::transpose, vd, evd.vectors);
  EXPECT_LT(max_abs_diff<T>(rec, a), 100 * testutil::type_tol<T>());
}

TYPED_TEST(EigTyped, EigenvectorsAreOrthonormal) {
  using T = TypeParam;
  auto a = random_symmetric<T>(20, 201);
  auto evd = sym_evd<T>(a.cref());
  EXPECT_LT(orthogonality_error<T>(evd.vectors),
            100 * testutil::type_tol<T>());
}

TYPED_TEST(EigTyped, EigenvaluesDescending) {
  using T = TypeParam;
  auto a = random_symmetric<T>(15, 202);
  auto evd = sym_evd<T>(a.cref());
  for (std::size_t i = 0; i + 1 < evd.eigenvalues.size(); ++i) {
    EXPECT_GE(evd.eigenvalues[i], evd.eigenvalues[i + 1]);
  }
}

TYPED_TEST(EigTyped, DiagonalMatrixEigenvaluesExact) {
  using T = TypeParam;
  Matrix<T> a(4, 4);
  a(0, 0) = 3;
  a(1, 1) = -1;
  a(2, 2) = 7;
  a(3, 3) = 0;
  auto evd = sym_evd<T>(a.cref());
  EXPECT_NEAR(evd.eigenvalues[0], 7.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[1], 3.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[2], 0.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[3], -1.0, 1e-6);
}

TYPED_TEST(EigTyped, GramMatrixEigenvaluesAreSquaredSingularValues) {
  using T = TypeParam;
  // Known construction: A = U diag(s) V^T with orthonormal U, V.
  auto u = orthonormalize<T>(random_matrix<T>(10, 4, 203));
  auto v = orthonormalize<T>(random_matrix<T>(8, 4, 204));
  const double sv[4] = {5.0, 2.0, 1.0, 0.25};
  Matrix<T> us(10, 4);
  for (idx_t j = 0; j < 4; ++j) {
    for (idx_t i = 0; i < 10; ++i) {
      us(i, j) = static_cast<T>(u(i, j) * sv[j]);
    }
  }
  auto a = matmul<T>(Op::none, Op::transpose, us, v);  // 10 x 8
  Matrix<T> gram(10, 10);
  syrk<T>(T{1}, a.cref(), T{0}, gram.ref());
  auto evd = sym_evd<T>(gram.cref());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(evd.eigenvalues[i], sv[i] * sv[i],
                2e3 * testutil::type_tol<T>());
  }
  for (std::size_t i = 4; i < 10; ++i) {
    EXPECT_NEAR(evd.eigenvalues[i], 0.0, 2e3 * testutil::type_tol<T>());
  }
}

TYPED_TEST(EigTyped, LeadingVectorsMatchOracleAndFullDecomposition) {
  using T = TypeParam;
  const double u = std::numeric_limits<T>::epsilon();
  for (const idx_t n : {1, 2, 3, 17, 256}) {
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    const auto a = graded_rows<T>(n, n + 4, 0.97, 300 + n);
    const auto g = gram_of(a);
    const idx_t r = std::min<idx_t>(n, 5);
    const auto kept = sym_evd<T>(g.cref(), keep_first(r));
    ASSERT_EQ(kept.vectors.rows(), n);
    ASSERT_EQ(kept.vectors.cols(), r);
    ASSERT_EQ(static_cast<idx_t>(kept.eigenvalues.size()), n);

    // Eigenvalues against the squared singular values of A.
    const auto svd = svd_jacobi<T>(a.cref());
    const double lmax = svd.singular[0] * svd.singular[0];
    for (idx_t i = 0; i < n; ++i) {
      const double s = svd.singular[i];
      EXPECT_NEAR(kept.eigenvalues[i], s * s,
                  8.0 * static_cast<double>(n) * u * lmax)
          << "i = " << i;
    }

    // The kept block is the full decomposition's leading block, and each
    // kept column spans the oracle's singular vector.
    const auto full = sym_evd<T>(g.cref());
    EXPECT_EQ(full.eigenvalues, kept.eigenvalues);
    EXPECT_LE(max_abs_diff<T>(kept.vectors, full.vectors.leading_block(n, r)),
              10 * u);
    for (idx_t j = 0; j < r; ++j) {
      double c = 0.0;
      for (idx_t i = 0; i < n; ++i) c += kept.vectors(i, j) * svd.u(i, j);
      EXPECT_NEAR(std::abs(c), 1.0, 1e3 * u) << "column " << j;
    }
    EXPECT_LT(orthogonality_error<T>(kept.vectors), 100 * u);
    EXPECT_LT(orthogonality_error<T>(full.vectors),
              std::max<double>(100.0, static_cast<double>(n)) * u);
    expect_sign_rule(kept.vectors);
    expect_sign_rule(full.vectors);
  }
}

TYPED_TEST(EigTyped, NullSpacePaddingIsOrthonormal) {
  using T = TypeParam;
  const double u = std::numeric_limits<T>::epsilon();
  // Rank 3, eight vectors kept: five come from the null space.
  const auto g = gram_of(random_matrix<T>(17, 3, 310));
  const auto evd = sym_evd<T>(g.cref(), keep_first(8));
  EXPECT_EQ(evd.vectors.cols(), 8);
  EXPECT_LT(orthogonality_error<T>(evd.vectors), 100 * u);
  for (idx_t i = 3; i < 17; ++i) {
    EXPECT_NEAR(evd.eigenvalues[i], 0.0, 100 * u * evd.eigenvalues[0]);
  }
  expect_sign_rule(evd.vectors);
}

TYPED_TEST(EigTyped, RepeatedEigenvaluesKeepOrthonormalVectors) {
  using T = TypeParam;
  const double u = std::numeric_limits<T>::epsilon();
  // Q diag(4, 4, 4, 1, ..., 1) Q^T: a triple and a 14-fold eigenvalue.
  const idx_t n = 17;
  auto q = orthonormalize<T>(random_matrix<T>(n, n, 311));
  Matrix<T> qd(n, n);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < n; ++i) {
      qd(i, j) = static_cast<T>(q(i, j) * (j < 3 ? 4.0 : 1.0));
    }
  }
  const auto a = matmul<T>(Op::none, Op::transpose, qd, q);
  for (const idx_t r : {2, 3, 5}) {
    const auto evd = sym_evd<T>(a.cref(), keep_first(r));
    for (idx_t i = 0; i < n; ++i) {
      EXPECT_NEAR(evd.eigenvalues[i], i < 3 ? 4.0 : 1.0, 100 * u);
    }
    EXPECT_LT(orthogonality_error<T>(evd.vectors), 100 * u);
    expect_sign_rule(evd.vectors);
  }
}

TYPED_TEST(EigTyped, ZeroMatrixKeepsOrthonormalVectors) {
  using T = TypeParam;
  Matrix<T> a(9, 9);
  const auto evd = sym_evd<T>(a.cref(), keep_first(4));
  for (double ev : evd.eigenvalues) EXPECT_EQ(ev, 0.0);
  EXPECT_EQ(orthogonality_error<T>(evd.vectors), 0.0);
  expect_sign_rule(evd.vectors);
}

// Deflation relative to ||T||: the local test |e_m| <= u (|d_m| + |d_m+1|)
// never deflates eigenvalues far below u ||A||, and the QL iteration gave
// up on this input.
TYPED_TEST(EigTyped, StronglyGradedGramConverges) {
  using T = TypeParam;
  const double u = std::numeric_limits<T>::epsilon();
  const auto g = gram_of(graded_rows<T>(256, 1024, 0.93, 312));
  EvdResult<T> evd;
  ASSERT_NO_THROW(evd = sym_evd<T>(g.cref(), keep_first(8)));
  for (std::size_t i = 0; i + 1 < evd.eigenvalues.size(); ++i) {
    EXPECT_GE(evd.eigenvalues[i], evd.eigenvalues[i + 1]);
  }
  EXPECT_LT(orthogonality_error<T>(evd.vectors), 100 * u);
}

TEST(Eig, KeepSeesDescendingEigenvaluesAndBoundsTheCount) {
  auto a = random_symmetric<double>(6, 313);
  std::vector<double> seen;
  const auto evd = sym_evd<double>(a.cref(), [&](const auto& ev) {
    seen = ev;
    return idx_t{2};
  });
  EXPECT_EQ(seen, evd.eigenvalues);
  EXPECT_EQ(evd.vectors.cols(), 2);
  EXPECT_THROW(sym_evd<double>(a.cref(), keep_first(7)), precondition_error);
  EXPECT_EQ(sym_evd<double>(a.cref(), keep_first(0)).vectors.cols(), 0);
}

TEST(Eig, NonFiniteInputThrowsNumericalError) {
  Matrix<double> a = Matrix<double>::identity(4);
  a(3, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sym_evd<double>(a.cref()), numerical_error);
}

TEST(Eig, FlopCountChargedPerVectorFormed) {
  const double full = sym_evd_flops(256, 256);
  const double kept = sym_evd_flops(256, 8);
  const double values = sym_evd_flops(256, 0);
  EXPECT_GT(values, 4.0 / 3.0 * 256 * 256 * 256);
  EXPECT_LT(kept, 1.2 * values);
  EXPECT_NEAR((full - values) / 256, (kept - values) / 8, 1e-6);
}

TEST(Eig, OneByOne) {
  Matrix<double> a(1, 1);
  a(0, 0) = -2.5;
  auto evd = sym_evd<double>(a.cref());
  EXPECT_DOUBLE_EQ(evd.eigenvalues[0], -2.5);
  EXPECT_DOUBLE_EQ(evd.vectors(0, 0), 1.0);
}

TEST(Eig, TwoByTwoKnownEigenvalues) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix<double> a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto evd = sym_evd<double>(a.cref());
  EXPECT_NEAR(evd.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(evd.eigenvalues[1], 1.0, 1e-12);
}

TEST(Eig, RejectsNonSquare) {
  Matrix<double> a(3, 4);
  EXPECT_THROW(sym_evd<double>(a.cref()), precondition_error);
}

TEST(Eig, LargeMatrixStillAccurate) {
  auto a = random_symmetric<double>(100, 205);
  auto evd = sym_evd<double>(a.cref());
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-9);
  // Trace is preserved.
  double trace = 0, sum = 0;
  for (idx_t i = 0; i < 100; ++i) {
    trace += a(i, i);
    sum += evd.eigenvalues[i];
  }
  EXPECT_NEAR(trace, sum, 1e-8);
}

TEST(Eig, RepeatedEigenvaluesHandled) {
  // Identity: all eigenvalues 1, any orthonormal basis acceptable.
  auto a = Matrix<double>::identity(8);
  auto evd = sym_evd<double>(a.cref());
  for (double ev : evd.eigenvalues) EXPECT_NEAR(ev, 1.0, 1e-12);
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-12);
}

TEST(Eig, ZeroMatrix) {
  Matrix<double> a(5, 5);
  auto evd = sym_evd<double>(a.cref());
  for (double ev : evd.eigenvalues) EXPECT_EQ(ev, 0.0);
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-12);
}

}  // namespace
}  // namespace rahooi::la
