#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace rahooi::la {

namespace {

/// QL rotations per n^2 that sym_evd_flops assumes: measured 0.68-0.81 on
/// the mode Gram matrices of miranda_like 256^3 (1.1-1.2 on random
/// symmetric matrices).
constexpr double kRotationsPerN2 = 0.8;
/// Flops of one QL rotation in the eigenvalue iteration (its square root
/// and division counted as one each, the log entry included), and of one
/// replayed rotation per vector.
constexpr double kQlFlopsPerRotation = 20.0;
constexpr double kReplayFlopsPerRotation = 6.0;
/// QL sweeps allowed per eigenvalue before the input is declared
/// pathological.
constexpr int kMaxSweeps = 64;

/// Householder reduction of the lower triangle of the n x n column-major
/// `w` to the tridiagonal (d, e), e[k] coupling k and k+1:
/// A = Q T Q^T, Q = H_0 H_1 ... H_{n-3}, H_k = I - tau[k] v_k v_k^T,
/// v_k = (1, w[k+2:n, k]) acting on rows k+1..n-1. Per column: a SYMV and
/// a SYR2 on the trailing lower triangle, both over contiguous columns.
/// `p` is n doubles of scratch.
void tridiagonalize(idx_t n, double* w, double* d, double* e, double* tau,
                    double* p) {
  for (idx_t k = 0; k + 2 < n; ++k) {
    const idx_t m = n - k - 1;
    double* v = w + (k + 1) + k * n;  // column k below the diagonal
    d[k] = w[k + k * n];
    double tail_sq = 0.0;
    for (idx_t i = 1; i < m; ++i) tail_sq += v[i] * v[i];
    const double alpha = v[0];
    if (tail_sq == 0.0) {
      tau[k] = 0.0;
      e[k] = alpha;
      continue;
    }
    const double beta = -std::copysign(std::sqrt(alpha * alpha + tail_sq),
                                       alpha);
    const double t = (beta - alpha) / beta;
    tau[k] = t;
    e[k] = beta;
    const double scale = 1.0 / (alpha - beta);
    for (idx_t i = 1; i < m; ++i) v[i] *= scale;
    v[0] = 1.0;

    // p = tau A22 v over the lower triangle of A22 = w[k+1:, k+1:]: column
    // j contributes an AXPY below its diagonal and a dot product to p[j].
    double* a22 = w + (k + 1) + (k + 1) * n;
    std::fill(p, p + m, 0.0);
    for (idx_t j = 0; j < m; ++j) {
      const double* col = a22 + j + j * n;  // A22[j:, j]
      const double* vj = v + j;
      double* pj = p + j;
      const double x = vj[0];
      const idx_t len = m - j;
      double acc0 = col[0] * x, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      idx_t i = 1;
      for (; i + 3 < len; i += 4) {
        pj[i] += col[i] * x;
        pj[i + 1] += col[i + 1] * x;
        pj[i + 2] += col[i + 2] * x;
        pj[i + 3] += col[i + 3] * x;
        acc0 += col[i] * vj[i];
        acc1 += col[i + 1] * vj[i + 1];
        acc2 += col[i + 2] * vj[i + 2];
        acc3 += col[i + 3] * vj[i + 3];
      }
      for (; i < len; ++i) {
        pj[i] += col[i] * x;
        acc0 += col[i] * vj[i];
      }
      pj[0] += (acc0 + acc1) + (acc2 + acc3);
    }
    // p <- p - (tau/2)(p^T v) v, then A22 <- A22 - v p^T - p v^T.
    double pv = 0.0;
    for (idx_t i = 0; i < m; ++i) {
      p[i] *= t;
      pv += p[i] * v[i];
    }
    const double shift = -0.5 * t * pv;
    for (idx_t i = 0; i < m; ++i) p[i] += shift * v[i];
    for (idx_t j = 0; j < m; ++j) {
      double* col = a22 + j + j * n;
      const double vj = v[j], pj = p[j];
      for (idx_t i = 0; i < m - j; ++i) {
        col[i] -= v[j + i] * pj + p[j + i] * vj;
      }
    }
  }
  if (n >= 2) {
    d[n - 2] = w[(n - 2) + (n - 2) * n];
    e[n - 2] = w[(n - 1) + (n - 2) * n];
  }
  d[n - 1] = w[(n - 1) + (n - 1) * n];
}

/// hypot(a, b) without its cost where the squares can neither overflow nor
/// underflow, which is every rotation of a rescaled matrix in practice.
double fast_hypot(double a, double b) {
  const double m = std::max(std::abs(a), std::abs(b));
  if (m > 0x1p-500 && m < 0x1p500) return std::sqrt(a * a + b * b);
  return std::hypot(a, b);
}

/// One double per QL rotation: with c >= 0 the half-angle tangent
/// t = s / (1 + c) lies in [-1, 1] and gives c and s back to roundoff.
/// Entries live in a caller buffer and spill to the heap past it.
class RotationLog {
 public:
  RotationLog(double* base, idx_t capacity) : base_(base), cap_(capacity) {}

  void push(double c, double s) {
    const double t = s / (1.0 + c);
    if (size_ < cap_) {
      base_[size_] = t;
    } else {
      spill_.push_back(t);
    }
    ++size_;
  }
  void get(idx_t q, double& c, double& s) const {
    const double t = q < cap_ ? base_[q] : spill_[q - cap_];
    const double inv = 1.0 / (1.0 + t * t);
    c = (1.0 - t) * (1.0 + t) * inv;
    s = 2.0 * t * inv;
  }
  idx_t size() const { return size_; }

 private:
  double* base_;
  idx_t cap_;
  idx_t size_ = 0;
  std::vector<double> spill_;
};

/// One QL sweep's rotations, logged in order: planes (top, top + 1),
/// (top - 1, top), ..., (top - count + 1, top - count + 2).
struct Sweep {
  idx_t top;
  idx_t count;
};

/// Implicit-shift QL (EISPACK tql2 without vectors) on the tridiagonal
/// (d, e), e[i] coupling i and i+1, e[n-1] = 0. Each rotation's sign is
/// chosen so that c >= 0, which leaves d bitwise unchanged (it flips the
/// sign of off-diagonals only) and lets the log keep one double per
/// rotation. Deflation is norm-relative: |e_m| <= u ||T||_1.
void ql_eigenvalues(idx_t n, double* d, double* e, RotationLog& log,
                    std::vector<Sweep>& sweeps) {
  double tnorm = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    tnorm = std::max(tnorm, std::abs(d[i]) + std::abs(e[i]) +
                                (i > 0 ? std::abs(e[i - 1]) : 0.0));
  }
  const double tol = std::numeric_limits<double>::epsilon() * tnorm;
  for (idx_t l = 0; l < n; ++l) {
    for (int sweep = 0;; ++sweep) {
      idx_t m = l;
      while (m < n - 1 && std::abs(e[m]) > tol) ++m;
      if (m == l) break;
      // Non-convergence is a property of the input data, not caller
      // misuse: numerical_error so the solver fallback chain can catch it.
      if (sweep == kMaxSweeps) {
        throw numerical_error("sym_evd: QL iteration failed to converge");
      }
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      bool underflow = false;
      idx_t i = m - 1;
      for (; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::copysign(fast_hypot(f, g), g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        const double inv = 1.0 / r;
        s = f * inv;
        c = g * inv;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        log.push(c, s);
      }
      if (i < m - 1) sweeps.push_back({m - 1, m - 1 - i});
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

/// Replays the log backwards on the rows of the row-major n x k block y:
/// column j of the QL eigenvector matrix R_1 R_2 ... R_N is R_1 (... (R_N
/// e_j)), so the last rotation goes first.
void replay(const RotationLog& log, const std::vector<Sweep>& sweeps,
            idx_t k, double* y) {
  idx_t q = log.size();
  for (auto sw = sweeps.rbegin(); sw != sweeps.rend(); ++sw) {
    q -= sw->count;
    for (idx_t t = sw->count - 1; t >= 0; --t) {
      double c, s;
      log.get(q + t, c, s);
      double* top = y + (sw->top - t) * k;
      double* bot = top + k;
      for (idx_t j = 0; j < k; ++j) {
        const double a = top[j], b = bot[j];
        top[j] = c * a + s * b;
        bot[j] = c * b - s * a;
      }
    }
  }
}

/// y <- Q y for the row-major n x k block y, Q = H_0 ... H_{n-3} with the
/// reflectors' tails packed back to back in `packed`.
void back_transform(idx_t n, const double* packed, const double* tau,
                    idx_t k, double* y, double* acc) {
  for (idx_t h = n - 3; h >= 0; --h) {
    if (tau[h] == 0.0) continue;
    const idx_t off = h * (n - 2) - h * (h - 1) / 2;
    const double* v = packed + off;  // entries 1.. of v_h
    const idx_t m = n - h - 1;
    double* rows = y + (h + 1) * k;
    std::copy(rows, rows + k, acc);  // v_h[0] = 1
    for (idx_t i = 1; i < m; ++i) {
      const double vi = v[i - 1];
      const double* row = rows + i * k;
      for (idx_t j = 0; j < k; ++j) acc[j] += vi * row[j];
    }
    for (idx_t j = 0; j < k; ++j) acc[j] *= tau[h];
    for (idx_t j = 0; j < k; ++j) rows[j] -= acc[j];
    for (idx_t i = 1; i < m; ++i) {
      const double vi = v[i - 1];
      double* row = rows + i * k;
      for (idx_t j = 0; j < k; ++j) row[j] -= vi * acc[j];
    }
  }
}

}  // namespace

double sym_evd_flops(double n, double vectors) {
  const double rotations = kRotationsPerN2 * n * n;
  return 4.0 / 3.0 * n * n * n + kQlFlopsPerRotation * rotations +
         vectors * (kReplayFlopsPerRotation * rotations + 2.0 * n * n);
}

template <typename T>
EvdResult<T> sym_evd(ConstMatrixRef<T> a, const EvdKeep& keep) {
  RAHOOI_REQUIRE(a.rows == a.cols, "sym_evd requires a square matrix");
  const idx_t n = a.rows;
  EvdResult<T> out;
  if (n == 0) return out;

  // Work in double on an exact power-of-two rescaling of the lower
  // triangle, so that the reflector norms cannot overflow.
  double amax = 0.0;
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = j; i < n; ++i) {
      const double x = static_cast<double>(a(i, j));
      if (!std::isfinite(x)) {
        throw numerical_error("sym_evd: non-finite matrix entry");
      }
      amax = std::max(amax, std::abs(x));
    }
  }
  const int scale_exp = amax > 0.0 ? std::max(std::ilogb(amax), -1000) : 0;
  const double down = std::ldexp(1.0, -scale_exp);
  // n^2 for the matrix, then half as much again: the reflectors leave
  // about n^2 / 2 of it free, and the QL log takes about 0.8 n^2.
  const idx_t wsize = n * n + n * n / 2;
  // Left uninitialized: the log's pages are touched only as it fills.
  const auto w = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(wsize));
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = j; i < n; ++i) {
      w[i + j * n] = static_cast<double>(a(i, j)) * down;
    }
  }
  std::vector<double> d(n), e(n, 0.0), tau(n, 0.0), scratch(n);
  tridiagonalize(n, w.get(), d.data(), e.data(), tau.data(),
                 scratch.data());

  // Pack the reflector tails to the front of w; the rest holds the log.
  idx_t packed = 0;
  for (idx_t h = 0; h + 2 < n; ++h) {
    const idx_t len = n - h - 2;
    std::memmove(w.get() + packed, w.get() + (h + 2) + h * n,
                 static_cast<std::size_t>(len) * sizeof(double));
    packed += len;
  }
  RotationLog log(w.get() + packed, wsize - packed);

  // QL prefers the larger end of the tridiagonal at the bottom.
  const bool reversed = std::abs(d[0]) > std::abs(d[n - 1]);
  if (reversed) {
    std::reverse(d.begin(), d.end());
    std::reverse(e.begin(), e.begin() + (n - 1));
  }
  std::vector<Sweep> sweeps;
  ql_eigenvalues(n, d.data(), e.data(), log, sweeps);

  std::vector<idx_t> order(n);
  std::iota(order.begin(), order.end(), idx_t{0});
  std::sort(order.begin(), order.end(), [&](idx_t x, idx_t y) {
    return d[x] > d[y] || (d[x] == d[y] && x < y);
  });
  out.eigenvalues.resize(n);
  for (idx_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = std::ldexp(d[order[j]], scale_exp);
  }
  const idx_t k = keep ? keep(out.eigenvalues) : n;
  RAHOOI_REQUIRE(k >= 0 && k <= n,
                 "sym_evd: kept vector count must be in [0, n]");

  // Eigenvectors of the kept eigenvalues, as rows of a row-major n x k
  // block: unit vectors through the log, then through the reflectors.
  std::vector<double> y(static_cast<std::size_t>(n) * k, 0.0);
  for (idx_t j = 0; j < k; ++j) y[order[j] * k + j] = 1.0;
  replay(log, sweeps, k, y.data());
  if (reversed) {
    for (idx_t i = 0; i < n / 2; ++i) {
      std::swap_ranges(y.begin() + i * k, y.begin() + (i + 1) * k,
                       y.begin() + (n - 1 - i) * k);
    }
  }
  back_transform(n, w.get(), tau.data(), k, y.data(), scratch.data());

  out.vectors = Matrix<T>(n, k);
  for (idx_t j = 0; j < k; ++j) {
    // Sign rule (eig.hpp), applied to the stored values.
    idx_t arg = 0;
    T best = T{0};
    for (idx_t i = 0; i < n; ++i) {
      const T x = static_cast<T>(y[i * k + j]);
      out.vectors(i, j) = x;
      if (std::abs(x) > best) {
        best = std::abs(x);
        arg = i;
      }
    }
    if (out.vectors(arg, j) < T{0}) {
      for (idx_t i = 0; i < n; ++i) out.vectors(i, j) = -out.vectors(i, j);
    }
  }
  stats::add_flops(sym_evd_flops(static_cast<double>(n),
                                 static_cast<double>(k)));
  return out;
}

template EvdResult<float> sym_evd<float>(ConstMatrixRef<float>,
                                         const EvdKeep&);
template EvdResult<double> sym_evd<double>(ConstMatrixRef<double>,
                                           const EvdKeep&);

}  // namespace rahooi::la
