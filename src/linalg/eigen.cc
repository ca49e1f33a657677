#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "linalg/vector_ops.h"

namespace netmax::linalg {
namespace {

// A symmetric tridiagonal matrix: diagonal d[0..n) and sub-diagonal
// e[0..n-1), where e[k] sits at (k + 1, k).
struct Tridiagonal {
  std::vector<double> d;
  std::vector<double> e;
};

// Reduces the symmetric n x n matrix held row-major in `a` (n >= 2) to a
// tridiagonal matrix with the same eigenvalues, by n - 2 Householder
// reflections H = I - v v^T / h applied as A <- H A H. Reads and updates only
// the lower triangle of `a`, which it destroys.
Tridiagonal Tridiagonalize(std::vector<double>& a, int n) {
  const auto at = [&a, n](int r, int c) -> double& {
    return a[static_cast<size_t>(r) * static_cast<size_t>(n) +
             static_cast<size_t>(c)];
  };
  Tridiagonal t;
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n - 1));
  std::vector<double> v(static_cast<size_t>(n));
  std::vector<double> p(static_cast<size_t>(n));
  for (int k = 0; k + 2 < n; ++k) {
    t.d[static_cast<size_t>(k)] = at(k, k);
    // Column k below the diagonal, x = a[k+1..n, k], is reflected onto
    // g * e_1 with |g| = ||x||. Working on x / sum|x_i| keeps ||.||^2 from
    // overflowing or underflowing; H does not depend on v's scale.
    double scale = 0.0;
    for (int i = k + 1; i < n; ++i) scale += std::fabs(at(i, k));
    if (scale == 0.0) {
      t.e[static_cast<size_t>(k)] = 0.0;  // already tridiagonal here
      continue;
    }
    double h = 0.0;
    for (int i = k + 1; i < n; ++i) {
      const double x = at(i, k) / scale;
      v[static_cast<size_t>(i)] = x;
      h += x * x;
    }
    // g takes the sign opposite to x_0 so v_0 = x_0 - g does not cancel.
    const double f = v[static_cast<size_t>(k + 1)];
    const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
    t.e[static_cast<size_t>(k)] = scale * g;
    h -= f * g;  // v^T v / 2
    v[static_cast<size_t>(k + 1)] = f - g;

    // p = B v / h for the trailing block B, from its lower triangle.
    std::fill(p.begin() + k + 1, p.end(), 0.0);
    for (int i = k + 1; i < n; ++i) {
      const double vi = v[static_cast<size_t>(i)];
      double acc = at(i, i) * vi;
      for (int j = k + 1; j < i; ++j) {
        const double bij = at(i, j);
        acc += bij * v[static_cast<size_t>(j)];
        p[static_cast<size_t>(j)] += bij * vi;
      }
      p[static_cast<size_t>(i)] += acc;
    }
    double vp = 0.0;
    for (int i = k + 1; i < n; ++i) {
      p[static_cast<size_t>(i)] /= h;
      vp += v[static_cast<size_t>(i)] * p[static_cast<size_t>(i)];
    }
    // q = p - (v^T p / 2h) v, then H B H = B - v q^T - q v^T.
    const double half = vp / (2.0 * h);
    for (int i = k + 1; i < n; ++i) {
      p[static_cast<size_t>(i)] -= half * v[static_cast<size_t>(i)];
    }
    for (int i = k + 1; i < n; ++i) {
      const double vi = v[static_cast<size_t>(i)];
      const double qi = p[static_cast<size_t>(i)];
      for (int j = k + 1; j <= i; ++j) {
        at(i, j) -= vi * p[static_cast<size_t>(j)] +
                    qi * v[static_cast<size_t>(j)];
      }
    }
  }
  t.d[static_cast<size_t>(n - 2)] = at(n - 2, n - 2);
  t.d[static_cast<size_t>(n - 1)] = at(n - 1, n - 1);
  t.e[static_cast<size_t>(n - 2)] = at(n - 1, n - 2);
  return t;
}

// Sturm count: the number of eigenvalues of `t` that are >= x, read off the
// signs of the pivots of the LDL^T factorisation of T - x I (each negative
// pivot is one eigenvalue below x). `e2` holds the squared sub-diagonal. A
// pivot smaller than `pivot_min` in magnitude is replaced by -pivot_min, so
// the recurrence never divides by zero and never overflows.
int CountAtLeast(const Tridiagonal& t, const std::vector<double>& e2,
                 double pivot_min, double x) {
  const size_t n = t.d.size();
  size_t below = 0;
  double q = t.d[0] - x;
  for (size_t i = 0;; ++i) {
    if (std::fabs(q) < pivot_min) q = -pivot_min;
    if (q < 0.0) ++below;
    if (i + 1 == n) break;
    q = t.d[i + 1] - x - e2[i] / q;
  }
  return static_cast<int>(n - below);
}

}  // namespace

StatusOr<double> SecondLargestEigenvalue(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return InvalidArgumentError("SecondLargestEigenvalue: matrix not square");
  }
  const int n = a.rows();
  if (n < 2) {
    return InvalidArgumentError("SecondLargestEigenvalue: need n >= 2");
  }
  double max_abs = 0.0;
  for (double x : a.data()) {
    if (!std::isfinite(x)) {
      return InvalidArgumentError(
          "SecondLargestEigenvalue: matrix has a non-finite entry");
    }
    max_abs = std::max(max_abs, std::fabs(x));
  }
  if (!a.IsSymmetric(1e-9)) {
    return InvalidArgumentError("SecondLargestEigenvalue: matrix not symmetric");
  }
  if (max_abs == 0.0) return 0.0;

  // Scale by a power of two so every entry is below 1 in magnitude: the
  // squares in the Sturm recurrence cannot overflow, and the scaling itself
  // rounds nothing.
  int exponent = 0;
  std::frexp(max_abs, &exponent);
  std::vector<double> work(a.data().begin(), a.data().end());
  for (double& x : work) x = std::ldexp(x, -exponent);
  const Tridiagonal t = Tridiagonalize(work, n);

  std::vector<double> e2(t.e.size());
  double max_e2 = 0.0;
  for (size_t k = 0; k < t.e.size(); ++k) {
    e2[k] = t.e[k] * t.e[k];
    max_e2 = std::max(max_e2, e2[k]);
  }
  const double pivot_min =
      std::numeric_limits<double>::min() * std::max(1.0, max_e2);

  // Gershgorin bounds the spectrum; widen them past the rounding of the
  // Sturm counts so that at least two eigenvalues lie above `lo` and fewer
  // than two above `hi`.
  double lo = t.d[0];
  double hi = t.d[0];
  for (size_t i = 0; i < t.d.size(); ++i) {
    double radius = 0.0;
    if (i > 0) radius += std::fabs(t.e[i - 1]);
    if (i < t.e.size()) radius += std::fabs(t.e[i]);
    lo = std::min(lo, t.d[i] - radius);
    hi = std::max(hi, t.d[i] + radius);
  }
  const double pad =
      2.1 * (std::numeric_limits<double>::epsilon() * n *
                 std::max(std::fabs(lo), std::fabs(hi)) +
             pivot_min);
  lo -= pad;
  hi += pad;
  // Bisect to full precision: stop once the interval has no double inside.
  while (true) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    if (CountAtLeast(t, e2, pivot_min, mid) >= 2) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::ldexp(lo, exponent);
}

StatusOr<double> PowerIterationLargest(const Matrix& a, int max_iters,
                                       double tol, uint64_t seed) {
  if (a.rows() != a.cols() || a.rows() == 0) {
    return InvalidArgumentError("PowerIterationLargest: matrix not square");
  }
  const int n = a.rows();
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian();
  double lambda = 0.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<double> w = a.Apply(v);
    const double norm = Norm(w);
    if (norm == 0.0) return 0.0;
    Scale(1.0 / norm, w);
    const double next = Dot(w, a.Apply(w));
    const bool converged = std::fabs(next - lambda) < tol;
    lambda = next;
    v = std::move(w);
    if (converged && iter > 2) break;
  }
  return lambda;
}

StatusOr<double> PowerIterationSecondLargestStochastic(const Matrix& a,
                                                       int max_iters,
                                                       double tol,
                                                       uint64_t seed) {
  if (!a.IsDoublyStochastic(1e-6)) {
    return InvalidArgumentError(
        "PowerIterationSecondLargestStochastic: matrix is not symmetric "
        "doubly stochastic");
  }
  const int n = a.rows();
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian();

  auto deflate = [&](std::vector<double>& x) {
    // Remove the component along the all-ones eigenvector (eigenvalue 1).
    double mean = 0.0;
    for (double e : x) mean += e;
    mean /= static_cast<double>(n);
    for (double& e : x) e -= mean;
  };

  deflate(v);
  double lambda = 0.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<double> w = a.Apply(v);
    deflate(w);
    const double norm = Norm(w);
    if (norm < 1e-300) return 0.0;
    Scale(1.0 / norm, w);
    std::vector<double> aw = a.Apply(w);
    deflate(aw);
    const double next = Dot(w, aw);
    const bool converged = std::fabs(next - lambda) < tol;
    lambda = next;
    v = std::move(w);
    if (converged && iter > 2) break;
  }
  return lambda;
}

}  // namespace netmax::linalg
