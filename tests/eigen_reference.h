#ifndef NETMAX_TESTS_EIGEN_REFERENCE_H_
#define NETMAX_TESTS_EIGEN_REFERENCE_H_

// Test-only oracle for linalg::SecondLargestEigenvalue: the full cyclic
// Jacobi eigendecomposition that scored policies before the Householder and
// Sturm-bisection solver replaced it. Rotations are applied until the
// off-diagonal Frobenius norm squared falls below 1e-22, so its eigenvalues
// are good to about 1e-11 on the matrices the tests use. Not built into any
// library: production code must never call it.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace netmax::linalg::reference {

struct EigenDecomposition {
  // Eigenvalues sorted in descending order.
  std::vector<double> eigenvalues;
  // Column c of `eigenvectors` is the unit eigenvector for eigenvalues[c].
  Matrix eigenvectors;
};

// Computes the full eigendecomposition of the symmetric matrix `a` with the
// cyclic Jacobi method. Returns InvalidArgument if `a` is not square or not
// symmetric (within `symmetry_tol`).
inline StatusOr<EigenDecomposition> JacobiEigenSymmetric(
    const Matrix& a, double symmetry_tol = 1e-9) {
  if (a.rows() != a.cols()) {
    return InvalidArgumentError("JacobiEigenSymmetric: matrix not square");
  }
  if (!a.IsSymmetric(symmetry_tol)) {
    return InvalidArgumentError("JacobiEigenSymmetric: matrix not symmetric");
  }
  const int n = a.rows();
  Matrix work = a;
  Matrix vectors = Matrix::Identity(n);
  // Raw row-major access keeps the rotation loops free of bounds checks.
  double* wd = work.mutable_data().data();
  double* vd = vectors.mutable_data().data();
  const auto off_diagonal_norm = [&] {
    double acc = 0.0;
    for (int r = 0; r < n; ++r) {
      const double* row = wd + static_cast<size_t>(r) * n;
      for (int c = 0; c < n; ++c) {
        if (r != c) acc += row[c] * row[c];
      }
    }
    return acc;
  };

  constexpr int kMaxSweeps = 100;
  constexpr double kConvergence = 1e-22;  // off-diagonal Frobenius^2 target
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_norm() < kConvergence) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = wd[static_cast<size_t>(p) * n + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = wd[static_cast<size_t>(p) * n + p];
        const double aqq = wd[static_cast<size_t>(q) * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        // t = sign(theta) / (|theta| + sqrt(theta^2 + 1)) is the smaller
        // root, which keeps rotations small and the process stable.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation J(p, q, theta) on both sides of `work` and
        // accumulate it into `vectors`.
        for (int k = 0; k < n; ++k) {
          double* row = wd + static_cast<size_t>(k) * n;
          const double akp = row[p];
          const double akq = row[q];
          row[p] = c * akp - s * akq;
          row[q] = s * akp + c * akq;
        }
        double* wp = wd + static_cast<size_t>(p) * n;
        double* wq = wd + static_cast<size_t>(q) * n;
        for (int k = 0; k < n; ++k) {
          const double apk = wp[k];
          const double aqk = wq[k];
          wp[k] = c * apk - s * aqk;
          wq[k] = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          double* row = vd + static_cast<size_t>(k) * n;
          const double vkp = row[p];
          const double vkq = row[q];
          row[p] = c * vkp - s * vkq;
          row[q] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Collect eigenvalues in descending order, permuting eigenvector columns.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return work(x, x) > work(y, y); });
  EigenDecomposition out;
  out.eigenvalues.resize(static_cast<size_t>(n));
  out.eigenvectors = Matrix(n, n);
  for (int c = 0; c < n; ++c) {
    const int source = order[static_cast<size_t>(c)];
    out.eigenvalues[static_cast<size_t>(c)] = work(source, source);
    for (int r = 0; r < n; ++r) {
      out.eigenvectors(r, c) = vectors(r, source);
    }
  }
  return out;
}

}  // namespace netmax::linalg::reference

#endif  // NETMAX_TESTS_EIGEN_REFERENCE_H_
