#ifndef NETMAX_LINALG_EIGEN_H_
#define NETMAX_LINALG_EIGEN_H_

// Symmetric eigenvalue routines.
//
// NetMax's communication-policy generation (Algorithm 3) scores each candidate
// policy by the second-largest eigenvalue lambda_2 of the doubly stochastic
// matrix Y_P = E[D^kT D^k], at every feasible (rho, t_bar) grid point and on
// every monitor period. Y_P is symmetric, so SecondLargestEigenvalue reduces
// it to tridiagonal form with Householder reflections (about 4/3 n^3 flops)
// and then bisects on Sturm counts, which needs no eigenvectors and no
// iteration tolerance. The bisection counts eigenvalues >= x, so a repeated
// lambda_2, and lambda_2 = lambda_1 = 1 on a disconnected Y, come out right.
// tests/eigen_reference.h holds a cyclic Jacobi decomposition as the test
// oracle; the power-iteration variants below are independent cross-checks for
// tests.

#include <cstdint>

#include "common/status.h"
#include "linalg/matrix.h"

namespace netmax::linalg {

// Returns the second-largest eigenvalue of the symmetric matrix `a` (n >= 2),
// counted with multiplicity, to the last few bits that bisection can resolve.
// Returns InvalidArgument if `a` is smaller than 2x2, not square, has a
// non-finite entry, or is not symmetric within 1e-9. Only the lower triangle
// is read beyond that check.
StatusOr<double> SecondLargestEigenvalue(const Matrix& a);

// Estimates the largest eigenvalue (by absolute value) of symmetric `a` by
// power iteration; `seed` initializes the start vector. Used in tests as an
// independent cross-check.
StatusOr<double> PowerIterationLargest(const Matrix& a, int max_iters = 2000,
                                       double tol = 1e-12, uint64_t seed = 7);

// Estimates the second-largest eigenvalue of a symmetric doubly stochastic
// matrix by power iteration on the component orthogonal to the all-ones
// vector (whose eigenvalue is 1). Used in tests as an independent
// cross-check.
StatusOr<double> PowerIterationSecondLargestStochastic(const Matrix& a,
                                                       int max_iters = 4000,
                                                       double tol = 1e-12,
                                                       uint64_t seed = 7);

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_EIGEN_H_
