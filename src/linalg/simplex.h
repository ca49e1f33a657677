#ifndef NETMAX_LINALG_SIMPLEX_H_
#define NETMAX_LINALG_SIMPLEX_H_

// Dense two-phase primal simplex solver for small linear programs.
//
// NetMax's policy generation (paper Eq. 14) solves, for every grid point of
// (rho, t_bar), the LP
//     min sum_i p_{i,i}
//     s.t. per-node average iteration time equals M * t_bar      (Eq. 10)
//          p_{i,m} >= alpha*rho*(d_{i,m}+d_{m,i}) for neighbors  (Eq. 11)
//          p_{i,m}  = 0 for non-neighbors                        (Eq. 12)
//          rows of P sum to 1                                    (Eq. 13)
// Every constraint involves a single row i of P, so the generator solves one
// LP per row: the variables p_{i,i} and p_{i,m} for i's neighbours, the two
// equality rows Eq. (10)_i and Eq. (13)_i, and one upper-bound row per
// variable. At most M variables and M + 2 rows, so a dense tableau solver
// with Dantzig pricing (falling back to Bland's rule for anti-cycling) is
// simple and fast enough. The tableau is written in place, row by row, into
// storage an LpWorkspace can carry from one row's solve to the next.
//
// Conventions:
//  * minimization;
//  * every variable x_j satisfies lower_bounds[j] <= x_j <= upper_bounds[j],
//    with default bounds [0, +inf); lower bounds must be finite;
//  * constraints are rows `coefficients . x (<=|>=|=) rhs`.

#include <limits>
#include <vector>

#include "common/status.h"

namespace netmax::linalg {

enum class LpRelation {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

struct LpConstraint {
  std::vector<double> coefficients;  // length num_vars
  LpRelation relation = LpRelation::kLessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  int num_vars = 0;
  // Objective to minimize; length num_vars.
  std::vector<double> objective;
  std::vector<LpConstraint> constraints;
  // Optional; empty means all zeros / all +inf respectively.
  std::vector<double> lower_bounds;
  std::vector<double> upper_bounds;

  // Appends a constraint. Convenience for building problems incrementally.
  void AddConstraint(std::vector<double> coefficients, LpRelation relation,
                     double rhs);
};

struct LpSolution {
  std::vector<double> x;
  double objective_value = 0.0;
  int iterations = 0;
};

class LpWorkspace;

// Solves `problem`. Returns:
//  * the optimum on success,
//  * kInfeasible if no point satisfies the constraints,
//  * kUnbounded if the objective is unbounded below,
//  * kInvalidArgument on malformed input.
StatusOr<LpSolution> SolveLp(const LpProblem& problem);

// The same solve, laying its tableau out in `workspace`'s storage instead of
// allocating it. The result does not depend on what the workspace held.
StatusOr<LpSolution> SolveLp(const LpProblem& problem, LpWorkspace& workspace);

// Tableau storage that a caller solving many small LPs in a row (such as one
// per row of a policy matrix) keeps between SolveLp calls. Not thread-safe:
// use one per thread.
class LpWorkspace {
 private:
  friend StatusOr<LpSolution> SolveLp(const LpProblem&, LpWorkspace&);
  std::vector<double> cells_;
  std::vector<int> basis_;
  std::vector<double> row_rhs_;
};

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_SIMPLEX_H_
