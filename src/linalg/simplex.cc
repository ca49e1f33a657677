#include "linalg/simplex.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"

namespace netmax::linalg {
namespace {

constexpr double kTol = 1e-9;

// Full-tableau simplex state, laid out in a workspace's storage. Columns
// 0..n-1 are structural+slack variables, implicit column n is the rhs. Row m
// is the (reduced) cost row; its rhs cell holds -objective.
class Tableau {
 public:
  // Clears `cells` to an all-zero (num_rows + 1) x (num_cols + 1) tableau
  // and `basis` to num_rows unset entries, keeping their capacity.
  Tableau(int num_rows, int num_cols, std::vector<double>& cells,
          std::vector<int>& basis)
      : m_(num_rows), n_(num_cols), cells_(cells), basis_(basis) {
    cells_.assign((static_cast<size_t>(num_rows) + 1) * (num_cols + 1), 0.0);
    basis_.assign(static_cast<size_t>(num_rows), -1);
  }

  double& At(int r, int c) {
    return cells_[static_cast<size_t>(r) * (n_ + 1) + c];
  }
  double At(int r, int c) const {
    return cells_[static_cast<size_t>(r) * (n_ + 1) + c];
  }
  double& Rhs(int r) { return At(r, n_); }
  double Rhs(int r) const { return At(r, n_); }
  double& Cost(int c) { return At(m_, c); }
  double Cost(int c) const { return At(m_, c); }
  double& CostRhs() { return At(m_, n_); }

  int num_rows() const { return m_; }
  int num_cols() const { return n_; }
  int basis(int r) const { return basis_[static_cast<size_t>(r)]; }
  void set_basis(int r, int var) { basis_[static_cast<size_t>(r)] = var; }

  // Pivots on (pivot_row, pivot_col): normalizes the pivot row and eliminates
  // the pivot column from every other row including the cost row.
  void Pivot(int pivot_row, int pivot_col) {
    const double pivot = At(pivot_row, pivot_col);
    NETMAX_CHECK_GT(std::fabs(pivot), 1e-14) << "degenerate pivot";
    const double inv = 1.0 / pivot;
    for (int c = 0; c <= n_; ++c) At(pivot_row, c) *= inv;
    At(pivot_row, pivot_col) = 1.0;  // exact
    for (int r = 0; r <= m_; ++r) {
      if (r == pivot_row) continue;
      const double factor = At(r, pivot_col);
      if (factor == 0.0) continue;
      for (int c = 0; c <= n_; ++c) {
        At(r, c) -= factor * At(pivot_row, c);
      }
      At(r, pivot_col) = 0.0;  // exact
    }
    set_basis(pivot_row, pivot_col);
  }

  // Runs simplex iterations until optimality / unboundedness / the iteration
  // cap. Only columns below `enter_limit` may enter (phase 2 excludes the
  // artificials, which are the last columns). Returns OK on optimality.
  Status Iterate(int enter_limit, int max_iters, int* iterations_out) {
    int iters = 0;
    // Dantzig pricing is fast in practice; after kBlandSwitch iterations we
    // switch to Bland's rule, which provably terminates.
    const int bland_switch = 4 * (m_ + n_) + 64;
    while (true) {
      if (iters >= max_iters) {
        return InternalError("simplex: iteration limit reached");
      }
      const bool use_bland = iters >= bland_switch;
      // Entering column.
      int enter = -1;
      double best = -kTol;
      for (int c = 0; c < enter_limit; ++c) {
        const double cost = Cost(c);
        if (cost < -kTol) {
          if (use_bland) {
            enter = c;
            break;
          }
          if (cost < best) {
            best = cost;
            enter = c;
          }
        }
      }
      if (enter < 0) break;  // optimal
      // Ratio test.
      int leave = -1;
      double best_ratio = 0.0;
      for (int r = 0; r < m_; ++r) {
        const double a = At(r, enter);
        if (a <= kTol) continue;
        const double ratio = Rhs(r) / a;
        if (leave < 0 || ratio < best_ratio - kTol ||
            (std::fabs(ratio - best_ratio) <= kTol &&
             basis(r) < basis(leave))) {
          leave = r;
          best_ratio = ratio;
        }
      }
      if (leave < 0) {
        return UnboundedError("simplex: objective unbounded");
      }
      Pivot(leave, enter);
      ++iters;
    }
    if (iterations_out != nullptr) *iterations_out += iters;
    return Status::Ok();
  }

 private:
  int m_;
  int n_;
  std::vector<double>& cells_;
  std::vector<int>& basis_;
};

// The relation of a row after it was multiplied by -1.
LpRelation Flipped(LpRelation relation) {
  switch (relation) {
    case LpRelation::kLessEqual:
      return LpRelation::kGreaterEqual;
    case LpRelation::kGreaterEqual:
      return LpRelation::kLessEqual;
    case LpRelation::kEqual:
      break;
  }
  return LpRelation::kEqual;
}

}  // namespace

void LpProblem::AddConstraint(std::vector<double> coefficients,
                              LpRelation relation, double rhs) {
  LpConstraint c;
  c.coefficients = std::move(coefficients);
  c.relation = relation;
  c.rhs = rhs;
  constraints.push_back(std::move(c));
}

StatusOr<LpSolution> SolveLp(const LpProblem& problem) {
  LpWorkspace workspace;
  return SolveLp(problem, workspace);
}

StatusOr<LpSolution> SolveLp(const LpProblem& problem,
                             LpWorkspace& workspace) {
  const int n_struct = problem.num_vars;
  if (n_struct <= 0) return InvalidArgumentError("LP has no variables");
  if (static_cast<int>(problem.objective.size()) != n_struct) {
    return InvalidArgumentError("objective length != num_vars");
  }
  const std::vector<double>& lbs = problem.lower_bounds;
  const std::vector<double>& ubs = problem.upper_bounds;
  if ((!lbs.empty() && static_cast<int>(lbs.size()) != n_struct) ||
      (!ubs.empty() && static_cast<int>(ubs.size()) != n_struct)) {
    return InvalidArgumentError("bounds length != num_vars");
  }
  // Empty bound vectors mean all zeros / all +inf.
  const auto lb = [&lbs](int j) {
    return lbs.empty() ? 0.0 : lbs[static_cast<size_t>(j)];
  };
  const auto ub = [&ubs](int j) {
    return ubs.empty() ? kLpInfinity : ubs[static_cast<size_t>(j)];
  };
  int num_upper = 0;
  for (int j = 0; j < n_struct; ++j) {
    if (!std::isfinite(lb(j))) {
      return InvalidArgumentError("lower bounds must be finite");
    }
    if (ub(j) < lb(j) - kTol) {
      return InfeasibleError("variable bound range is empty");
    }
    if (std::isfinite(ub(j))) ++num_upper;
  }
  for (const LpConstraint& c : problem.constraints) {
    if (static_cast<int>(c.coefficients.size()) != n_struct) {
      return InvalidArgumentError("constraint length != num_vars");
    }
  }

  // Shift variables by their lower bounds: x = lb + y, y >= 0. The rows are
  // the constraints, then one row y_j <= ub_j - lb_j per finite upper bound.
  // A row with a negative rhs is multiplied by -1 (rhs >= 0), which turns its
  // zero coefficients into -0.0. First pass: each row's rhs before that
  // flip, and the slack and artificial columns the flipped relations need.
  const int num_constraints = static_cast<int>(problem.constraints.size());
  const int m = num_constraints + num_upper;
  std::vector<double>& row_rhs = workspace.row_rhs_;
  row_rhs.resize(static_cast<size_t>(m));
  int num_slack = 0;
  int num_artificial = 0;
  const auto count_columns = [&](LpRelation relation, double rhs) {
    switch (rhs < 0.0 ? Flipped(relation) : relation) {
      case LpRelation::kLessEqual:
        ++num_slack;
        break;
      case LpRelation::kGreaterEqual:
        ++num_slack;
        ++num_artificial;
        break;
      case LpRelation::kEqual:
        ++num_artificial;
        break;
    }
  };
  for (int r = 0; r < num_constraints; ++r) {
    const LpConstraint& c = problem.constraints[static_cast<size_t>(r)];
    double rhs = c.rhs;
    for (int j = 0; j < n_struct; ++j) {
      rhs -= c.coefficients[static_cast<size_t>(j)] * lb(j);
    }
    row_rhs[static_cast<size_t>(r)] = rhs;
    count_columns(c.relation, rhs);
  }
  for (int j = 0, r = num_constraints; j < n_struct; ++j) {
    if (!std::isfinite(ub(j))) continue;
    row_rhs[static_cast<size_t>(r)] = ub(j) - lb(j);
    count_columns(LpRelation::kLessEqual, row_rhs[static_cast<size_t>(r)]);
    ++r;
  }
  double objective_shift = 0.0;
  for (int j = 0; j < n_struct; ++j) {
    objective_shift += problem.objective[static_cast<size_t>(j)] * lb(j);
  }
  const int n_total = n_struct + num_slack + num_artificial;
  const int artificial_begin = n_struct + num_slack;

  // Second pass: write each row straight into the zeroed tableau.
  Tableau tableau(m, n_total, workspace.cells_, workspace.basis_);
  int slack_cursor = n_struct;
  int artificial_cursor = artificial_begin;
  const auto add_logicals = [&](int r, LpRelation relation) {
    switch (relation) {
      case LpRelation::kLessEqual:
        tableau.At(r, slack_cursor) = 1.0;
        tableau.set_basis(r, slack_cursor);
        ++slack_cursor;
        break;
      case LpRelation::kGreaterEqual:
        tableau.At(r, slack_cursor) = -1.0;
        ++slack_cursor;
        tableau.At(r, artificial_cursor) = 1.0;
        tableau.set_basis(r, artificial_cursor);
        ++artificial_cursor;
        break;
      case LpRelation::kEqual:
        tableau.At(r, artificial_cursor) = 1.0;
        tableau.set_basis(r, artificial_cursor);
        ++artificial_cursor;
        break;
    }
  };
  for (int r = 0; r < num_constraints; ++r) {
    const LpConstraint& c = problem.constraints[static_cast<size_t>(r)];
    const double rhs = row_rhs[static_cast<size_t>(r)];
    const bool flip = rhs < 0.0;
    for (int j = 0; j < n_struct; ++j) {
      const double a = c.coefficients[static_cast<size_t>(j)];
      tableau.At(r, j) = flip ? -a : a;
    }
    tableau.Rhs(r) = flip ? -rhs : rhs;
    add_logicals(r, flip ? Flipped(c.relation) : c.relation);
  }
  for (int j = 0, r = num_constraints; j < n_struct; ++j) {
    if (!std::isfinite(ub(j))) continue;
    const double rhs = row_rhs[static_cast<size_t>(r)];
    const bool flip = rhs < 0.0;
    if (flip) {
      for (int k = 0; k < n_struct; ++k) tableau.At(r, k) = -0.0;
    }
    tableau.At(r, j) = flip ? -1.0 : 1.0;
    tableau.Rhs(r) = flip ? -rhs : rhs;
    add_logicals(r, flip ? LpRelation::kGreaterEqual : LpRelation::kLessEqual);
    ++r;
  }

  const int max_iters = 2000 + 200 * (m + n_total);
  int iterations = 0;

  // ---- Phase 1: minimize the sum of artificial variables. ----
  if (num_artificial > 0) {
    // Cost row: c_j = 1 for artificials. Reduce against the artificial basis
    // (cost row -= each row whose basic variable is artificial).
    for (int c = artificial_begin; c < n_total; ++c) tableau.Cost(c) = 1.0;
    for (int r = 0; r < m; ++r) {
      if (tableau.basis(r) >= artificial_begin) {
        for (int c = 0; c <= n_total; ++c) {
          tableau.At(m, c) -= tableau.At(r, c);
        }
      }
    }
    Status phase1 = tableau.Iterate(n_total, max_iters, &iterations);
    if (!phase1.ok()) return phase1;
    const double infeasibility = -tableau.CostRhs();
    if (infeasibility > 1e-7) {
      return InfeasibleError("LP infeasible (phase-1 objective " +
                             std::to_string(infeasibility) + ")");
    }
    // Drive remaining artificials out of the basis where possible; rows where
    // it is impossible are redundant and harmless (rhs ~ 0).
    for (int r = 0; r < m; ++r) {
      if (tableau.basis(r) < artificial_begin) continue;
      int pivot_col = -1;
      for (int c = 0; c < artificial_begin; ++c) {
        if (std::fabs(tableau.At(r, c)) > 1e-8) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col >= 0) tableau.Pivot(r, pivot_col);
    }
  }

  // ---- Phase 2: minimize the true objective over non-artificial columns. ---
  for (int c = 0; c <= n_total; ++c) tableau.At(m, c) = 0.0;
  for (int j = 0; j < n_struct; ++j) {
    tableau.Cost(j) = problem.objective[static_cast<size_t>(j)];
  }
  // Reduce the cost row against the current basis.
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    if (b < n_struct) {
      const double cb = problem.objective[static_cast<size_t>(b)];
      if (cb != 0.0) {
        for (int c = 0; c <= n_total; ++c) {
          tableau.At(m, c) -= cb * tableau.At(r, c);
        }
      }
    }
  }
  Status phase2 = tableau.Iterate(artificial_begin, max_iters, &iterations);
  if (!phase2.ok()) return phase2;

  LpSolution solution;
  solution.x.assign(static_cast<size_t>(n_struct), 0.0);
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    if (b >= 0 && b < n_struct) {
      solution.x[static_cast<size_t>(b)] = tableau.Rhs(r);
    }
  }
  for (int j = 0; j < n_struct; ++j) {
    solution.x[static_cast<size_t>(j)] += lb(j);
  }
  solution.objective_value = -tableau.CostRhs() + objective_shift;
  solution.iterations = iterations;
  return solution;
}

}  // namespace netmax::linalg
