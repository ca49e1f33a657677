#ifndef NETMAX_TESTS_POLICY_LP_REFERENCE_H_
#define NETMAX_TESTS_POLICY_LP_REFERENCE_H_

// Test-only oracle for PolicyGenerator::SolvePolicyLp: the LP of Eq. (14)
// built as ONE dense simplex problem over all M + |E| variables of P (the
// self-probabilities first, then the directed edges in row-major order), the
// formulation the generator used before it split the LP into one problem per
// row. The global tableau is block-diagonal by row, so the row-wise solver
// must reproduce this oracle's verdicts and policies bit for bit. Not built
// into any library: production code must never call it.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/policy.h"
#include "core/policy_generator.h"
#include "linalg/matrix.h"
#include "linalg/simplex.h"
#include "net/topology.h"

namespace netmax::core::reference {

inline StatusOr<CommunicationPolicy> SolvePolicyLpDense(
    const net::Topology& topology, const PolicyGeneratorOptions& options,
    double rho, double t_bar, const linalg::Matrix& iteration_times) {
  const int n = topology.num_nodes();
  const double lb = EdgeLowerBound(options, rho);

  // Variable layout: first the n self-probabilities p_{i,i}, then one
  // variable per directed edge (i -> m), in row-major edge order.
  std::vector<std::pair<int, int>> edges;
  std::vector<int> edge_var(static_cast<size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i) {
    for (int m : topology.Neighbors(i)) {
      edge_var[static_cast<size_t>(i) * n + m] =
          n + static_cast<int>(edges.size());
      edges.emplace_back(i, m);
    }
  }
  const int num_vars = n + static_cast<int>(edges.size());

  linalg::LpProblem lp;
  lp.num_vars = num_vars;
  lp.objective.assign(static_cast<size_t>(num_vars), 0.0);
  for (int i = 0; i < n; ++i) lp.objective[static_cast<size_t>(i)] = 1.0;
  lp.lower_bounds.assign(static_cast<size_t>(num_vars), 0.0);
  lp.upper_bounds.assign(static_cast<size_t>(num_vars), 1.0);
  for (size_t e = 0; e < edges.size(); ++e) {
    lp.lower_bounds[static_cast<size_t>(n) + e] = lb;
  }

  // Eq. (10): sum_m t_{i,m} p_{i,m} = M * t_bar for every i.
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_vars), 0.0);
    for (int m : topology.Neighbors(i)) {
      row[static_cast<size_t>(edge_var[static_cast<size_t>(i) * n + m])] =
          iteration_times(i, m);
    }
    lp.AddConstraint(std::move(row), linalg::LpRelation::kEqual,
                     static_cast<double>(n) * t_bar);
  }
  // Eq. (13): rows of P sum to 1.
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_vars), 0.0);
    row[static_cast<size_t>(i)] = 1.0;
    for (int m : topology.Neighbors(i)) {
      row[static_cast<size_t>(edge_var[static_cast<size_t>(i) * n + m])] = 1.0;
    }
    lp.AddConstraint(std::move(row), linalg::LpRelation::kEqual, 1.0);
  }

  StatusOr<linalg::LpSolution> solution = linalg::SolveLp(lp);
  if (!solution.ok()) return solution.status();

  linalg::Matrix p(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    p(i, i) = std::max(0.0, solution->x[static_cast<size_t>(i)]);
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto [i, m] = edges[e];
    p(i, m) = std::max(0.0, solution->x[static_cast<size_t>(n) + e]);
  }
  // Renormalize away simplex round-off so rows sum to exactly 1.
  for (int i = 0; i < n; ++i) {
    const double row_sum = p.RowSum(i);
    if (!(row_sum > 0.0)) {
      return InternalError("row " + std::to_string(i) +
                           ": LP solution has no probability mass");
    }
    for (int m = 0; m < n; ++m) p(i, m) /= row_sum;
  }
  return CommunicationPolicy(std::move(p));
}

}  // namespace netmax::core::reference

#endif  // NETMAX_TESTS_POLICY_LP_REFERENCE_H_
