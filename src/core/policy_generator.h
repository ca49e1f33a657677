#ifndef NETMAX_CORE_POLICY_GENERATOR_H_
#define NETMAX_CORE_POLICY_GENERATOR_H_

// Communication-policy generation (paper Algorithm 3).
//
// Searches K values of rho in (0, 0.5/alpha] (outer loop) and, per rho,
// R values of the global average step time t_bar in the feasible interval
// [L, U] of Appendix A (inner loop). Every grid point solves the LP of
// Eq. (14):
//     min sum_i p_{i,i}
//     s.t. sum_m t_{i,m} p_{i,m} d_{i,m} = M * t_bar   for all i   (Eq. 10)
//          p_{i,m} >= alpha*rho*(d_{i,m}+d_{m,i})      on edges    (Eq. 11)
//          p_{i,m} = 0 off edges, rows sum to 1                    (12, 13)
// then scores the candidate by T_conv = t_bar * ln(eps) / ln(lambda_2(Y_P))
// and returns the best policy found.
//
// Every constraint of Eq. (14) involves a single row i of P, so the LP splits
// into M independent row problems over [p_{i,i}, p_{i,m} for m in N(i)]. Each
// row is solved with linalg::SolveLp; the global tableau is block-diagonal by
// row, so the per-row solves take the same pivots as one global solve would,
// at a small fraction of its cost. lambda_2 comes from Householder
// tridiagonalisation and Sturm bisection (linalg::SecondLargestEigenvalue). It
// only ranks the grid points: the winner's policy is the LP's, bit for bit.
//
// The same machinery generates policies for pairwise-averaging gossip
// (Section III-D extension, e.g. AD-PSGD + Monitor) by swapping the Y matrix
// construction and the Eq. (11) lower bound.

#include <vector>

#include "common/status.h"
#include "core/policy.h"
#include "linalg/matrix.h"
#include "net/topology.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::core {

struct PolicyGeneratorOptions {
  // SGD learning rate alpha (bounds rho's feasible interval).
  double alpha = 0.1;
  // K: number of rho values searched.
  int outer_rounds = 8;
  // R: number of t_bar values searched per rho.
  int inner_rounds = 8;
  // eps of constraint (9): lambda^k <= eps defines "converged".
  double epsilon = 0.01;
  // Strictness margin added to the Eq. (11) lower bound so the inequality is
  // strict and gamma stays bounded.
  double probability_margin = 1e-4;
  // Consensus update family: kConsensus scores candidates with NetMax's Y
  // (coefficient alpha*rho/p); kAveraging with the fixed-weight gossip Y
  // (Section III-D), where rho plays no role in the update and the Eq. (11)
  // bound degenerates to the margin alone.
  enum class Mode { kConsensus, kAveraging };
  Mode mode = Mode::kConsensus;
  // Averaging weight for Mode::kAveraging (AD-PSGD uses 1/2).
  double averaging_weight = 0.5;
};

struct GeneratedPolicy {
  CommunicationPolicy policy;
  // rho chosen by the outer loop (meaningful for Mode::kConsensus).
  double rho = 0.0;
  // Second-largest eigenvalue of Y_P for the chosen policy.
  double lambda2 = 0.0;
  // t_bar: the global average step time of the chosen grid point (seconds).
  double average_step_seconds = 0.0;
  // The minimized objective T_conv = t_bar * ln(eps)/ln(lambda2) (seconds).
  double expected_convergence_seconds = 0.0;
};

// Eq. (11) lower bound on every edge probability p_{i,m} at this rho.
double EdgeLowerBound(const PolicyGeneratorOptions& options, double rho);

class PolicyGenerator {
 public:
  PolicyGenerator(net::Topology topology, PolicyGeneratorOptions options);

  // Runs Algorithm 3 on the measured iteration-time matrix [t_{i,m}]
  // (seconds; only entries on edges are read; all edge entries must be
  // positive and finite, or it returns kInvalidArgument). Returns kInfeasible
  // if no grid point admits a feasible LP.
  //
  // The (rho, t_bar) grid points are independent LP solves; when `pool` is
  // non-null they fan out across it. The selected policy is identical either
  // way: candidates are scored serially with the argmin tie broken toward the
  // lowest grid index (outer-then-inner order), matching the serial loops.
  StatusOr<GeneratedPolicy> Generate(const linalg::Matrix& iteration_times,
                                     ThreadPool* pool = nullptr) const;

  const PolicyGeneratorOptions& options() const { return options_; }
  const net::Topology& topology() const { return topology_; }

  // Feasible t_bar interval [L, U] for a given rho (Appendix A, Eqs. 25-28).
  // L > U means this rho admits no feasible policy.
  std::pair<double, double> FeasibleStepTimeInterval(
      double rho, const linalg::Matrix& iteration_times) const;

  // Solves the LP of Eq. (14) for fixed (rho, t_bar), one row of P at a time.
  // A row without a feasible point fails the whole solve with that row's
  // status, its message prefixed by "row <i>: ". Pure function of its
  // arguments, safe to run concurrently.
  StatusOr<CommunicationPolicy> SolvePolicyLp(
      double rho, double t_bar, const linalg::Matrix& iteration_times) const;

 private:
  struct Candidate {
    CommunicationPolicy policy;
    double rho;
    double lambda2;
    double t_bar;
    double t_convergence;
  };

  // Evaluates one grid point (fixed rho and t_bar): LP solve + lambda_2
  // scoring. Pure function of its arguments, safe to run concurrently.
  StatusOr<Candidate> EvaluateGridPoint(
      double rho, double t_bar, const linalg::Matrix& iteration_times) const;

  // Scores a feasible policy: computes lambda_2 of the mode's Y matrix.
  StatusOr<double> Lambda2(const CommunicationPolicy& policy, double rho) const;

  net::Topology topology_;
  PolicyGeneratorOptions options_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_POLICY_GENERATOR_H_
