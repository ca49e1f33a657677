// Tests for the communication-policy algebra, including the paper's
// structural results: for feasible policies, Y_P is symmetric, doubly
// stochastic, non-negative (Lemmas 1-2) and has lambda_2 < 1 (Theorem 3).

#include "core/policy.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/eigen.h"
#include "tests/eigen_reference.h"

namespace netmax::core {
namespace {

TEST(CommunicationPolicyTest, UniformOverNeighbors) {
  net::Topology topo = net::Topology::Ring(4);
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(policy.probability(i, i), 0.0);
    for (int m : topo.Neighbors(i)) {
      EXPECT_DOUBLE_EQ(policy.probability(i, m), 0.5);
    }
  }
  EXPECT_TRUE(policy.Validate(topo).ok());
}

TEST(CommunicationPolicyTest, ValidateRejectsNonEdgeMass) {
  net::Topology topo = net::Topology::Ring(4);
  linalg::Matrix p(4, 4, 0.0);
  p(0, 2) = 1.0;  // 0 and 2 are not ring neighbors
  p(1, 0) = 1.0;
  p(2, 1) = 1.0;
  p(3, 0) = 1.0;
  CommunicationPolicy policy(std::move(p));
  Status status = policy.Validate(topo);
  EXPECT_FALSE(status.ok());
}

TEST(CommunicationPolicyTest, ValidateRejectsBadRowSum) {
  net::Topology topo = net::Topology::Complete(3);
  linalg::Matrix p(3, 3, 0.0);
  p(0, 1) = 0.4;  // row 0 sums to 0.4
  p(1, 0) = 1.0;
  p(2, 0) = 1.0;
  EXPECT_FALSE(CommunicationPolicy(std::move(p)).Validate(topo).ok());
}

TEST(CommunicationPolicyTest, ValidateRejectsNegative) {
  net::Topology topo = net::Topology::Complete(3);
  linalg::Matrix p(3, 3, 0.0);
  p(0, 1) = 1.5;
  p(0, 2) = -0.5;
  p(1, 0) = 1.0;
  p(2, 0) = 1.0;
  EXPECT_FALSE(CommunicationPolicy(std::move(p)).Validate(topo).ok());
}

TEST(AverageIterationTimeTest, MatchesEq2) {
  net::Topology topo = net::Topology::Complete(3);
  linalg::Matrix times(3, 3, 0.0);
  times(0, 1) = 2.0;
  times(0, 2) = 4.0;
  linalg::Matrix p(3, 3, 0.0);
  p(0, 1) = 0.75;
  p(0, 2) = 0.25;
  p(1, 0) = 1.0;
  p(2, 0) = 1.0;
  CommunicationPolicy policy(std::move(p));
  EXPECT_DOUBLE_EQ(AverageIterationTime(times, policy, topo, 0),
                   0.75 * 2.0 + 0.25 * 4.0);
}

TEST(GlobalStepProbabilitiesTest, FasterNodesActMoreOften) {
  net::Topology topo = net::Topology::Complete(2);
  linalg::Matrix times(2, 2, 0.0);
  times(0, 1) = 1.0;  // node 0 iterates in 1s
  times(1, 0) = 3.0;  // node 1 in 3s
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  auto probs = GlobalStepProbabilities(times, policy, topo);
  ASSERT_TRUE(probs.ok());
  // p_0 = (1/1) / (1/1 + 1/3) = 0.75 (Eq. 3).
  EXPECT_NEAR((*probs)[0], 0.75, 1e-12);
  EXPECT_NEAR((*probs)[1], 0.25, 1e-12);
}

TEST(GlobalStepProbabilitiesTest, RejectsZeroTimes) {
  net::Topology topo = net::Topology::Complete(2);
  linalg::Matrix times(2, 2, 0.0);  // all zero
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  EXPECT_FALSE(GlobalStepProbabilities(times, policy, topo).ok());
}

std::vector<double> UniformProbs(int n) {
  return std::vector<double>(static_cast<size_t>(n), 1.0 / n);
}

TEST(BuildNetMaxYTest, MatchesHandComputedTwoNode) {
  // Two nodes, both always pull from each other (p_im = 1), p_i = 1/2.
  // c = alpha*rho / 1. Event (0,1): contributions to
  //   y_00: 1 + 0.5*(-2c + c^2); y_11: 1 + 0.5*c^2; y_01 += 0.5*(c - c^2).
  // Event (1,0) symmetric. Totals:
  //   y_ii = 1 - c + c^2, y_im = c - c^2.
  const double alpha = 0.1, rho = 2.0;  // c = 0.2
  net::Topology topo = net::Topology::Complete(2);
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  auto y = BuildNetMaxY(policy, topo, alpha, rho, UniformProbs(2));
  ASSERT_TRUE(y.ok()) << y.status();
  const double c = 0.2;
  EXPECT_NEAR((*y)(0, 0), 1.0 - c + c * c, 1e-12);
  EXPECT_NEAR((*y)(1, 1), 1.0 - c + c * c, 1e-12);
  EXPECT_NEAR((*y)(0, 1), c - c * c, 1e-12);
  EXPECT_NEAR((*y)(1, 0), c - c * c, 1e-12);
  EXPECT_TRUE(y->IsDoublyStochastic());
}

TEST(BuildNetMaxYTest, RejectsOvershootingCoefficient) {
  // alpha*rho/p >= 1 must be rejected unless allow_overshoot.
  net::Topology topo = net::Topology::Complete(2);
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  auto y = BuildNetMaxY(policy, topo, /*alpha=*/1.0, /*rho=*/1.0,
                        UniformProbs(2));
  EXPECT_FALSE(y.ok());
  auto tolerated = BuildNetMaxY(policy, topo, 1.0, 1.0, UniformProbs(2),
                                /*allow_overshoot=*/true);
  EXPECT_TRUE(tolerated.ok());
}

TEST(BuildAveragingYTest, AdPsgdCompleteGraph) {
  // Uniform gossip with w = 1/2 on K_n yields a doubly stochastic Y with
  // lambda_2 < 1.
  net::Topology topo = net::Topology::Complete(4);
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  auto y = BuildAveragingY(policy, topo, 0.5, UniformProbs(4));
  ASSERT_TRUE(y.ok());
  EXPECT_TRUE(y->IsDoublyStochastic(1e-9));
  auto lambda2 = linalg::SecondLargestEigenvalue(*y);
  ASSERT_TRUE(lambda2.ok());
  EXPECT_LT(lambda2.value(), 1.0);
  EXPECT_GT(lambda2.value(), 0.0);
}

TEST(BuildAveragingYTest, RejectsBadWeight) {
  net::Topology topo = net::Topology::Complete(3);
  CommunicationPolicy policy = CommunicationPolicy::Uniform(topo);
  EXPECT_FALSE(BuildAveragingY(policy, topo, 0.0, UniformProbs(3)).ok());
  EXPECT_FALSE(BuildAveragingY(policy, topo, 1.5, UniformProbs(3)).ok());
}

// Property sweep over random connected topologies and random feasible-ish
// policies: Y_P must be symmetric, doubly stochastic, non-negative, and its
// lambda_2 strictly below 1 (Lemmas 1-3 + Theorem 3).
class YMatrixProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, bool>> {};

TEST_P(YMatrixProperty, StructuralInvariantsHold) {
  const int n = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const bool use_ring = std::get<2>(GetParam());
  Rng rng(seed);

  net::Topology topo =
      use_ring ? net::Topology::Ring(n) : net::Topology::Complete(n);
  // Random policy: positive mass on every edge plus some self-mass,
  // normalized per row.
  linalg::Matrix p(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    p(i, i) = rng.Uniform(0.0, 0.2);
    for (int m : topo.Neighbors(i)) p(i, m) = rng.Uniform(0.3, 1.0);
    const double row = p.RowSum(i);
    for (int m = 0; m < n; ++m) p(i, m) /= row;
  }
  CommunicationPolicy policy(std::move(p));
  ASSERT_TRUE(policy.Validate(topo).ok());

  // alpha*rho small enough that alpha*rho/p_im < 1 on all edges.
  double min_edge = 1.0;
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      min_edge = std::min(min_edge, policy.probability(i, m));
    }
  }
  const double alpha = 0.1;
  const double rho = 0.5 * min_edge / alpha;

  auto y = BuildNetMaxY(policy, topo, alpha, rho, UniformProbs(n));
  ASSERT_TRUE(y.ok()) << y.status();
  EXPECT_TRUE(y->IsSymmetric(1e-10));
  EXPECT_TRUE(y->IsNonNegative(1e-12));
  EXPECT_TRUE(y->IsDoublyStochastic(1e-9));
  auto lambda2 = linalg::SecondLargestEigenvalue(*y);
  ASSERT_TRUE(lambda2.ok());
  EXPECT_LT(lambda2.value(), 1.0 - 1e-9);  // strict: consensus contracts
  // Largest eigenvalue is exactly 1 (Perron root of a doubly stochastic
  // irreducible matrix).
  auto full = linalg::reference::JacobiEigenSymmetric(*y);
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(full->eigenvalues[0], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, YMatrixProperty,
    ::testing::Combine(::testing::Values(3, 4, 8, 12),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull),
                       ::testing::Bool()));

}  // namespace
}  // namespace netmax::core
