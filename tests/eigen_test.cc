#include "linalg/eigen.h"

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/policy.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "tests/eigen_reference.h"

namespace netmax::linalg {
namespace {

using reference::JacobiEigenSymmetric;

Matrix RandomSymmetric(int n, Rng& rng) {
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const double v = rng.Gaussian();
      a(r, c) = v;
      a(c, r) = v;
    }
  }
  return a;
}

// Q diag(spectrum) Q^T for a random orthogonal Q (Gram-Schmidt on Gaussian
// columns), symmetrised so both triangles hold the same bits.
Matrix WithSpectrum(const std::vector<double>& spectrum, uint64_t seed) {
  const int n = static_cast<int>(spectrum.size());
  Rng rng(seed);
  std::vector<std::vector<double>> q;
  while (static_cast<int>(q.size()) < n) {
    std::vector<double> v(static_cast<size_t>(n));
    for (double& x : v) x = rng.Gaussian();
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::vector<double>& u : q) Axpy(-Dot(u, v), u, v);
    }
    Scale(1.0 / Norm(v), v);
    q.push_back(std::move(v));
  }
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c <= r; ++c) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += q[static_cast<size_t>(k)][static_cast<size_t>(r)] *
               spectrum[static_cast<size_t>(k)] *
               q[static_cast<size_t>(k)][static_cast<size_t>(c)];
      }
      a(r, c) = acc;
      a(c, r) = acc;
    }
  }
  return a;
}

// The Y_P matrices policy generation scores: uniform policies on complete,
// ring and hierarchical graphs.
std::vector<Matrix> PolicyYMatrices() {
  std::vector<Matrix> out;
  for (const int n : {4, 9, 16, 32}) {
    for (const net::Topology& topo :
         {net::Topology::Complete(n), net::Topology::Ring(n),
          net::Topology::Hierarchical(n, 4)}) {
      const std::vector<double> uniform(static_cast<size_t>(n), 1.0 / n);
      StatusOr<Matrix> y = core::BuildNetMaxY(
          core::CommunicationPolicy::Uniform(topo), topo, 0.1, 0.5, uniform,
          /*allow_overshoot=*/true);
      EXPECT_TRUE(y.ok()) << y.status();
      if (y.ok()) out.push_back(std::move(y.value()));
    }
  }
  return out;
}

TEST(JacobiTest, DiagonalMatrix) {
  Matrix a({{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 2.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& values = result.value().eigenvalues;
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], 3.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], -1.0, 1e-12);
}

TEST(JacobiTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a({{2.0, 1.0}, {1.0, 2.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[1], 1.0, 1e-12);
}

TEST(JacobiTest, EigenvectorsSatisfyDefinition) {
  Matrix a({{4.0, 1.0, 0.5}, {1.0, 3.0, 0.25}, {0.5, 0.25, 2.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& decomp = result.value();
  for (int c = 0; c < 3; ++c) {
    std::vector<double> v(3);
    for (int r = 0; r < 3; ++r) {
      v[static_cast<size_t>(r)] = decomp.eigenvectors(r, c);
    }
    std::vector<double> av = a.Apply(v);
    // A v = lambda v.
    for (int r = 0; r < 3; ++r) {
      EXPECT_NEAR(av[static_cast<size_t>(r)],
                  decomp.eigenvalues[static_cast<size_t>(c)] *
                      v[static_cast<size_t>(r)],
                  1e-9);
    }
    EXPECT_NEAR(Norm(v), 1.0, 1e-9);
  }
}

TEST(JacobiTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(JacobiEigenSymmetric(a).ok());
}

TEST(JacobiTest, RejectsAsymmetric) {
  Matrix a({{1.0, 2.0}, {0.0, 1.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JacobiTest, TraceAndEigenvalueSumAgree) {
  Rng rng(42);
  const int n = 8;
  const Matrix a = RandomSymmetric(n, rng);
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  double trace = 0.0;
  for (int i = 0; i < n; ++i) trace += a(i, i);
  double sum = 0.0;
  for (double v : result->eigenvalues) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SecondLargestTest, DoublyStochasticCompleteGraphWalk) {
  // Lazy uniform walk on K_n: W = (1/n) * ones. Eigenvalues: 1, 0, ..., 0.
  const int n = 5;
  Matrix w(n, n, 1.0 / n);
  auto lambda2 = SecondLargestEigenvalue(w);
  ASSERT_TRUE(lambda2.ok());
  EXPECT_NEAR(lambda2.value(), 0.0, 1e-12);
}

TEST(SecondLargestTest, RingGossipMatrix) {
  // W = I/2 + (C + C^T)/4 on a ring of n nodes has eigenvalues
  // 1/2 + cos(2 pi k / n)/2.
  const int n = 6;
  Matrix w(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    w(i, i) = 0.5;
    w(i, (i + 1) % n) += 0.25;
    w(i, (i + n - 1) % n) += 0.25;
  }
  auto lambda2 = SecondLargestEigenvalue(w);
  ASSERT_TRUE(lambda2.ok());
  const double expected = 0.5 + 0.5 * std::cos(2.0 * M_PI / n);
  EXPECT_NEAR(lambda2.value(), expected, 1e-10);
}

TEST(SecondLargestTest, NeedsAtLeastTwoRows) {
  Matrix a(1, 1, 1.0);
  EXPECT_FALSE(SecondLargestEigenvalue(a).ok());
}

TEST(SecondLargestTest, KnownSpectrumUnderRandomRotation) {
  for (const int n : {3, 8, 17, 40}) {
    std::vector<double> spectrum;
    for (int k = 0; k < n; ++k) spectrum.push_back(1.0 - 1.7 * k / n);
    // Hand the spectrum over unsorted: lambda_2 is 1 - 1.7/n.
    std::swap(spectrum[1], spectrum[static_cast<size_t>(n - 1)]);
    for (const uint64_t seed : {1ull, 2ull}) {
      StatusOr<double> lambda2 =
          SecondLargestEigenvalue(WithSpectrum(spectrum, seed));
      ASSERT_TRUE(lambda2.ok()) << lambda2.status();
      EXPECT_NEAR(lambda2.value(), 1.0 - 1.7 / n, 1e-13) << "n = " << n;
    }
  }
}

TEST(SecondLargestTest, RepeatedSecondEigenvalue) {
  // lambda_2 = lambda_3 = 0.6: counting eigenvalues >= x finds it once.
  const std::vector<double> spectrum = {0.2, 0.6, -0.5, 1.0, 0.6, 0.1, -0.9};
  for (const uint64_t seed : {3ull, 4ull}) {
    StatusOr<double> lambda2 =
        SecondLargestEigenvalue(WithSpectrum(spectrum, seed));
    ASSERT_TRUE(lambda2.ok()) << lambda2.status();
    EXPECT_NEAR(lambda2.value(), 0.6, 1e-13);
  }
  // A repeated top eigenvalue is lambda_2 as well.
  StatusOr<double> top = SecondLargestEigenvalue(
      WithSpectrum({0.3, 0.9, -0.2, 0.9}, 5));
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_NEAR(top.value(), 0.9, 1e-13);
}

TEST(SecondLargestTest, DisconnectedDoublyStochasticHasLambda2One) {
  // Two components, each a doubly stochastic walk, interleaved so that node
  // i belongs to component i % 2: lambda_2 = lambda_1 = 1.
  const int n = 10;
  Matrix y(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i % 2 == j % 2) y(i, j) = 1.0 / (n / 2);
    }
  }
  ASSERT_TRUE(y.IsDoublyStochastic(1e-12));
  StatusOr<double> lambda2 = SecondLargestEigenvalue(y);
  ASSERT_TRUE(lambda2.ok()) << lambda2.status();
  EXPECT_NEAR(lambda2.value(), 1.0, 1e-13);

  // Block-diagonal: a ring walk on nodes 0..3 and a lazy pair on 4..5.
  Matrix blocks(6, 6, 0.0);
  for (int i = 0; i < 4; ++i) {
    blocks(i, i) = 0.5;
    blocks(i, (i + 1) % 4) += 0.25;
    blocks(i, (i + 3) % 4) += 0.25;
  }
  blocks(4, 4) = blocks(5, 5) = 0.7;
  blocks(4, 5) = blocks(5, 4) = 0.3;
  ASSERT_TRUE(blocks.IsDoublyStochastic(1e-12));
  lambda2 = SecondLargestEigenvalue(blocks);
  ASSERT_TRUE(lambda2.ok()) << lambda2.status();
  EXPECT_NEAR(lambda2.value(), 1.0, 1e-13);
}

TEST(SecondLargestTest, TwoByTwoClosedForm) {
  for (const auto& [a, b, c] : {std::tuple{2.0, 1.0, 2.0},
                                std::tuple{0.3, -0.7, -1.1},
                                std::tuple{1e-3, 0.0, 5.0},
                                std::tuple{-4.0, 2.5, 0.5}}) {
    const Matrix m({{a, b}, {b, c}});
    const double expected =
        0.5 * (a + c) - std::sqrt(0.25 * (a - c) * (a - c) + b * b);
    StatusOr<double> lambda2 = SecondLargestEigenvalue(m);
    ASSERT_TRUE(lambda2.ok()) << lambda2.status();
    EXPECT_NEAR(lambda2.value(), expected, 1e-13);
  }
}

TEST(SecondLargestTest, RejectsNonSquareAndAsymmetric) {
  StatusOr<double> non_square = SecondLargestEigenvalue(Matrix(2, 3));
  ASSERT_FALSE(non_square.ok());
  EXPECT_EQ(non_square.status().code(), StatusCode::kInvalidArgument);
  StatusOr<double> asymmetric =
      SecondLargestEigenvalue(Matrix({{1.0, 2.0}, {0.0, 1.0}}));
  ASSERT_FALSE(asymmetric.ok());
  EXPECT_EQ(asymmetric.status().code(), StatusCode::kInvalidArgument);
}

TEST(SecondLargestTest, RejectsNonFiniteEntries) {
  // |NaN - NaN| > tol is false, so a symmetry check alone lets NaN through.
  Matrix nan_diagonal(3, 3, 0.25);
  nan_diagonal(1, 1) = std::numeric_limits<double>::quiet_NaN();
  Matrix inf_pair(3, 3, 0.25);
  inf_pair(0, 2) = inf_pair(2, 0) = std::numeric_limits<double>::infinity();
  for (const Matrix& a : {nan_diagonal, inf_pair}) {
    StatusOr<double> lambda2 = SecondLargestEigenvalue(a);
    ASSERT_FALSE(lambda2.ok());
    EXPECT_EQ(lambda2.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SecondLargestTest, PowerOfTwoScalingIsExact) {
  // Entries near the top and bottom of the double range neither overflow
  // nor lose bits: scaling by 2^k scales lambda_2 by exactly 2^k.
  Rng rng(9);
  const Matrix a = RandomSymmetric(12, rng);
  StatusOr<double> base = SecondLargestEigenvalue(a);
  ASSERT_TRUE(base.ok()) << base.status();
  for (const int k : {-900, -1, 3, 1000}) {
    Matrix scaled = a;
    for (double& x : scaled.mutable_data()) x = std::ldexp(x, k);
    StatusOr<double> lambda2 = SecondLargestEigenvalue(scaled);
    ASSERT_TRUE(lambda2.ok()) << lambda2.status();
    EXPECT_EQ(lambda2.value(), std::ldexp(base.value(), k)) << "k = " << k;
  }
}

// The production solver against the Jacobi oracle, on random symmetric
// matrices and on the Y_P matrices policy generation scores.
TEST(SecondLargestTest, MatchesJacobiOracle) {
  std::vector<Matrix> inputs = PolicyYMatrices();
  Rng rng(11);
  for (const int n : {2, 3, 7, 16, 33, 64}) {
    inputs.push_back(RandomSymmetric(n, rng));
  }
  for (const Matrix& a : inputs) {
    StatusOr<reference::EigenDecomposition> full = JacobiEigenSymmetric(a);
    ASSERT_TRUE(full.ok()) << full.status();
    StatusOr<double> lambda2 = SecondLargestEigenvalue(a);
    ASSERT_TRUE(lambda2.ok()) << lambda2.status();
    EXPECT_NEAR(lambda2.value(), full->eigenvalues[1], 1e-10)
        << "n = " << a.rows();
  }
}

TEST(PowerIterationTest, MatchesJacobiOnLargest) {
  Rng rng(7);
  const Matrix a = RandomSymmetric(6, rng);
  auto jac = JacobiEigenSymmetric(a);
  ASSERT_TRUE(jac.ok());
  auto pow = PowerIterationLargest(a);
  ASSERT_TRUE(pow.ok());
  // Power iteration converges to the eigenvalue of largest magnitude.
  double largest_abs = 0.0;
  for (double v : jac->eigenvalues) {
    if (std::fabs(v) > std::fabs(largest_abs)) largest_abs = v;
  }
  EXPECT_NEAR(std::fabs(pow.value()), std::fabs(largest_abs), 1e-6);
}

// Property sweep: random symmetric doubly stochastic matrices built as lazy
// random walks. The Jacobi oracle's lambda_2 must match deflated power
// iteration, and the production solver must match the oracle.
class StochasticLambda2Property
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(StochasticLambda2Property, JacobiMatchesPowerIteration) {
  const int n = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  // Build a symmetric non-negative matrix, then make it doubly stochastic by
  // the lazy-walk construction W = I - (L / (max_degree_scale)).
  Matrix s(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v = rng.Uniform() < 0.6 ? rng.Uniform(0.1, 1.0) : 0.0;
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  double max_row = 0.0;
  for (int i = 0; i < n; ++i) max_row = std::max(max_row, s.RowSum(i));
  if (max_row == 0.0) GTEST_SKIP() << "empty graph";
  Matrix w(n, n, 0.0);
  const double scale = 1.0 / (1.5 * max_row);
  for (int i = 0; i < n; ++i) {
    double off = 0.0;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      w(i, j) = s(i, j) * scale;
      off += w(i, j);
    }
    w(i, i) = 1.0 - off;
  }
  ASSERT_TRUE(w.IsDoublyStochastic(1e-9));

  auto jac = JacobiEigenSymmetric(w);
  ASSERT_TRUE(jac.ok());
  auto pow = PowerIterationSecondLargestStochastic(w);
  ASSERT_TRUE(pow.ok());
  EXPECT_NEAR(jac->eigenvalues[1], pow.value(), 1e-6);
  auto lambda2 = SecondLargestEigenvalue(w);
  ASSERT_TRUE(lambda2.ok());
  EXPECT_NEAR(lambda2.value(), jac->eigenvalues[1], 1e-10);
  // lambda_2 of a stochastic matrix is at most 1.
  EXPECT_LE(lambda2.value(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StochasticLambda2Property,
    ::testing::Combine(::testing::Values(3, 5, 8, 12, 16),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace netmax::linalg
