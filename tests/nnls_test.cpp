#include "linalg/nnls.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/random.hpp"

namespace vn2::linalg {
namespace {

TEST(Nnls, ExactNonnegativeSolution) {
  // A well-conditioned system whose unconstrained solution is non-negative:
  // NNLS must recover it exactly.
  Matrix a{{2, 0}, {0, 3}, {0, 0}};
  Vector b{4.0, 9.0, 0.0};
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(Nnls, ClampsNegativeCoordinates) {
  // Unconstrained LS would need a negative coefficient on the second column;
  // NNLS must zero it.
  Matrix a{{1, 1}, {0, 1}};
  Vector b{1.0, -5.0};
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.x[0], 0.0);
  EXPECT_GE(r.x[1], 0.0);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(Nnls, ZeroRhsGivesZeroSolution) {
  Matrix a = random_uniform_matrix(5, 3, 1);
  NnlsResult r = nnls(a, Vector(5, 0.0));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(r.x[i], 0.0);
  EXPECT_TRUE(r.converged);
}

TEST(Nnls, ShapeMismatchThrows) {
  EXPECT_THROW(nnls(Matrix(3, 2), Vector(4)), std::invalid_argument);
  const NnlsSystem system(Matrix(3, 2));
  NnlsWorkspace workspace(system);
  EXPECT_THROW(nnls(system, Vector(4), {}, workspace), std::invalid_argument);
}

TEST(Nnls, WideSystem) {
  // More unknowns than equations: solution exists with zero residual.
  Matrix a = random_uniform_matrix(3, 8, 7, 0.1, 1.0);
  Vector truth = random_uniform_vector(8, 8, 0.0, 1.0);
  Vector b = matvec(a, truth);
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-6);
}

// KKT optimality: at the NNLS solution, the gradient g = Aᵀ(Ax − b)
// satisfies g_i ≥ −tol for all i, and g_i ≈ 0 where x_i > 0.
void expect_kkt(const Matrix& a, const Vector& b, const NnlsResult& r,
                double tol = 1e-6) {
  Vector residual = matvec(a, r.x);
  residual -= b;
  const Matrix at = transpose(a);
  Vector grad = matvec(at, residual);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_GE(grad[i], -tol) << "dual feasibility violated at " << i;
    if (r.x[i] > 1e-8) {
      EXPECT_NEAR(grad[i], 0.0, tol) << "complementarity violated at " << i;
    }
  }
}

class NnlsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnlsProperty, KktConditionsHold) {
  const std::uint64_t seed = GetParam();
  Matrix a = random_uniform_matrix(20, 8, seed, -1.0, 1.0);
  Vector b = random_uniform_vector(20, seed + 77, -1.0, 1.0);
  NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < r.x.size(); ++i) EXPECT_GE(r.x[i], 0.0);
  expect_kkt(a, b, r);
}

TEST_P(NnlsProperty, RecoverSparseNonnegativeTruth) {
  const std::uint64_t seed = GetParam();
  Matrix a = random_uniform_matrix(30, 10, seed, 0.0, 1.0);
  Vector truth(10, 0.0);
  truth[seed % 10] = 2.0;
  truth[(seed + 3) % 10] = 0.7;
  Vector b = matvec(a, truth);
  NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-6);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(r.x[i], truth[i], 1e-5);
}

/// min ‖A_S·z − b‖ over z for the columns S of A, by Householder QR in
/// long double: an oracle that shares no code or arithmetic with the
/// solver's Gram/Cholesky path. Returns false when the LS solution has a
/// negative entry (S is infeasible).
bool feasible_support_residual(const Matrix& a, const Vector& b,
                               const std::vector<std::size_t>& support,
                               long double& residual) {
  const std::size_t m = a.rows();
  const std::size_t k = support.size();
  std::vector<std::vector<long double>> q(k, std::vector<long double>(m));
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < m; ++i) q[j][i] = a(i, support[j]);
  std::vector<long double> y(b.begin(), b.end());
  std::vector<long double> diag(k);
  for (std::size_t j = 0; j < k; ++j) {
    long double norm = 0.0L;
    for (std::size_t i = j; i < m; ++i) norm += q[j][i] * q[j][i];
    norm = std::sqrt(norm);
    const long double alpha = q[j][j] > 0.0L ? -norm : norm;
    diag[j] = alpha;
    std::vector<long double> v(q[j]);
    for (std::size_t i = 0; i < j; ++i) v[i] = 0.0L;
    v[j] -= alpha;
    long double vv = 0.0L;
    for (std::size_t i = j; i < m; ++i) vv += v[i] * v[i];
    if (vv == 0.0L) continue;
    auto reflect = [&](std::vector<long double>& col) {
      long double vc = 0.0L;
      for (std::size_t i = j; i < m; ++i) vc += v[i] * col[i];
      for (std::size_t i = j; i < m; ++i) col[i] -= 2.0L * vc / vv * v[i];
    };
    for (std::size_t c = j + 1; c < k; ++c) reflect(q[c]);
    reflect(y);
  }
  std::vector<long double> z(k);
  for (std::size_t j = k; j-- > 0;) {
    long double acc = y[j];
    for (std::size_t c = j + 1; c < k; ++c) acc -= q[c][j] * z[c];
    z[j] = acc / diag[j];
    if (z[j] < 0.0L) return false;
  }
  long double rr = 0.0L;
  for (std::size_t i = k; i < m; ++i) rr += y[i] * y[i];
  residual = std::sqrt(rr);
  return true;
}

TEST_P(NnlsProperty, MatchesExhaustiveSupportMinimum) {
  // NNLS's optimum is the unconstrained least-squares fit on its support,
  // so over every support whose fit is non-negative the smallest residual
  // is the NNLS minimum. For n ≤ 8 all 2ⁿ supports are enumerable.
  // b mixes the columns with weights of both signs, plus noise, so the
  // optimum keeps several columns and clamps others.
  const std::uint64_t seed = GetParam();
  const std::size_t n = 4 + seed % 5;
  Matrix a = random_uniform_matrix(25, n, seed, -1.0, 1.0);
  Vector b = matvec(a, random_uniform_vector(n, seed + 29, -0.5, 1.5));
  b += random_uniform_vector(25, seed + 13, -0.1, 0.1);
  const NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  long double best = std::numeric_limits<long double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> support;
    for (std::size_t j = 0; j < n; ++j)
      if (mask & (std::size_t{1} << j)) support.push_back(j);
    long double residual = 0.0L;
    if (feasible_support_residual(a, b, support, residual))
      best = std::min(best, residual);
  }
  ASSERT_TRUE(std::isfinite(static_cast<double>(best)));
  EXPECT_NEAR(r.residual_norm, static_cast<double>(best),
              1e-9 * static_cast<double>(best))
      << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsProperty,
                         ::testing::Values(1, 2, 5, 11, 42, 101, 7777));

/// Ψ (r × 86) as NMF leaves it: non-negative, plus the degenerate rows a
/// factorization can produce — an all-zero row and a row collinear with
/// another.
Matrix degenerate_psi(std::size_t r, std::uint64_t seed) {
  Matrix psi = random_uniform_matrix(r, 86, seed, 0.0, 1.0);
  if (r >= 2)
    for (std::size_t c = 0; c < 86; ++c) psi(r - 1, c) = 0.5 * psi(0, c);
  if (r >= 3)
    for (std::size_t c = 0; c < 86; ++c) psi(1, c) = 0.0;
  return psi;
}

bool same_bits(const NnlsResult& x, const NnlsResult& y) {
  return x.x.size() == y.x.size() &&
         std::memcmp(x.x.data(), y.x.data(), x.x.size() * sizeof(double)) ==
             0 &&
         std::memcmp(&x.residual_norm, &y.residual_norm, sizeof(double)) == 0;
}

TEST(NnlsGram, DegeneratePsiShapesAreKktAndBitStable) {
  // One default workspace, warmed across every right-hand side and across
  // the shapes of the earlier iterations.
  NnlsWorkspace warm;
  for (const std::size_t r : {1ul, 5ul, 20ul, 40ul}) {
    const Matrix psi = degenerate_psi(r, 100 + r);
    const Matrix a = transpose(psi);
    const NnlsSystem system(a);
    ASSERT_EQ(system.gram().rows(), r);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      // Alternate explained states (a sparse non-negative mix of Ψ rows
      // plus noise) and arbitrary non-negative encoded states.
      Vector b = random_uniform_vector(86, 7 * r + trial, 0.0, 0.2);
      if (trial % 2 == 0) {
        Vector w(r, 0.0);
        w[trial % r] = 1.5;
        w[(trial + 3) % r] += 0.4;
        b += matvec(a, w);
      }
      const NnlsResult got = nnls(system, b, {}, warm);
      ASSERT_TRUE(got.converged) << "r = " << r << ", trial " << trial;
      for (std::size_t j = 0; j < r; ++j) EXPECT_GE(got.x[j], 0.0);
      expect_kkt(a, b, got);
      NnlsWorkspace cold(system);
      EXPECT_TRUE(same_bits(got, nnls(system, b, {}, cold)))
          << "warm vs cold, r = " << r << ", trial " << trial;
      EXPECT_TRUE(same_bits(got, nnls(a, b)))
          << "system vs one-shot, r = " << r << ", trial " << trial;
      if (r >= 3) {
        EXPECT_EQ(got.x[1], 0.0) << "the zero row carries no weight";
      }
    }
  }
}

}  // namespace
}  // namespace vn2::linalg
