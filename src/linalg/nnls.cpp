#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/contracts.hpp"
#include "linalg/kernels.hpp"
#include "linalg/solve.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::linalg {

namespace {

/// Resizes a workspace buffer, tallying genuine growth (not warm reuse) so
/// bench records can watch the workspace seam: a steady-state solve must
/// not allocate.
template <typename T>
void grow_to(std::vector<T>& buffer, std::size_t size) {
  if (buffer.capacity() < size) {
    VN2_COUNT("nnls.workspace.reallocs");
    VN2_COUNT_N("nnls.workspace.alloc_bytes", size * sizeof(T));
    buffer.reserve(size);
  }
  buffer.resize(size);
}

/// Solves the unconstrained least-squares problem restricted to the passive
/// set via the normal equations G[P,P]·z = c[P], gathered in passive order
/// from the system's Gram matrix, with a small ridge for stability. Leaves
/// z in ws.z[0, |P|).
void solve_passive(const NnlsSystem& system, NnlsWorkspace& ws) {
  const std::vector<std::size_t>& passive = ws.passive;
  const std::size_t k = passive.size();
  const std::size_t n = system.gram().cols();
  const double* g = system.gram().data();
  double* f = ws.factor.data();
  // Only the lower triangle feeds the in-place Cholesky.
  double diag_max = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double* grow = g + passive[i] * n;
    for (std::size_t j = 0; j <= i; ++j) f[i * k + j] = grow[passive[j]];
    diag_max = std::max(diag_max, f[i * k + i]);
    ws.z[i] = ws.atb[passive[i]];
  }
  // Ridge scaled to the diagonal keeps Cholesky alive when columns are
  // nearly collinear (common for NMF bases learnt from correlated metrics).
  const double ridge = std::max(1e-12 * diag_max, 1e-300);
  for (std::size_t i = 0; i < k; ++i) f[i * k + i] += ridge;
  cholesky_factor_in_place(f, k, k);
  cholesky_solve_in_place(f, k, k, ws.z.data());
}

/// ‖A·x − b‖₂, evaluated directly rather than through the Gram identity so
/// it stays accurate when the fit is nearly exact.
double residual_norm_of(const NnlsSystem& system, const Vector& x,
                        const Vector& b, NnlsWorkspace& ws) {
  const Matrix& a = system.a();
  kernels::gemv(a.data(), x.data(), ws.ax.data(), a.rows(), a.cols());
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double d = ws.ax[r] - b[r];
    acc += d * d;
  }
  return std::sqrt(acc);
}

// Postconditions of every solve: the solution has one entry per column of
// A, every entry is non-negative (that is the whole point of NNLS), and the
// residual norm is a finite non-negative number.
void assert_feasible([[maybe_unused]] const Matrix& a,
                     [[maybe_unused]] const Vector& x,
                     [[maybe_unused]] double residual) {
#if VN2_CONTRACTS_ACTIVE
  VN2_ASSERT(x.size() == a.cols(), "nnls: solution length must match cols(A)");
  for (std::size_t j = 0; j < x.size(); ++j)
    VN2_ASSERT(x[j] >= 0.0, "nnls: solution must be non-negative");
  VN2_ASSERT(std::isfinite(residual) && residual >= 0.0,
             "nnls: residual norm must be finite and non-negative");
#endif
}

}  // namespace

NnlsSystem::NnlsSystem(Matrix a) : a_(std::move(a)), gram_(a_.cols(), a_.cols()) {
  kernels::syrk_upper(a_.data(), a_.rows(), a_.cols(), gram_.data());
}

NnlsWorkspace::NnlsWorkspace(const NnlsSystem& system)
    : atb(system.a().cols()),
      gradient(system.a().cols()),
      factor(system.a().cols() * system.a().cols()),
      z(system.a().cols()),
      ax(system.a().rows()),
      in_passive(system.a().cols()) {
  passive.reserve(system.a().cols());
}

NnlsResult nnls(const Matrix& a, const Vector& b, const NnlsOptions& options) {
  const NnlsSystem system(a);
  NnlsWorkspace workspace(system);
  return nnls(system, b, options, workspace);
}

NnlsResult nnls(const NnlsSystem& system, const Vector& b,
                const NnlsOptions& options, NnlsWorkspace& ws) {
  const Matrix& a = system.a();
  VN2_CHECK(a.rows() == b.size(), "nnls: A rows must match b size");
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  const std::size_t max_iter =
      options.max_iterations ? options.max_iterations : 3 * std::max<std::size_t>(n, 1);

  Vector x(n, 0.0);
  VN2_COUNT("nnls.solves");
  grow_to(ws.atb, n);
  grow_to(ws.gradient, n);
  grow_to(ws.factor, n * n);
  grow_to(ws.z, n);
  grow_to(ws.ax, m);
  grow_to(ws.in_passive, n);
  grow_to(ws.passive, n);
  std::fill(ws.in_passive.begin(), ws.in_passive.end(), false);
  std::vector<bool>& in_passive = ws.in_passive;
  ws.passive.clear();
  std::vector<std::size_t>& passive = ws.passive;

  // c = Aᵀb, built row-wise: row r contributes b[r]·A(r,·) via axpy, so
  // each c[j] accumulates in ascending-r order, streaming A once.
  std::vector<double>& c = ws.atb;
  std::fill(c.begin(), c.end(), 0.0);
  for (std::size_t r = 0; r < m; ++r)
    kernels::axpy(b[r], a.data() + r * n, c.data(), n);

  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    // w = Aᵀ(b − A·x) = c − G·x.
    std::vector<double>& w = ws.gradient;
    kernels::gemv(system.gram().data(), x.data(), w.data(), n, n);
    for (std::size_t j = 0; j < n; ++j) w[j] = c[j] - w[j];

    // Select the most-violating active coordinate.
    double best = options.tolerance;
    std::size_t best_j = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_passive[j] && w[j] > best) {
        best = w[j];
        best_j = j;
      }
    }
    if (best_j == n) {
      // KKT satisfied: active gradients all ≤ tolerance.
      const double residual = residual_norm_of(system, x, b, ws);
      assert_feasible(a, x, residual);
      return {std::move(x), residual, iter, true};
    }

    in_passive[best_j] = true;
    passive.push_back(best_j);
    VN2_COUNT("nnls.pivots");

    // Inner loop: solve on the passive set; walk back any negative entries.
    while (true) {
      solve_passive(system, ws);
      const std::vector<double>& z = ws.z;
      bool all_positive = true;
      for (std::size_t i = 0; i < passive.size(); ++i)
        if (z[i] <= options.tolerance) all_positive = false;
      if (all_positive) {
        for (std::size_t i = 0; i < passive.size(); ++i) x[passive[i]] = z[i];
        break;
      }
      // Step length to the first coordinate hitting zero.
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < passive.size(); ++i) {
        if (z[i] <= options.tolerance) {
          const double xi = x[passive[i]];
          const double denom = xi - z[i];
          if (denom > 0.0) alpha = std::min(alpha, xi / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (std::size_t i = 0; i < passive.size(); ++i) {
        const std::size_t j = passive[i];
        x[j] += alpha * (z[i] - x[j]);
      }
      // Remove coordinates that reached (numerical) zero, keeping the
      // passive order of the rest.
      std::size_t kept = 0;
      for (const std::size_t j : passive) {
        if (x[j] > options.tolerance) {
          passive[kept++] = j;
        } else {
          x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      passive.resize(kept);
      if (passive.empty()) break;
    }
  }
  const double residual = residual_norm_of(system, x, b, ws);
  assert_feasible(a, x, residual);
  return {std::move(x), residual, iter, false};
}

}  // namespace vn2::linalg
