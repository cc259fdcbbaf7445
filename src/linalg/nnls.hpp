// Non-negative least squares:  argmin_x ‖A·x − b‖²  s.t. x ≥ 0.
//
// This is the inference kernel of VN2 (paper, Problem 3): a fresh node state
// s is explained as s ≈ wᵀ·Ψ with w ≥ 0, i.e. NNLS with A = Ψᵀ. One solver
// is provided: Lawson–Hanson active set in the Gram form of Bro & de Jong
// (FNNLS). G = AᵀA is built once per system; a solve forms c = Aᵀb once
// and then works in the n-dimensional column space only: the gradient is
// c − G·x, and each passive-set step Cholesky-solves G[P,P]·z = c[P] on
// buffers the workspace sized once.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace vn2::linalg {

struct NnlsOptions {
  /// KKT tolerance on the dual (gradient) entries.
  double tolerance = 1e-10;
  /// Safety cap on active-set iterations (3·n is the classical bound).
  std::size_t max_iterations = 0;  // 0 → 3 * cols
};

struct NnlsResult {
  Vector x;               ///< Non-negative solution.
  double residual_norm;   ///< ‖A·x − b‖₂ at the solution.
  std::size_t iterations; ///< Outer iterations used.
  bool converged;         ///< False only if the iteration cap was hit.
};

/// The fixed half of an NNLS problem: the m × n matrix A and its Gram
/// matrix G = AᵀA (the SYRK kernel of the backend selected at
/// construction). Immutable once built, so any number of threads may solve
/// against one system concurrently, each with its own workspace.
class NnlsSystem {
 public:
  explicit NnlsSystem(Matrix a);

  [[nodiscard]] const Matrix& a() const noexcept { return a_; }
  [[nodiscard]] const Matrix& gram() const noexcept { return gram_; }

 private:
  Matrix a_;
  Matrix gram_;
};

/// Reusable scratch for one solver thread. A workspace built for a system
/// is sized once and never grows while solving against it; a default one
/// grows on its first solve, and the nnls.workspace.reallocs /
/// nnls.workspace.alloc_bytes counters tally every such growth. A warm
/// solve is bit-identical to a cold one: every buffer is overwritten before
/// it is read.
struct NnlsWorkspace {
  NnlsWorkspace() = default;
  explicit NnlsWorkspace(const NnlsSystem& system);

  std::vector<double> atb;       ///< c = Aᵀb.
  std::vector<double> gradient;  ///< c − G·x.
  std::vector<double> factor;    ///< G[P,P] + ridge, Cholesky'd in place.
  std::vector<double> z;         ///< Passive-set solution.
  std::vector<double> ax;        ///< A·x, for the final residual.
  std::vector<bool> in_passive;
  std::vector<std::size_t> passive;
};

/// Lawson–Hanson active-set NNLS against a prebuilt system. Throws on shape
/// mismatch.
NnlsResult nnls(const NnlsSystem& system, const Vector& b,
                const NnlsOptions& options, NnlsWorkspace& workspace);

/// One-shot form: builds the system and a workspace for this one solve.
NnlsResult nnls(const Matrix& a, const Vector& b, const NnlsOptions& options = {});

}  // namespace vn2::linalg
