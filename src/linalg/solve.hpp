// Small dense linear solvers: Cholesky factorization/solve for SPD systems.
//
// NNLS's active-set inner step and the PRR estimator both solve systems of
// rank at most the NMF compression factor (r ≲ 50), so an O(k³) dense
// Cholesky is plenty. The in-place forms are the one implementation: the
// Matrix/Vector forms copy their inputs and run them, and NNLS runs them on
// its preallocated workspace, so every caller gets the same arithmetic.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace vn2::linalg {

/// Solves A·x = b for symmetric positive-definite A via Cholesky.
/// Throws std::invalid_argument if A is not square / sizes mismatch, and
/// std::runtime_error if A is not (numerically) positive definite.
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// In-place lower-triangular Cholesky factor of an SPD matrix. Returns L with
/// A = L·Lᵀ. Throws std::runtime_error if a pivot falls below `min_pivot`.
Matrix cholesky_factor(const Matrix& a, double min_pivot = 1e-12);

/// Overwrites the lower triangle of the k×k SPD matrix at `a` (row stride
/// `stride`) with its Cholesky factor L; the strict upper triangle is
/// neither read nor written. Throws std::runtime_error if a pivot falls
/// below `min_pivot`.
void cholesky_factor_in_place(double* a, std::size_t k, std::size_t stride,
                              double min_pivot = 1e-12);

/// Solves L·Lᵀ·x = b in place (`b` becomes x) for a factor left by
/// cholesky_factor_in_place.
void cholesky_solve_in_place(const double* l, std::size_t k,
                             std::size_t stride, double* b) noexcept;

}  // namespace vn2::linalg
