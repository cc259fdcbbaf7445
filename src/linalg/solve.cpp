#include "linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace vn2::linalg {

void cholesky_factor_in_place(double* a, std::size_t k, std::size_t stride,
                              double min_pivot) {
  VN2_CHECK(stride >= k, "cholesky_factor_in_place: stride must cover k");
  for (std::size_t i = 0; i < k; ++i) {
    double* li = a + i * stride;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* lj = a + j * stride;
      double acc = li[j];
      for (std::size_t p = 0; p < j; ++p) acc -= li[p] * lj[p];
      if (i == j) {
        if (acc < min_pivot)
          throw std::runtime_error("cholesky_factor: matrix not SPD");
        li[j] = std::sqrt(acc);
      } else {
        li[j] = acc / lj[j];
      }
    }
    VN2_ASSERT(std::isfinite(li[i]) && li[i] > 0.0,
               "cholesky_factor: pivot must stay positive and finite");
  }
}

void cholesky_solve_in_place(const double* l, std::size_t k,
                             std::size_t stride, double* b) noexcept {
  // Forward substitution: L·y = b.
  for (std::size_t i = 0; i < k; ++i) {
    const double* li = l + i * stride;
    double acc = b[i];
    for (std::size_t p = 0; p < i; ++p) acc -= li[p] * b[p];
    b[i] = acc / li[i];
  }
  // Back substitution: Lᵀ·x = y.
  for (std::size_t ii = k; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t p = ii + 1; p < k; ++p) acc -= l[p * stride + ii] * b[p];
    b[ii] = acc / l[ii * stride + ii];
  }
}

Matrix cholesky_factor(const Matrix& a, double min_pivot) {
  VN2_CHECK(a.rows() == a.cols(), "cholesky_factor: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l = a;
  cholesky_factor_in_place(l.data(), n, n, min_pivot);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  return l;
}

Vector cholesky_solve(const Matrix& a, const Vector& b) {
  VN2_CHECK(a.rows() == b.size(), "cholesky_solve: size mismatch");
  const Matrix l = cholesky_factor(a);
  Vector x = b;
  cholesky_solve_in_place(l.data(), x.size(), x.size(), x.data());
  return x;
}

}  // namespace vn2::linalg
