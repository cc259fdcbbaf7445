// Dense row-major matrix and vector types used throughout VN2.
//
// The analysis pipeline works with moderate sizes (thousands of states by
// 43 metrics, factor ranks below ~50), so a straightforward cache-friendly
// row-major implementation with no expression templates is the right
// complexity point. All checked failures throw std::invalid_argument /
// std::out_of_range; shapes are always validated on entry.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

namespace vn2::linalg {

/// Dense vector of doubles. Thin wrapper over std::vector that adds the
/// numeric operations the NMF/NNLS code needs.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  [[nodiscard]] std::span<double> span() noexcept { return data_; }
  [[nodiscard]] std::span<const double> span() const noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return data_;
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  auto begin() const noexcept { return data_.begin(); }
  auto end() const noexcept { return data_.end(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s) noexcept;

  bool operator==(const Vector&) const = default;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector v, double s);
Vector operator*(double s, Vector v);

/// Euclidean dot product. Sizes must match.
double dot(const Vector& a, const Vector& b);
/// L2 norm (of a Vector or a matrix row).
double norm2(std::span<const double> v) noexcept;
/// L1 norm (sum of absolute values).
double norm1(const Vector& v) noexcept;
/// Largest absolute entry; 0 for an empty vector.
double norm_inf(const Vector& v) noexcept;
/// Sum of entries.
double sum(const Vector& v) noexcept;
/// Arithmetic mean; throws on empty input.
double mean(const Vector& v);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Build from nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  /// Copies of a row / column as vectors.
  [[nodiscard]] Vector row_vector(std::size_t r) const;
  [[nodiscard]] Vector col_vector(std::size_t c) const;

  void set_row(std::size_t r, const Vector& v);

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  /// Appends a row (the matrix must be empty or have matching cols).
  void append_row(std::span<const double> values);

  void fill(double value) noexcept;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;

  void check_index(std::size_t r, std::size_t c) const;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);

/// Matrix product A(n×k) · B(k×m) → n×m. Throws on shape mismatch.
/// Dispatches to the selected kernel backend (linalg/kernels.hpp) and runs
/// row-parallel above a flop threshold; results are bit-identical at every
/// thread count.
Matrix matmul(const Matrix& a, const Matrix& b);
/// matmul into a preallocated out (must already be a.rows()×b.cols() and
/// must not alias either input). The allocation-free form the NMF
/// workspace loop uses.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
/// A(n×k) · x(k) → n.
Vector matvec(const Matrix& a, const Vector& x);
/// xᵀ(n) · A(n×k) → k.
Vector vecmat(const Vector& x, const Matrix& a);
/// Transpose.
Matrix transpose(const Matrix& a);
/// Transpose into a preallocated out (must already be a.cols()×a.rows()
/// and must not alias a).
void transpose_into(const Matrix& a, Matrix& out);

/// Frobenius norm ‖A‖_F.
double frobenius_norm(const Matrix& a) noexcept;
/// Sum of absolute entries (entrywise L1).
double entrywise_l1(const Matrix& a) noexcept;
/// Largest absolute entry.
double max_abs(const Matrix& a) noexcept;
/// ‖A − B‖_F; throws on shape mismatch.
double frobenius_distance(const Matrix& a, const Matrix& b);

/// True if every entry is >= -tolerance.
bool is_nonnegative(const Matrix& a, double tolerance = 0.0) noexcept;

/// Pretty printer used by tests and examples (not performance-sensitive).
std::ostream& operator<<(std::ostream& os, const Matrix& m);
std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace vn2::linalg
