#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "linalg/kernels.hpp"

namespace vn2::linalg {

namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace

double& Vector::operator[](std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range("Vector index out of range");
  return data_[i];
}

double Vector::operator[](std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range("Vector index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  require(size() == rhs.size(), "Vector+=: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  require(size() == rhs.size(), "Vector-=: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }

double dot(const Vector& a, const Vector& b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * b.data()[i];
  return acc;
}

double norm2(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double norm1(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v.values()) acc += std::abs(x);
  return acc;
}

double norm_inf(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v.values()) acc = std::max(acc, std::abs(x));
  return acc;
}

double sum(const Vector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const Vector& v) {
  require(!v.empty(), "mean: empty vector");
  return sum(v) / static_cast<double>(v.size());
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    require(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::check_index(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_)
    throw std::out_of_range("Matrix index out of range");
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  check_index(r, c);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  check_index(r, c);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  check_index(r, 0);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  check_index(r, 0);
  return {data_.data() + r * cols_, cols_};
}

Vector Matrix::row_vector(std::size_t r) const {
  auto view = row(r);
  return Vector(std::vector<double>(view.begin(), view.end()));
}

Vector Matrix::col_vector(std::size_t c) const {
  check_index(0, c);
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  require(v.size() == cols_, "set_row: size mismatch");
  auto view = row(r);
  std::copy(v.begin(), v.end(), view.begin());
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  require(values.size() == cols_, "append_row: size mismatch");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  VN2_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  VN2_CHECK(&out != &a && &out != &b,
            "matmul_into: output must not alias an input");
  VN2_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
            "matmul_into: output shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  // Rows of the output are independent, and the kernel computes every row
  // with the same per-element accumulation order regardless of how the
  // range is partitioned, so the result is bit-identical to the serial
  // call at any thread count. Only go parallel when there is enough
  // arithmetic to amortize the dispatch; tiny products (the vast majority
  // of calls in tests) take the plain path.
  constexpr std::size_t kParallelFlopThreshold = 64 * 1024;
  const std::size_t threads = core::num_threads();
  if (threads > 1 && n > 1 && n * k * m >= kParallelFlopThreshold) {
    const std::size_t block =
        std::clamp<std::size_t>(n / (4 * threads), 4, 64);
    const std::size_t tasks = (n + block - 1) / block;
    core::parallel_for(0, tasks, [&](std::size_t t) {
      const std::size_t begin = t * block;
      kernels::gemm_rows(a.data(), b.data(), out.data(), k, m, begin,
                         std::min(n, begin + block));
    });
  } else {
    kernels::gemm_rows(a.data(), b.data(), out.data(), k, m, 0, n);
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  VN2_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix out(a.rows(), b.cols(), 0.0);
  matmul_into(a, b, out);
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  VN2_CHECK(a.cols() == x.size(), "matvec: dimension mismatch");
  Vector out(a.rows());
  kernels::gemv(a.data(), x.data(), out.data(), a.rows(), a.cols());
  return out;
}

Vector vecmat(const Vector& x, const Matrix& a) {
  VN2_CHECK(a.rows() == x.size(), "vecmat: dimension mismatch");
  Vector out(a.cols());
  // No zero-skip on x: 0·NaN must stay NaN (IEEE), and runtime must not
  // depend on the data.
  for (std::size_t i = 0; i < a.rows(); ++i)
    kernels::axpy(x.data()[i], a.data() + i * a.cols(), out.data(), a.cols());
  return out;
}

Matrix transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  transpose_into(a, out);
  return out;
}

void transpose_into(const Matrix& a, Matrix& out) {
  VN2_CHECK(&out != &a, "transpose_into: output must not alias the input");
  VN2_CHECK(out.rows() == a.cols() && out.cols() == a.rows(),
            "transpose_into: output shape mismatch");
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* ad = a.data();
  double* od = out.data();
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) od[j * rows + i] = ad[i * cols + j];
}

double frobenius_norm(const Matrix& a) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * a.data()[i];
  return std::sqrt(acc);
}

double entrywise_l1(const Matrix& a) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a.data()[i]);
  return acc;
}

double max_abs(const Matrix& a) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = std::max(acc, std::abs(a.data()[i]));
  return acc;
}

double frobenius_distance(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "frobenius_distance: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

bool is_nonnegative(const Matrix& a, double tolerance) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.data()[i] < -tolerance) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")\n";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << "  [";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ", ";
      os << m(i, j);
    }
    os << "]\n";
  }
  return os;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v.data()[i];
  }
  return os << "]";
}

}  // namespace vn2::linalg
