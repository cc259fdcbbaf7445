#include "core/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace vn2::core {

using linalg::Matrix;
using linalg::Vector;

StateEncoder StateEncoder::fit(const Matrix& states, double clip_sigma) {
  if (states.rows() == 0 || states.cols() != metrics::kMetricCount)
    throw std::invalid_argument("StateEncoder::fit: need non-empty n x 43");
  if (clip_sigma <= 0.0)
    throw std::invalid_argument("StateEncoder::fit: clip_sigma must be > 0");
  StateEncoder encoder;
  encoder.clip_ = clip_sigma;
  const auto n = static_cast<double>(states.rows());
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < states.rows(); ++i) acc += states(i, m);
    encoder.mean_[m] = acc / n;
  }
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < states.rows(); ++i) {
      const double d = states(i, m) - encoder.mean_[m];
      acc += d * d;
    }
    encoder.std_[m] = std::sqrt(acc / n);
  }
  return encoder;
}

double StateEncoder::z_of(std::size_t m, double raw) const {
  VN2_REQUIRE(m < metrics::kMetricCount,
              "StateEncoder::z_of: metric index out of range");
  if (std_[m] <= 0.0) return 0.0;  // Constant metric: carries no signal.
  const double z = (raw - mean_[m]) / std_[m];
  return std::clamp(z, -clip_, clip_);
}

Vector StateEncoder::encode(std::span<const double> raw) const {
  if (raw.size() != metrics::kMetricCount)
    throw std::invalid_argument("StateEncoder::encode: wrong vector size");
  Vector out(kEncodedCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
    const double z = z_of(m, raw[m]);
    out[m] = std::max(z, 0.0);
    out[metrics::kMetricCount + m] = std::max(-z, 0.0);
  }
  return out;
}

Matrix StateEncoder::encode(const Matrix& raw) const {
  if (raw.cols() != metrics::kMetricCount)
    throw std::invalid_argument("StateEncoder::encode: wrong column count");
  Matrix out(raw.rows(), kEncodedCount);
  for (std::size_t i = 0; i < raw.rows(); ++i) {
    for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
      const double z = z_of(m, raw(i, m));
      out(i, m) = std::max(z, 0.0);
      out(i, metrics::kMetricCount + m) = std::max(-z, 0.0);
    }
  }
  return out;
}

Vector StateEncoder::decode_signed(const Vector& encoded) {
  if (encoded.size() != kEncodedCount)
    throw std::invalid_argument("decode_signed: wrong vector size");
  Vector out(metrics::kMetricCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
    out[m] = encoded[m] - encoded[metrics::kMetricCount + m];
  return out;
}

double StateEncoder::deviation_score(const Vector& raw) const {
  return linalg::norm2(encode(raw));
}

Matrix StateEncoder::to_matrix() const {
  Matrix m(3, metrics::kMetricCount);
  for (std::size_t c = 0; c < metrics::kMetricCount; ++c) {
    m(0, c) = mean_[c];
    m(1, c) = std_[c];
  }
  m(2, 0) = clip_;
  return m;
}

StateEncoder StateEncoder::from_matrix(const Matrix& m) {
  if (m.rows() != 3 || m.cols() != metrics::kMetricCount)
    throw std::invalid_argument("StateEncoder::from_matrix: need 3 x 43");
  StateEncoder encoder;
  for (std::size_t c = 0; c < metrics::kMetricCount; ++c) {
    encoder.mean_[c] = m(0, c);
    encoder.std_[c] = m(1, c);
  }
  encoder.clip_ = m(2, 0);
  if (encoder.clip_ <= 0.0)
    throw std::invalid_argument("StateEncoder::from_matrix: bad clip");
  return encoder;
}

}  // namespace vn2::core
