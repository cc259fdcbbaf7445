// Signed-deviation state encoding — the bridge between raw state vectors
// and NMF's non-negativity requirement.
//
// A raw network state is the signed difference of two successive metric
// reports. NMF needs non-negative input, and the paper's semantics require
// that a well-behaved node have x ≈ 0 against the representative matrix.
// Min–max scaling cannot deliver that (it maps "no change" to mid-range, so
// even normal states need large weights). Instead each metric is
// standardized against the training distribution of its variations and the
// sign is split into two non-negative channels:
//
//     z_m  = clip((raw_m − mean_m) / std_m)        (signed, σ units)
//     enc  = [max(z, 0) ; max(−z, 0)]              (2·43 = 86 columns)
//
// Properties: a normal state encodes to ≈ 0 (so its NNLS weights vanish —
// exactly the paper's "x_j ≈ 0 in most cases"); ‖enc‖₂ is the ε deviation
// score of the exception-detection rule; and a Ψ row decodes back to a
// signed 43-metric profile in σ units — the [-1,1]-style root-cause plots
// of the paper's Fig. 4–6 (up-spikes = metric grew abnormally, down-spikes
// = shrank, zero = uninvolved).
#pragma once

#include <array>
#include <span>

#include "linalg/matrix.hpp"
#include "metrics/schema.hpp"

namespace vn2::core {

inline constexpr std::size_t kEncodedCount = 2 * metrics::kMetricCount;

class StateEncoder {
 public:
  /// Fits per-metric mean/std of variations on training states (n × 43).
  /// Throws std::invalid_argument on an empty matrix or wrong column count.
  /// `clip_sigma` caps |z| so one catastrophic outlier (e.g. a counter
  /// reset of −10⁵) cannot own the factorization.
  static StateEncoder fit(const linalg::Matrix& states,
                          double clip_sigma = 12.0);

  /// Encodes one raw 43-state (a Vector or a batch row) into the
  /// non-negative 86-vector.
  [[nodiscard]] linalg::Vector encode(std::span<const double> raw) const;
  /// Encodes a batch (n × 43 → n × 86).
  [[nodiscard]] linalg::Matrix encode(const linalg::Matrix& raw) const;

  /// Folds an encoded (or Ψ-row) 86-vector back to a signed 43-profile in
  /// σ units: profile = positive channel − negative channel.
  [[nodiscard]] static linalg::Vector decode_signed(const linalg::Vector& encoded);

  /// ε deviation score of a raw state: ‖encode(raw)‖₂. Clipping applies
  /// here too, deliberately: a single catastrophic metric (say a −10⁵
  /// counter reset, z ≈ 1000) must not monopolize max(ε) in the ratio rule
  /// and push every other genuine exception under the threshold.
  [[nodiscard]] double deviation_score(const linalg::Vector& raw) const;

  [[nodiscard]] double metric_mean(std::size_t m) const { return mean_.at(m); }
  [[nodiscard]] double metric_std(std::size_t m) const { return std_.at(m); }
  [[nodiscard]] double clip_sigma() const noexcept { return clip_; }

  /// Serialization: 3 × 43 (mean; std; clip in row 2 col 0).
  [[nodiscard]] linalg::Matrix to_matrix() const;
  static StateEncoder from_matrix(const linalg::Matrix& m);

  bool operator==(const StateEncoder&) const = default;

 private:
  std::array<double, metrics::kMetricCount> mean_{};
  std::array<double, metrics::kMetricCount> std_{};
  double clip_ = 12.0;

  [[nodiscard]] double z_of(std::size_t m, double raw) const;
};

}  // namespace vn2::core
