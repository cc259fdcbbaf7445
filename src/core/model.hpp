// The trained VN2 model and its training pipeline.
//
// Training (paper §IV): raw network states → signed-deviation encoding →
// exception extraction (ε rule) → NMF at the chosen compression factor r →
// the representative matrix Ψ whose rows are root-cause vectors. When no
// rank is given, the Fig. 3(b) sweep picks one (dense-vs-sparse accuracy).
//
// The model keeps the training encoder (per-metric mean/std of variations)
// and the training maximum of the ε score, so fresh states can be judged
// normal/abnormal online with exactly the training-time rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/exception_detection.hpp"
#include "linalg/matrix.hpp"
#include "nmf/nmf.hpp"
#include "nmf/rank_selection.hpp"
#include "nmf/sparsify.hpp"

namespace vn2::core {

class Vn2Model {
 public:
  Vn2Model() = default;
  Vn2Model(linalg::Matrix psi, StateEncoder encoder, double train_max_score,
           double exception_threshold);

  /// Representative matrix: r × 86, encoded space (see StateEncoder).
  [[nodiscard]] const linalg::Matrix& psi() const noexcept { return psi_; }
  [[nodiscard]] const StateEncoder& encoder() const noexcept {
    return encoder_;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return psi_.rows(); }
  [[nodiscard]] bool trained() const noexcept { return psi_.rows() > 0; }

  /// Signed 43-metric profile (σ units) of root-cause vector `row` — the
  /// paper's Fig. 4 style view of Ψ.
  [[nodiscard]] linalg::Vector root_cause_profile(std::size_t row) const;

  /// ε-score of a raw state against the training distribution.
  [[nodiscard]] double exception_score(const linalg::Vector& raw_state) const;
  /// True when the training-time ε rule flags the state as an exception.
  [[nodiscard]] bool is_exception(const linalg::Vector& raw_state) const;
  /// The ε rule on an already computed exception_score().
  [[nodiscard]] bool is_exception_score(double score) const noexcept;

  [[nodiscard]] double train_max_score() const noexcept {
    return train_max_score_;
  }
  [[nodiscard]] double exception_threshold() const noexcept {
    return exception_threshold_;
  }

  /// Persistence (plain text, versioned). Throws std::runtime_error on IO
  /// or format errors.
  void save(const std::string& path) const;
  static Vn2Model load(const std::string& path);

  bool operator==(const Vn2Model&) const = default;

 private:
  linalg::Matrix psi_;  ///< r × 86, encoded space.
  StateEncoder encoder_;
  double train_max_score_ = 0.0;
  double exception_threshold_ = 0.01;
};

struct TrainingOptions {
  /// Compression factor r; 0 = auto-select via the rank sweep.
  std::size_t rank = 0;
  /// Candidate ranks for auto-selection (default 5, 10, ..., 40).
  std::vector<std::size_t> candidate_ranks;
  /// ε rule: a state is an exception when ε_u / max(ε) ≥ threshold.
  /// The paper uses 0.01 on raw (unstandardized) deviations, where the
  /// hugely different metric scales stretch the ratio axis; our ε is
  /// computed on σ-normalized clipped deviations, which compresses it.
  /// 0.30 reproduces the paper's exception density (≈2.5% of states) on
  /// CitySee-scale simulated traces.
  double exception_threshold = 0.30;
  /// Skip exception extraction and factorize all states — the paper does
  /// this for the small testbed trace where normal data cannot drown the
  /// exceptions.
  bool skip_exception_extraction = false;
  /// Outlier cap for the deviation encoding (σ units).
  double clip_sigma = 12.0;
  nmf::NmfOptions nmf;
  nmf::SparsifyOptions sparsify;
};

struct TrainingReport {
  Vn2Model model;
  nmf::NmfResult nmf;                      ///< Factorization at chosen rank.
  ExceptionDetectionResult detection;      ///< ε scores + flagged rows.
  std::vector<nmf::RankPoint> rank_sweep;  ///< Non-empty when auto-selected.
  std::size_t chosen_rank = 0;
  std::size_t training_states = 0;
  std::size_t exception_states = 0;
};

/// Trains from a raw state matrix (n × 43).
/// Throws std::invalid_argument on empty input, no detected exceptions, or
/// rank larger than the exception matrix allows.
TrainingReport train(const linalg::Matrix& raw_states,
                     const TrainingOptions& options = {});

}  // namespace vn2::core
