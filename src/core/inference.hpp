// Online inference (paper, Problem 3): given a fresh node state S_v and the
// representative matrix Ψ, solve
//
//     argmin_w ‖S_v − w·Ψ‖²   s.t.  w ≥ 0
//
// (non-negative least squares) to obtain the correlation strength of every
// root-cause vector; non-zero entries identify the root causes active at
// this moment and their magnitudes quantize each cause's influence.
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"

namespace vn2::core {

struct DiagnoseOptions {
  /// Weights below this fraction of the top weight are reported as inactive.
  double strength_floor_fraction = 0.05;
  linalg::NnlsOptions nnls;
};

struct RankedCause {
  std::size_t row = 0;      ///< Row of Ψ (root-cause vector index).
  double strength = 0.0;    ///< Correlation strength w_row.
};

struct Diagnosis {
  linalg::Vector weights;   ///< Full w (size r), non-negative.
  double residual = 0.0;    ///< ‖s − wΨ‖₂ in encoded space.
  double exception_score = 0.0;  ///< ε of the raw state vs training stats.
  bool is_exception = false;     ///< ε rule verdict.
  std::vector<RankedCause> ranked;  ///< Active causes, strongest first.
};

/// Diagnoses one raw state vector (43 metric diffs).
Diagnosis diagnose(const Vn2Model& model, const linalg::Vector& raw_state,
                   const DiagnoseOptions& options = {});

/// Diagnoses a batch of raw states (n × 43), solving the independent
/// per-state NNLS problems across the global worker pool (see
/// core/parallel.hpp) in fixed chunks of states, one NNLS workspace per
/// chunk. Result i equals diagnose(model, row i, options) bit-for-bit at
/// any thread count; Ψᵀ is formed once for the whole batch.
std::vector<Diagnosis> diagnose_batch(const Vn2Model& model,
                                      const linalg::Matrix& raw_states,
                                      const DiagnoseOptions& options = {});

/// Computes the full correlation-strength matrix W (n × r) for a batch of
/// raw states — the data behind the paper's Fig. 3(c), 5(b), 6(b) scatters.
/// Row i equals diagnose_batch(model, raw_states, options)[i].weights.
linalg::Matrix correlation_strengths(const Vn2Model& model,
                                     const linalg::Matrix& raw_states,
                                     const DiagnoseOptions& options = {});

/// Column means of a strength matrix — the per-root-cause profile the paper
/// plots in Fig. 5(g)–(i) and 6(b).
linalg::Vector mean_strength_profile(const linalg::Matrix& w);

/// Pearson correlation between two strength profiles (used to compare
/// training vs testing distributions in Fig. 5(h)/(i)).
double profile_correlation(const linalg::Vector& a, const linalg::Vector& b);

}  // namespace vn2::core
