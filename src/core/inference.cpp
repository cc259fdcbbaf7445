#include "core/inference.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

// States per parallel_for task in diagnose_batch. Each chunk owns one
// NnlsWorkspace, sized once for the shared system, so no solve allocates
// solver scratch.
constexpr std::size_t kStatesPerChunk = 64;

// One diagnosis against the prebuilt system A = Ψᵀ (with its Gram matrix
// ΨΨᵀ), so batch callers build it once instead of once per state. The
// workspace recycles the NNLS scratch across states (warm == cold
// bit-for-bit, see nnls.hpp).
Diagnosis diagnose_against(const linalg::NnlsSystem& system,
                           const Vn2Model& model,
                           std::span<const double> raw_state,
                           const DiagnoseOptions& options,
                           linalg::NnlsWorkspace& workspace) {
  // The state is encoded once: its norm is the ε score
  // (StateEncoder::deviation_score) and it is the NNLS right-hand side.
  const Vector encoded = model.encoder().encode(raw_state);
  Diagnosis diagnosis;
  diagnosis.exception_score = linalg::norm2(encoded);
  diagnosis.is_exception = model.is_exception_score(diagnosis.exception_score);

  // NNLS against A = Ψᵀ (86 × r), b = encoded state.
  linalg::NnlsResult solution =
      linalg::nnls(system, encoded, options.nnls, workspace);
  diagnosis.weights = std::move(solution.x);
  diagnosis.residual = solution.residual_norm;

  double top = 0.0;
  for (std::size_t r = 0; r < diagnosis.weights.size(); ++r)
    top = std::max(top, diagnosis.weights[r]);
  const double floor = top * options.strength_floor_fraction;
  for (std::size_t r = 0; r < diagnosis.weights.size(); ++r)
    if (diagnosis.weights[r] > floor && diagnosis.weights[r] > 0.0)
      diagnosis.ranked.push_back({r, diagnosis.weights[r]});
  std::sort(diagnosis.ranked.begin(), diagnosis.ranked.end(),
            [](const RankedCause& a_, const RankedCause& b_) {
              return a_.strength > b_.strength;
            });
  VN2_ASSERT(diagnosis.weights.size() == model.rank(),
             "diagnose: one correlation strength per root cause");
  VN2_ASSERT(diagnosis.ranked.size() <= diagnosis.weights.size(),
             "diagnose: ranked causes are a subset of the weights");
  return diagnosis;
}

void check_batch_input(const Vn2Model& model, const Matrix& raw_states,
                       const char* who) {
  if (!model.trained())
    throw std::invalid_argument(std::string(who) + ": model is not trained");
  VN2_CHECK(raw_states.cols() == metrics::kMetricCount,
            "batch states must match the 43-metric schema");
}

}  // namespace

Diagnosis diagnose(const Vn2Model& model, const Vector& raw_state,
                   const DiagnoseOptions& options) {
  if (!model.trained())
    throw std::invalid_argument("diagnose: model is not trained");
  VN2_CHECK(raw_state.size() == metrics::kMetricCount,
            "diagnose: state vector must match the 43-metric schema");
  const linalg::NnlsSystem system(linalg::transpose(model.psi()));
  linalg::NnlsWorkspace workspace(system);
  return diagnose_against(system, model, raw_state.span(), options,
                          workspace);
}

std::vector<Diagnosis> diagnose_batch(const Vn2Model& model,
                                      const Matrix& raw_states,
                                      const DiagnoseOptions& options) {
  check_batch_input(model, raw_states, "diagnose_batch");
  VN2_SPAN("vn2.diagnose_batch");
  const std::size_t total = raw_states.rows();
  VN2_COUNT_N("vn2.states.diagnosed", total);
  const linalg::NnlsSystem system(linalg::transpose(model.psi()));
  // Chunk c covers states [64c, 64c + 64) and is the only writer of their
  // slots and of its workspace; the system is shared read-only. The batch
  // therefore matches the serial per-state loop at any thread count.
  std::vector<Diagnosis> diagnoses(total);
  const std::size_t chunks = (total + kStatesPerChunk - 1) / kStatesPerChunk;
  parallel_for(0, chunks, [&](std::size_t c) {
    linalg::NnlsWorkspace workspace(system);
    const std::size_t end = std::min(total, (c + 1) * kStatesPerChunk);
    for (std::size_t i = c * kStatesPerChunk; i < end; ++i)
      diagnoses[i] = diagnose_against(system, model, raw_states.row(i),
                                      options, workspace);
  });
  return diagnoses;
}

Matrix correlation_strengths(const Vn2Model& model, const Matrix& raw_states,
                             const DiagnoseOptions& options) {
  check_batch_input(model, raw_states, "correlation_strengths");
  VN2_SPAN("vn2.correlation_strengths");
  const std::vector<Diagnosis> diagnoses =
      diagnose_batch(model, raw_states, options);
  Matrix w(raw_states.rows(), model.rank());
  for (std::size_t i = 0; i < diagnoses.size(); ++i)
    for (std::size_t r = 0; r < model.rank(); ++r)
      w(i, r) = diagnoses[i].weights[r];
  return w;
}

Vector mean_strength_profile(const Matrix& w) {
  Vector profile(w.cols());
  if (w.rows() == 0) return profile;
  for (std::size_t j = 0; j < w.cols(); ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) acc += w(i, j);
    profile[j] = acc / static_cast<double>(w.rows());
  }
  return profile;
}

double profile_correlation(const Vector& a, const Vector& b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("profile_correlation: size mismatch");
  const double ma = linalg::mean(a);
  const double mb = linalg::mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  const double denom = std::sqrt(va * vb);
  return denom > 0.0 ? cov / denom : 0.0;
}

}  // namespace vn2::core
