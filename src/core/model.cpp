#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::core {

using linalg::Matrix;
using linalg::Vector;

Vn2Model::Vn2Model(Matrix psi, StateEncoder encoder, double train_max_score,
                   double exception_threshold)
    : psi_(std::move(psi)),
      encoder_(std::move(encoder)),
      train_max_score_(train_max_score),
      exception_threshold_(exception_threshold) {
  if (psi_.cols() != kEncodedCount)
    throw std::invalid_argument("Vn2Model: psi must have 86 columns");
}

Vector Vn2Model::root_cause_profile(std::size_t row) const {
  return StateEncoder::decode_signed(psi_.row_vector(row));
}

double Vn2Model::exception_score(const Vector& raw_state) const {
  return encoder_.deviation_score(raw_state);
}

bool Vn2Model::is_exception(const Vector& raw_state) const {
  return is_exception_score(exception_score(raw_state));
}

bool Vn2Model::is_exception_score(double score) const noexcept {
  if (train_max_score_ <= 0.0) return false;
  return score / train_max_score_ >= exception_threshold_;
}

namespace {

void write_matrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols() << '\n';
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m(i, j);
    }
    os << '\n';
  }
}

Matrix read_matrix(std::istream& is) {
  std::size_t rows = 0, cols = 0;
  if (!(is >> rows >> cols))
    throw std::runtime_error("model load: bad matrix header");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (!(is >> m(i, j)))
        throw std::runtime_error("model load: truncated matrix");
  return m;
}

}  // namespace

void Vn2Model::save(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("model save: cannot open " + path);
  file.precision(17);
  file << "VN2MODEL 2\n";
  file << train_max_score_ << ' ' << exception_threshold_ << '\n';
  write_matrix(file, psi_);
  write_matrix(file, encoder_.to_matrix());
  if (!file) throw std::runtime_error("model save: write failed " + path);
}

Vn2Model Vn2Model::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("model load: cannot open " + path);
  std::string magic;
  int version = 0;
  if (!(file >> magic >> version) || magic != "VN2MODEL" || version != 2)
    throw std::runtime_error("model load: bad header in " + path);
  Vn2Model model;
  if (!(file >> model.train_max_score_ >> model.exception_threshold_))
    throw std::runtime_error("model load: bad stats line");
  model.psi_ = read_matrix(file);
  model.encoder_ = StateEncoder::from_matrix(read_matrix(file));
  if (model.psi_.cols() != kEncodedCount)
    throw std::runtime_error("model load: psi must have 86 columns");
  return model;
}

TrainingReport train(const Matrix& raw_states, const TrainingOptions& options) {
  VN2_CHECK(raw_states.rows() > 0 &&
                raw_states.cols() == metrics::kMetricCount,
            "train: need a non-empty n x 43 state matrix");

  VN2_SPAN("vn2.train");
  TrainingReport report;
  report.training_states = raw_states.rows();

  const StateEncoder encoder =
      StateEncoder::fit(raw_states, options.clip_sigma);
  const Matrix encoded = encoder.encode(raw_states);

  // ε rule: the norm of each encoded row, i.e. the standardized deviation
  // from the training mean clipped at clip_sigma per metric (see
  // StateEncoder::deviation_score), read off the rows encoded above.
  {
    VN2_SPAN("vn2.detect_exceptions");
    report.detection.scores = Vector(encoded.rows());
    for (std::size_t i = 0; i < encoded.rows(); ++i) {
      report.detection.scores[i] = linalg::norm2(encoded.row(i));
      report.detection.max_score =
          std::max(report.detection.max_score, report.detection.scores[i]);
    }
    if (report.detection.max_score > 0.0) {
      for (std::size_t i = 0; i < encoded.rows(); ++i)
        if (report.detection.scores[i] / report.detection.max_score >=
            options.exception_threshold)
          report.detection.exception_rows.push_back(i);
    }
  }

  Matrix train_input;
  if (options.skip_exception_extraction) {
    train_input = encoded;
    report.exception_states = encoded.rows();
  } else {
    for (std::size_t row : report.detection.exception_rows)
      train_input.append_row(encoded.row(row));
    report.exception_states = train_input.rows();
    if (train_input.rows() == 0)
      throw std::invalid_argument(
          "train: exception extraction found no exception states");
  }

  // Rank: given or swept (Fig. 3(b) procedure).
  std::size_t rank = options.rank;
  if (rank == 0) {
    std::vector<std::size_t> candidates = options.candidate_ranks;
    if (candidates.empty())
      for (std::size_t r = 5; r <= 40; r += 5) candidates.push_back(r);
    nmf::RankSweepOptions sweep_options;
    sweep_options.nmf = options.nmf;
    sweep_options.sparsify = options.sparsify;
    report.rank_sweep = nmf::rank_sweep(train_input, candidates, sweep_options);
    if (report.rank_sweep.empty())
      throw std::invalid_argument("train: no feasible candidate rank");
    rank = nmf::choose_rank(report.rank_sweep).rank;
  }
  if (rank > std::min(train_input.rows(), train_input.cols()))
    throw std::invalid_argument(
        "train: rank exceeds exception-state matrix dimensions");
  report.chosen_rank = rank;

  report.nmf = nmf::factorize(train_input, rank, options.nmf);
  report.model = Vn2Model(report.nmf.psi, encoder,
                          report.detection.max_score,
                          options.exception_threshold);
  return report;
}

}  // namespace vn2::core
