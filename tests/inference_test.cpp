#include "core/inference.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/parallel.hpp"
#include "test_helpers.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using vn2::testing::make_synthetic;
using vn2::testing::PlantedCause;
using vn2::testing::standard_causes;

class InferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synthetic_ = make_synthetic(standard_causes(), 500, 42);
    TrainingOptions options;
    options.rank = 6;
    options.nmf.max_iterations = 400;
    report_ = train(synthetic_.states, options);
  }

  vn2::testing::SyntheticTrace synthetic_;
  TrainingReport report_;
};

TEST_F(InferenceTest, RejectsBadInput) {
  EXPECT_THROW(diagnose(Vn2Model{}, Vector(metrics::kMetricCount)),
               std::invalid_argument);
  EXPECT_THROW(diagnose(report_.model, Vector(10)), std::invalid_argument);
  Matrix one(0, 0);
  one.append_row(synthetic_.states.row(0));
  EXPECT_THROW(diagnose_batch(Vn2Model{}, one), std::invalid_argument);
  EXPECT_THROW(correlation_strengths(Vn2Model{}, one), std::invalid_argument);
  EXPECT_THROW(correlation_strengths(report_.model, Matrix(2, 10)),
               std::invalid_argument);
}

TEST_F(InferenceTest, WeightsAreNonnegativeAndRanked) {
  const Diagnosis d =
      diagnose(report_.model, synthetic_.states.row_vector(5));
  EXPECT_EQ(d.weights.size(), report_.model.rank());
  for (std::size_t r = 0; r < d.weights.size(); ++r)
    EXPECT_GE(d.weights[r], 0.0);
  for (std::size_t i = 1; i < d.ranked.size(); ++i)
    EXPECT_GE(d.ranked[i - 1].strength, d.ranked[i].strength);
}

TEST_F(InferenceTest, NormalStatesHaveSmallWeights) {
  // Paper: "In most cases, the node performs well, such that x_j ≈ 0."
  double normal_total = 0.0, abnormal_total = 0.0;
  std::size_t normals = 0, abnormals = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    const double total = linalg::sum(d.weights);
    if (synthetic_.active[i].empty()) {
      normal_total += total;
      ++normals;
    } else {
      abnormal_total += total;
      ++abnormals;
    }
  }
  ASSERT_GT(normals, 0u);
  ASSERT_GT(abnormals, 0u);
  // Normal states still carry |z| ≈ 0.8σ of encoded noise per metric, so
  // their weights are small but not zero; abnormal states must clearly
  // exceed them.
  EXPECT_GT(abnormal_total / abnormals, 1.5 * normal_total / normals);
}

TEST_F(InferenceTest, SameCauseSameDominantRow) {
  // All states with only cause 0 active should light up the same Ψ row(s).
  std::map<std::size_t, std::size_t> dominant_count;
  std::size_t total = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    if (synthetic_.active[i] != std::vector<std::size_t>{0}) continue;
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    if (d.ranked.empty()) continue;
    dominant_count[d.ranked[0].row]++;
    ++total;
  }
  ASSERT_GT(total, 10u);
  std::size_t best = 0;
  for (const auto& [row, count] : dominant_count) best = std::max(best, count);
  // A clear majority maps to one row.
  EXPECT_GT(best, total / 2);
}

TEST_F(InferenceTest, MultiCauseStatesActivateMultipleRows) {
  // Find which row dominates each single cause.
  auto dominant_row_for = [&](std::size_t cause) -> std::size_t {
    std::map<std::size_t, std::size_t> counts;
    for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
      if (synthetic_.active[i] != std::vector<std::size_t>{cause}) continue;
      const Diagnosis d =
          diagnose(report_.model, synthetic_.states.row_vector(i));
      if (!d.ranked.empty()) counts[d.ranked[0].row]++;
    }
    std::size_t best_row = 0, best_count = 0;
    for (const auto& [row, count] : counts)
      if (count > best_count) {
        best_row = row;
        best_count = count;
      }
    return best_row;
  };
  const std::size_t row0 = dominant_row_for(0);
  const std::size_t row1 = dominant_row_for(1);
  if (row0 == row1) GTEST_SKIP() << "causes merged into one factor";

  // States with causes {0, 1} both active should activate both rows.
  std::size_t both = 0, total = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    std::set<std::size_t> active(synthetic_.active[i].begin(),
                                 synthetic_.active[i].end());
    if (active != std::set<std::size_t>{0, 1}) continue;
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    std::set<std::size_t> rows;
    for (const RankedCause& cause : d.ranked) rows.insert(cause.row);
    if (rows.contains(row0) && rows.contains(row1)) ++both;
    ++total;
  }
  if (total == 0) GTEST_SKIP() << "no pair states drawn for causes {0,1}";
  EXPECT_GT(static_cast<double>(both) / static_cast<double>(total), 0.5);
}

TEST_F(InferenceTest, ResidualSmallForTrainingLikeStates) {
  // The model should reconstruct states drawn from its own distribution
  // substantially better than arbitrary noise directions it never saw.
  const Vector abnormal = synthetic_.states.row_vector(5);
  const Diagnosis d = diagnose(report_.model, abnormal);
  const double encoded_norm =
      linalg::norm2(report_.model.encoder().encode(abnormal));
  EXPECT_LT(d.residual, encoded_norm);
}

TEST_F(InferenceTest, CorrelationStrengthsBatchMatchesSingle) {
  Matrix subset(0, 0);
  for (std::size_t i = 0; i < 10; ++i)
    subset.append_row(synthetic_.states.row(i));
  const Matrix w = correlation_strengths(report_.model, subset);
  ASSERT_EQ(w.rows(), 10u);
  ASSERT_EQ(w.cols(), report_.model.rank());
  for (std::size_t i = 0; i < 10; ++i) {
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    for (std::size_t r = 0; r < w.cols(); ++r)
      EXPECT_NEAR(w(i, r), d.weights[r], 1e-8);
  }
}

TEST(InferenceHelpers, MeanStrengthProfile) {
  Matrix w{{1.0, 0.0}, {3.0, 2.0}};
  const Vector profile = mean_strength_profile(w);
  EXPECT_DOUBLE_EQ(profile[0], 2.0);
  EXPECT_DOUBLE_EQ(profile[1], 1.0);
  EXPECT_EQ(mean_strength_profile(Matrix(0, 0)).size(), 0u);
}

TEST(InferenceHelpers, ProfileCorrelation) {
  Vector a{1.0, 2.0, 3.0};
  Vector up{2.0, 4.0, 6.0};
  Vector down{3.0, 2.0, 1.0};
  EXPECT_NEAR(profile_correlation(a, up), 1.0, 1e-12);
  EXPECT_NEAR(profile_correlation(a, down), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(profile_correlation(a, Vector{1.0, 1.0, 1.0}), 0.0);
  EXPECT_THROW(profile_correlation(a, Vector{1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The inference engine: diagnose_batch (and correlation_strengths through
// it) solves the states in fixed chunks of 64, one warm NNLS workspace per
// chunk. Every row must equal the single-state diagnose bit for bit at any
// thread count, including row counts that leave a partial last chunk.

void expect_same_diagnosis(const Diagnosis& got, const Diagnosis& want,
                           std::size_t state, std::size_t threads) {
  ASSERT_EQ(got.weights, want.weights)
      << "state " << state << " at " << threads << " threads";
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.exception_score, want.exception_score);
  EXPECT_EQ(got.is_exception, want.is_exception);
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t r = 0; r < got.ranked.size(); ++r) {
    EXPECT_EQ(got.ranked[r].row, want.ranked[r].row);
    EXPECT_EQ(got.ranked[r].strength, want.ranked[r].strength);
  }
}

TEST_F(InferenceTest, EngineMatchesSingleStateDiagnoseBitForBit) {
  const std::size_t previous = num_threads();
  for (const std::size_t rows : {0ul, 1ul, 63ul, 65ul, 3 * 64ul + 5}) {
    Matrix subset(0, metrics::kMetricCount);
    std::vector<Diagnosis> expected;
    for (std::size_t i = 0; i < rows; ++i) {
      subset.append_row(synthetic_.states.row(i));
      expected.push_back(
          diagnose(report_.model, synthetic_.states.row_vector(i)));
    }
    for (const std::size_t threads : {1ul, 2ul, 8ul}) {
      set_num_threads(threads);
      const std::vector<Diagnosis> batch =
          diagnose_batch(report_.model, subset);
      ASSERT_EQ(batch.size(), rows);
      for (std::size_t i = 0; i < rows; ++i)
        expect_same_diagnosis(batch[i], expected[i], i, threads);

      const Matrix w = correlation_strengths(report_.model, subset);
      ASSERT_EQ(w.rows(), rows);
      ASSERT_EQ(w.cols(), report_.model.rank());
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t r = 0; r < w.cols(); ++r)
          ASSERT_EQ(w(i, r), expected[i].weights[r])
              << "state " << i << " weight " << r << " at " << threads
              << " threads, " << rows << " rows";
    }
  }
  set_num_threads(previous);
}

TEST_F(InferenceTest, StrengthFloorFiltersWeakCauses) {
  DiagnoseOptions strict;
  strict.strength_floor_fraction = 0.9;  // Essentially only the top cause.
  const Diagnosis d = diagnose(report_.model,
                               synthetic_.states.row_vector(5), strict);
  DiagnoseOptions lenient;
  lenient.strength_floor_fraction = 0.0;
  const Diagnosis d2 = diagnose(report_.model,
                                synthetic_.states.row_vector(5), lenient);
  EXPECT_LE(d.ranked.size(), d2.ranked.size());
}

}  // namespace
}  // namespace vn2::core
