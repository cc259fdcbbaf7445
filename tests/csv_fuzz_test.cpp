// Fuzz-style robustness tests for every reader of untrusted text: the CSV
// trace reader and the JSON readers (the codec itself, bench records and
// baselines, profile call trees, the lint SARIF baseline). Each gets a
// checked-in corpus of malformed inputs (truncated rows and documents,
// NaN/negative counters, embedded NULs, oversized lines, overflowing
// numbers, 200k-deep nesting, bad escapes, inexact u64 fields, duplicate
// keys, trailing garbage) plus seeded random mutations of valid input.
// The contract under test: malformed input is reported with a
// std::exception (or, for the SARIF reader, nullopt), never a crash or
// UB — CI runs this suite under ASan+UBSan. Inputs that do parse are
// pushed through the next layer (state extraction, the bench gate, the
// call-tree diff) so downstream code sees the hostile data too.
#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "benchstat/gate.hpp"
#include "benchstat/record.hpp"
#include "json/json.hpp"
#include "lint/sarif.hpp"
#include "telemetry/calltree.hpp"
#include "telemetry/profdiff.hpp"
#include "telemetry/sink.hpp"
#include "trace/trace.hpp"

namespace vn2::trace {
namespace {

/// Iteration count for the seeded-mutation tests. The default keeps the
/// suite fast for every tier-1 run; CI's fuzz smoke step raises it via
/// VN2_CSV_FUZZ_ROUNDS to buy a deeper (still fixed-iteration,
/// deterministic) sweep on a ~30 s budget.
int fuzz_rounds(int fallback) {
  const char* value = std::getenv("VN2_CSV_FUZZ_ROUNDS");
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// Parses `text` as a trace CSV and, when it parses, runs the state
/// extraction pipeline on the result. Any std::exception is the expected
/// way to reject garbage.
void exercise(const std::string& text) {
  std::istringstream in(text);
  try {
    const Trace trace = read_trace_csv(in);
    const auto states = extract_states(trace);
    (void)states_matrix(states);
  } catch (const std::exception&) {
    // Rejection via exception is the contract; silence is success.
  }
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CsvFuzz, CorpusFilesNeverCrash) {
  const std::filesystem::path dir(VN2_CSV_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    exercise(read_bytes(entry.path()));
    ++seen;
  }
  EXPECT_GE(seen, 8u) << "corpus unexpectedly small";
}

TEST(CsvFuzz, CorpusValidFileStillParses) {
  const std::filesystem::path file =
      std::filesystem::path(VN2_CSV_CORPUS_DIR) / "valid_small.csv";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  const Trace trace = read_trace_csv(in);
  EXPECT_EQ(trace.nodes.size(), 2u);
  EXPECT_EQ(trace.total_snapshots(), 4u);
  // One diff per node: 2 snapshots each.
  EXPECT_EQ(extract_states(trace).size(), 2u);
}

/// A small deterministic trace to mutate: 3 nodes, 4 epochs, distinct
/// values so field boundaries land everywhere in the text.
std::string valid_trace_csv() {
  Trace trace;
  trace.node_count = 3;
  for (wsn::NodeId node = 0; node < 3; ++node) {
    NodeSeries series;
    series.node = node;
    for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
      Snapshot snap;
      snap.epoch = epoch;
      snap.time = 60.0 * static_cast<double>(epoch) + node;
      for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
        snap.values[m] = static_cast<double>(node * 1000 + epoch * 50 + m) /
                         static_cast<double>(m + 1);
      series.snapshots.push_back(snap);
    }
    trace.duration = series.snapshots.back().time;
    trace.nodes.push_back(series);
  }
  std::ostringstream out;
  write_trace_csv(out, trace);
  return out.str();
}

/// One to eight random byte edits of `base`: overwrite, delete, insert
/// or truncate.
std::string mutate(const std::string& base, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> op(0, 3);
  std::string mutated = base;
  const int edits = 1 + static_cast<int>(rng() % 8);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = pos(rng) % mutated.size();
    switch (op(rng)) {
      case 0:  // overwrite with an arbitrary byte (NUL included)
        mutated[at] = static_cast<char>(byte(rng));
        break;
      case 1:  // delete one byte
        mutated.erase(at, 1);
        break;
      case 2:  // insert an arbitrary byte
        mutated.insert(at, 1, static_cast<char>(byte(rng)));
        break;
      default:  // truncate mid-structure
        mutated.resize(at);
        break;
    }
    if (mutated.empty()) break;
  }
  return mutated;
}

TEST(CsvFuzz, MutatedValidTracesNeverCrash) {
  const std::string base = valid_trace_csv();
  ASSERT_FALSE(base.empty());
  std::mt19937_64 rng(0xC5Fu);
  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    exercise(mutate(base, rng));
  }
}

TEST(CsvFuzz, MutatedMatrixCsvNeverCrashes) {
  std::string base;
  {
    linalg::Matrix m(4, 5);
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j)
        m(i, j) = static_cast<double>(i * 10 + j) - 7.5;
    std::ostringstream out;
    write_matrix_csv(out, m);
    base = out.str();
  }
  std::mt19937_64 rng(0xA11);
  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = base;
    const std::size_t at = rng() % mutated.size();
    mutated[at] = static_cast<char>(rng() % 256);
    std::istringstream in(mutated);
    try {
      (void)read_matrix_csv(in);
    } catch (const std::exception&) {
    }
  }
}

// ---------------------------------------------------------------------------
// The JSON readers.

/// Feeds `text` to every structured JSON reader and returns how many of
/// the four rejected it; whatever one accepts goes on to the layer that
/// consumes it. json::parse itself only has to reject or accept cleanly.
int structured_rejections(const std::string& text) {
  try {
    (void)json::parse(text);
  } catch (const json::Error&) {
  }
  int rejected = 0;
  try {
    const benchstat::Record record = benchstat::read_record(text);
    benchstat::Baseline baseline;
    baseline.records.push_back(record);
    (void)benchstat::render_text(benchstat::compare(baseline, {record}, {}));
  } catch (const std::exception&) {
    ++rejected;
  }
  try {
    const benchstat::Baseline baseline = benchstat::read_baseline(text);
    (void)benchstat::render_markdown(
        benchstat::compare(baseline, baseline.records, {}));
  } catch (const std::exception&) {
    ++rejected;
  }
  try {
    const auto tree = telemetry::read_call_tree_json(text);
    (void)telemetry::render_text(telemetry::diff_call_trees(tree, tree, {}));
  } catch (const std::exception&) {
    ++rejected;
  }
  std::string error;
  if (!lint::findings_from_sarif(text, &error).has_value()) {
    EXPECT_FALSE(error.empty());
    ++rejected;
  }
  return rejected;
}

TEST(CsvFuzz, JsonCorpusIsRejectedByEveryReader) {
  const std::filesystem::path dir =
      std::filesystem::path(VN2_CSV_CORPUS_DIR) / "json";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    // The control document satisfies every reader; each other file is
    // that document with one defect, which every reader must catch.
    const int expected = name.rfind("valid_", 0) == 0 ? 0 : 4;
    EXPECT_EQ(structured_rejections(read_bytes(entry.path())), expected);
    ++seen;
  }
  EXPECT_GE(seen, 10u) << "corpus unexpectedly small";
}

/// A bench record with every section filled, as the benches write it.
std::string valid_record_json() {
  benchstat::Record record;
  record.bench = "fuzz";
  record.workload = "mutation base";
  record.provenance.reps = 3;
  record.provenance.bench_days = 0.25;
  record.environment.cpu_features = "avx2 fma";
  record.environment.hardware_concurrency = 4;
  record.scale = {{"rows", 100.0}, {"ranks", 12.0}};
  benchstat::Case hot("hot", {benchstat::make_metric("seconds", "s", true,
                                                     true, {1.0, 1.1, 0.9})});
  hot.resources.sampled = true;
  hot.resources.rss_series = {{0, 1000}, {25, 2000}};
  record.cases.push_back(std::move(hot));
  record.checks.push_back({"bit_identical", true});
  record.resources.alloc_count = 7;
  record.telemetry_json = "{\"counters\": {\"nnls.solves\": 12}}";
  telemetry::StringSink sink;
  benchstat::write_record(sink, record);
  return sink.str();
}

/// A profile snapshot with a three-level call tree and every section.
std::string valid_snapshot_json() {
  telemetry::Snapshot snapshot;
  snapshot.counters = {{"nnls.solves", 12}};
  snapshot.gauges = {{"nmf.alpha", 0.25}};
  snapshot.span_stats = {{"train", 1, 5000, 5000, 5000, 4000}};
  snapshot.path_stats = {{"train", 1, 5000, 5000, 5000, 4000},
                         {"train/nmf", 3, 3000, 500, 2000, 3000},
                         {"train/nmf/nnls", 9, 900, 50, 200, 800}};
  telemetry::StringSink sink;
  telemetry::write_json(sink, snapshot);
  return sink.str();
}

std::string valid_sarif_json() {
  return lint::to_sarif({{"src/core/a.cpp", 7, "naked-new", "new \"x\""},
                         {"src/nmf/b.cpp", 3, "float-in-numeric", "f\tl"}});
}

void mutate_json(const std::string& base, std::uint64_t seed) {
  ASSERT_LT(structured_rejections(base), 4) << "no reader accepts the base";
  std::mt19937_64 rng(seed);
  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    (void)structured_rejections(mutate(base, rng));
  }
}

TEST(CsvFuzz, MutatedBenchRecordsNeverCrash) {
  mutate_json(valid_record_json(), 0xBE7Cu);
}

TEST(CsvFuzz, MutatedProfileSnapshotsNeverCrash) {
  mutate_json(valid_snapshot_json(), 0x5FA9u);
}

TEST(CsvFuzz, MutatedSarifLogsNeverCrash) {
  mutate_json(valid_sarif_json(), 0x5A21u);
}

}  // namespace
}  // namespace vn2::trace
