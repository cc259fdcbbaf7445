// vn2_perfbench — the three VN2 user flows the repository benchmark times.
//
//   vn2_perfbench prepare <workload> --seed S --dir D [--quick]
//   vn2_perfbench flow    <workload> --seed S --dir D [--trace] [--quick]
//   vn2_perfbench env
//
// Workloads: citysee-simulate, citysee-train, citysee-diagnose.
//
// `prepare` is the untimed set-up: from seeded scenarios it writes the
// files the flow consumes (and, for citysee-simulate, the reference trace
// the flow's output must reproduce). `flow` runs one user flow in this
// fresh process, through the public library calls `vn2 simulate`,
// `vn2 train` and `vn2 diagnose` make, then runs the flow's independent
// checks and prints one JSON line. Every figure of the timed flow (wall,
// process CPU, peak RSS) is taken before the checks start. `--trace`
// keeps telemetry collection on and adds the per-layer figures.
//
// perfbench/run.py drives both commands; README.md documents the sizes,
// the metrics and what each per-layer figure is expected to move.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "core/vn2.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/csv.hpp"
#include "trace/trace.hpp"

#ifndef VN2_PERFBENCH_BUILD_TYPE
#define VN2_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vn2;
using Clock = std::chrono::steady_clock;

/// Thread budget of a workload's flows and set-up. Fixed here, not read
/// from the host, so runs on hosts of different sizes do the same work;
/// README.md records it. citysee-train leaves one of 4 cores idle: its NMF
/// runs thousands of fine-grained parallel regions per flow, and with all
/// 4 vCPUs of a shared host busy, one preempted thread stalls a region's
/// barrier; the flow's wall time on one input then spread over 1.8–2.7 s
/// (block medians 1.81–2.27 s) against 2.58–2.77 s at 3 threads.
std::size_t thread_budget(const std::string& workload) {
  return workload == "citysee-train" ? 3 : 4;
}

/// Input sizes. `kFull` is what the benchmark measures; `kQuick` runs the
/// same flows and checks in seconds (run.py --quick).
struct Sizes {
  std::size_t nodes;
  double area_m;                   ///< Side of the square deployment area.
  double simulate_days;            ///< citysee-simulate: simulated span.
  double simulate_hazards_per_day; ///< citysee-simulate: faults per day.
  double history_days;             ///< Training history (train, diagnose).
  double history_hazards_per_day;  ///< Training history: faults per day.
  std::size_t history_snapshots;   ///< citysee-train: first N reports kept.
  std::size_t train_exceptions;    ///< citysee-train: NMF input rows.
  double fresh_days;               ///< citysee-diagnose: simulated span.
  std::size_t fresh_snapshots;     ///< ... of which the first N are kept.
  double fresh_hazards_per_day;    ///< citysee-diagnose: faults per day.
  std::size_t diagnose_rank;       ///< Fixed rank of the diagnose model.
  std::size_t identity_sample;     ///< States in the thread-identity sample.
};
constexpr Sizes kFull{.nodes = 286,
                      .area_m = 500.0,
                      .simulate_days = 0.5,
                      .simulate_hazards_per_day = 12.0,
                      .history_days = 0.5,
                      .history_hazards_per_day = 48.0,
                      .history_snapshots = 15000,
                      .train_exceptions = 600,
                      .fresh_days = 1.5,
                      .fresh_snapshots = 45000,
                      .fresh_hazards_per_day = 48.0,
                      .diagnose_rank = 20,
                      .identity_sample = 4096};
constexpr Sizes kQuick{.nodes = 80,
                       .area_m = 265.0,  // kFull's node density.
                       .simulate_days = 0.125,
                       .simulate_hazards_per_day = 12.0,
                       .history_days = 0.25,
                       .history_hazards_per_day = 48.0,
                       .history_snapshots = 1500,
                       .train_exceptions = 60,
                       .fresh_days = 0.125,
                       .fresh_snapshots = 1000,
                       .fresh_hazards_per_day = 48.0,
                       .diagnose_rank = 10,
                       .identity_sample = 256};

/// Candidate ranks of core::train's automatic selection (its default).
std::vector<std::size_t> candidate_ranks() {
  std::vector<std::size_t> ranks;
  for (std::size_t r = 5; r <= 40; r += 5) ranks.push_back(r);
  return ranks;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t process_cpu_ns() {
  return telemetry::sample_resources().cpu_total_ns();
}

// ---------------------------------------------------------------------------
// Output: a flat JSON object written by hand (keys are fixed identifiers).

class JsonObject {
 public:
  void number(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value))
      std::snprintf(buf, sizeof buf, "%.17g", value);
    else
      std::snprintf(buf, sizeof buf, "null");
    add(key, buf);
  }
  void boolean(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }
  void string(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    add(key, quoted + "\"");
  }
  void object(const std::string& key, const JsonObject& value) {
    add(key, value.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Timed public calls: each flow step runs through Calls::time, which keeps
// per-step wall seconds; their sum against the flow's wall time is the
// benchmark's unattributed time.

class Calls {
 public:
  template <class F>
  auto time(const std::string& name, F&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    seconds_[name] += seconds_between(start, Clock::now());
    return result;
  }
  [[nodiscard]] double seconds(const std::string& name) const {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const auto& [name, s] : seconds_) sum += s;
    return sum;
  }

 private:
  std::map<std::string, double> seconds_;
};

/// Named pass/fail outcomes of a flow's independent checks.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail) {
    results_.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "check %s FAILED: %s\n", name.c_str(),
                          detail.c_str());
  }
  [[nodiscard]] std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        results_.begin(), results_.end(),
        [](const auto& result) { return !result.second; }));
  }
  [[nodiscard]] JsonObject json() const {
    JsonObject out;
    for (const auto& [name, ok] : results_) out.boolean(name, ok);
    return out;
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// FNV-1a over a byte range: a digest run.py compares across the flows of
/// one run (every flow of a run must produce the same outputs).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 14695981039346656037ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double megabytes(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

// ---------------------------------------------------------------------------
// Scenarios and set-up.

struct Options {
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  bool quick = false;
  bool trace = false;
  bool check = false;  ///< Run the independent checks after the flow.
  std::size_t threads = 1;  ///< thread_budget(workload).

  [[nodiscard]] const Sizes& sizes() const { return quick ? kQuick : kFull; }
  [[nodiscard]] std::string path(const char* file) const {
    return dir + "/" + file;
  }
};

/// Seed of the deployment: its node layout and its radio/MAC random
/// stream are the same in every run, as a real deployment stays put; the
/// run's seed draws the hazard schedule. (Drawing layout or radio stream
/// per seed moved the simulator's event count by ±15 % and the exception
/// count by 2× between seeds, which swamped any change in the code.)
constexpr std::uint64_t kDeploymentSeed = 20110801;

/// Seed of the history citysee-diagnose's model is trained on: one model
/// of the deployment, used to diagnose every run's fresh trace.
constexpr std::uint64_t kModelHistorySeed = 20110802;

/// A CitySee field scenario: hazards drawn from `seed`, on the deployment.
scenario::ScenarioBundle citysee(const Sizes& sizes, double days,
                                 double hazards_per_day, std::uint64_t seed) {
  scenario::CityseeParams params;
  params.node_count = sizes.nodes;
  params.area_m = sizes.area_m;
  params.days = days;
  params.hazards_per_day = hazards_per_day;
  params.seed = seed;
  scenario::ScenarioBundle bundle = scenario::citysee_field(params);
  params.seed = kDeploymentSeed;
  params.background_hazards = false;
  const scenario::ScenarioBundle deployment = scenario::citysee_field(params);
  bundle.config.positions = deployment.config.positions;
  bundle.config.seed = deployment.config.seed;
  return bundle;
}

trace::Trace simulate_trace(const scenario::ScenarioBundle& bundle,
                            wsn::SimulationResult* keep = nullptr) {
  wsn::Simulator sim = bundle.make_simulator();
  wsn::SimulationResult result = sim.run();
  trace::Trace log = trace::build_trace(result);
  if (keep) *keep = std::move(result);
  return log;
}

void write_faults(const std::string& path,
                  const std::vector<wsn::InjectedFault>& faults) {
  std::ofstream file(path);
  file.precision(17);
  for (const wsn::InjectedFault& fault : faults)
    file << static_cast<int>(fault.command.type) << ' '
         << static_cast<int>(fault.hazard) << ' ' << fault.command.start << ' '
         << fault.command.end << '\n';
  if (!file) throw std::runtime_error("cannot write " + path);
}

/// Reads back the fields of the ground truth core::evaluate uses.
std::vector<wsn::InjectedFault> read_faults(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::vector<wsn::InjectedFault> faults;
  int type = 0, hazard = 0;
  double start = 0.0, end = 0.0;
  while (file >> type >> hazard >> start >> end) {
    wsn::InjectedFault fault;
    fault.command.type = static_cast<wsn::FaultCommand::Type>(type);
    fault.command.start = start;
    fault.command.end = end;
    fault.hazard = static_cast<metrics::HazardEvent>(hazard);
    faults.push_back(fault);
  }
  return faults;
}

/// The ε-rule threshold (ratio to the largest score) that flags exactly
/// `count` of `states` as exceptions, computed as core::train scores them.
double threshold_for(const linalg::Matrix& states, std::size_t count) {
  const core::TrainingOptions defaults;
  const core::StateEncoder encoder =
      core::StateEncoder::fit(states, defaults.clip_sigma);
  std::vector<double> scores(states.rows());
  for (std::size_t i = 0; i < states.rows(); ++i)
    scores[i] = encoder.deviation_score(states.row_vector(i));
  if (scores.size() < count)
    throw std::runtime_error("history has fewer states than exceptions wanted");
  std::sort(scores.begin(), scores.end(), std::greater<>());
  return scores[count - 1] / scores.front();
}

/// Drops every snapshot that arrived after the first `count` (by arrival
/// time); returns the arrival time of the last one kept.
double keep_first_snapshots(trace::Trace& log, std::size_t count) {
  std::vector<double> times;
  for (const trace::NodeSeries& series : log.nodes)
    for (const trace::Snapshot& snap : series.snapshots)
      times.push_back(snap.time);
  if (times.empty()) return 0.0;
  count = std::clamp<std::size_t>(count, 1, times.size());
  std::nth_element(times.begin(), times.begin() + (count - 1), times.end());
  const double cutoff = times[count - 1];
  for (trace::NodeSeries& series : log.nodes)
    std::erase_if(series.snapshots, [&](const trace::Snapshot& snap) {
      return snap.time > cutoff;
    });
  log.duration = std::min(log.duration, cutoff);
  return cutoff;
}

int prepare(const Options& o) {
  const Sizes& sizes = o.sizes();
  if (o.workload == "citysee-simulate") {
    // The reference output every timed flow must reproduce byte for byte.
    trace::write_trace_csv_file(
        o.path("reference.csv"),
        simulate_trace(citysee(sizes, sizes.simulate_days,
                               sizes.simulate_hazards_per_day, o.seed)));
  } else if (o.workload == "citysee-train") {
    trace::Trace history =
        simulate_trace(citysee(sizes, sizes.history_days,
                               sizes.history_hazards_per_day, o.seed));
    keep_first_snapshots(history, sizes.history_snapshots);
    trace::write_trace_csv_file(o.path("history.csv"), history);
    // The operator's --threshold: the ratio that keeps train_exceptions
    // states, so every seed factorizes a matrix of the same size.
    std::ofstream file(o.path("threshold.txt"));
    file.precision(17);
    file << threshold_for(
                trace::states_matrix(trace::extract_states(history)),
                sizes.train_exceptions)
         << '\n';
    if (!file) throw std::runtime_error("cannot write threshold.txt");
  } else {
    const trace::Trace history =
        simulate_trace(citysee(sizes, sizes.history_days,
                               sizes.history_hazards_per_day,
                               kModelHistorySeed));
    core::TrainingOptions training;
    training.rank = sizes.diagnose_rank;
    core::train(trace::states_matrix(trace::extract_states(history)), training)
        .model.save(o.path("model.vn2"));

    // The fresh trace is the first fresh_snapshots reports the sink
    // assembled, so every seed diagnoses about the same number of states;
    // the ground truth keeps the faults that began by then.
    wsn::SimulationResult result;
    trace::Trace fresh =
        simulate_trace(citysee(sizes, sizes.fresh_days,
                               sizes.fresh_hazards_per_day, o.seed),
                       &result);
    const double cutoff = keep_first_snapshots(fresh, sizes.fresh_snapshots);
    trace::write_trace_csv_file(o.path("fresh.csv"), fresh);
    std::vector<wsn::InjectedFault> truth;
    for (const wsn::InjectedFault& fault : result.ground_truth)
      if (fault.command.start <= cutoff) truth.push_back(fault);
    write_faults(o.path("faults.txt"), truth);
  }
  std::printf("{\"prepared\": true}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Flow results.

struct Flow {
  std::size_t threads = 1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  Calls calls;
  Checks checks;
  /// Operations a flow runs besides itself, after its timed part and in
  /// every flow; run.py counts each one as attempted.
  Checks operations;
  JsonObject report;  ///< Workload facts (sizes, rank, quality).
  /// Per-layer figures the flow itself measures (the rest come from the
  /// telemetry snapshot; see layer_figures).
  std::map<std::string, double> layers;
  telemetry::Snapshot snapshot;  ///< Taken at the end of the timed flow.
  std::string digest;  ///< Digest of the flow's outputs.
};

/// Marks the end of the timed flow: wall, process CPU, peak RSS and the
/// telemetry snapshot are read here, before any check runs; collection
/// stops so the checks leave no trace in the counters.
void close_window(Flow& flow, Clock::time_point start, std::uint64_t cpu0) {
  flow.wall_s = seconds_between(start, Clock::now());
  const telemetry::ResourceUsage usage = telemetry::sample_resources();
  flow.cpu_s = static_cast<double>(usage.cpu_total_ns() - cpu0) / 1e9;
  flow.peak_rss_mb = megabytes(usage.peak_rss_bytes);
  if (telemetry::collecting())
    flow.snapshot = telemetry::Registry::global().snapshot();
  telemetry::set_collecting(false);
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<std::uint64_t>(file.tellg()) : 0;
}

bool same_trace(const trace::Trace& written, const trace::Trace& read,
                std::string& why) {
  // The CSV carries node id, epoch, time and the 43 values of every
  // snapshot; nodes with no snapshot leave no row.
  std::vector<const trace::NodeSeries*> expected;
  for (const trace::NodeSeries& series : written.nodes)
    if (!series.snapshots.empty()) expected.push_back(&series);
  std::sort(expected.begin(), expected.end(),
            [](const auto* a, const auto* b) { return a->node < b->node; });
  if (expected.size() != read.nodes.size()) {
    why = "node count differs";
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const trace::NodeSeries& a = *expected[i];
    const trace::NodeSeries& b = read.nodes[i];
    if (a.node != b.node || a.snapshots.size() != b.snapshots.size()) {
      why = "series of node " + std::to_string(a.node) + " differs";
      return false;
    }
    for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
      const trace::Snapshot& x = a.snapshots[s];
      const trace::Snapshot& y = b.snapshots[s];
      if (x.epoch != y.epoch || x.time != y.time || x.values != y.values) {
        why = "snapshot " + std::to_string(s) + " of node " +
              std::to_string(a.node) + " differs";
        return false;
      }
    }
  }
  return true;
}

/// Share of originated self-reports that reached the sink: distinct
/// (origin, epoch, type) keys of the sink log that were originated, over
/// the distinct keys originated. Loop duplicates of one report count once.
double distinct_report_prr(const wsn::SimulationResult& result) {
  std::set<std::tuple<wsn::NodeId, std::uint64_t, int>> originated, received;
  for (const wsn::Origination& origination : result.originations)
    originated.emplace(origination.origin, origination.epoch,
                       static_cast<int>(origination.type));
  for (const wsn::SinkPacketRecord& r : result.sink_log) {
    auto key = std::make_tuple(r.origin, r.epoch, static_cast<int>(r.type));
    if (originated.count(key)) received.insert(key);
  }
  return static_cast<double>(received.size()) /
         static_cast<double>(std::max<std::size_t>(originated.size(), 1));
}

/// Simulated span of the PRR invariant's input.
constexpr double kPrrInvariantDays = 1.0 / 24.0;

/// The PRR invariant, an operation of every citysee-simulate flow, run
/// after the timed flow on an input --seed does not change (the
/// deployment's own hazard draw over kPrrInvariantDays): trace::overall_prr
/// must equal the recounted share of self-reports delivered and lie in
/// (0, 1]. Its input is fixed, so it holds in every flow or in none.
bool prr_invariant(const Sizes& sizes, std::string& why) {
  wsn::Simulator sim =
      citysee(sizes, kPrrInvariantDays, sizes.simulate_hazards_per_day,
              kDeploymentSeed)
          .make_simulator();
  const wsn::SimulationResult result = sim.run();
  const double reported = trace::overall_prr(result);
  const double recounted = distinct_report_prr(result);
  why = format("overall_prr %.17g, delivered share %.17g", reported,
               recounted);
  return reported == recounted && reported > 0.0 && reported <= 1.0;
}

// citysee-simulate: scenario -> Simulator::run -> build_trace -> CSV.
void flow_simulate(const Options& o, Flow& flow) {
  const Sizes& sizes = o.sizes();
  const std::string out = o.path("flow.csv");
  std::string why;
  const scenario::ScenarioBundle bundle = citysee(
      sizes, sizes.simulate_days, sizes.simulate_hazards_per_day, o.seed);

  const Clock::time_point start = Clock::now();
  const std::uint64_t cpu0 = process_cpu_ns();
  wsn::Simulator sim = flow.calls.time(
      "wsn.make_simulator", [&] { return bundle.make_simulator(); });
  const wsn::SimulationResult result =
      flow.calls.time("wsn.run", [&] { return sim.run(); });
  const trace::Trace log =
      flow.calls.time("trace.build", [&] { return trace::build_trace(result); });
  flow.calls.time("trace.write", [&] {
    trace::write_trace_csv_file(out, log);
    return 0;
  });
  close_window(flow, start, cpu0);

  const std::string bytes = read_file(out);
  flow.digest = hex(fnv1a(bytes.data(), bytes.size()));
  const double reported = trace::overall_prr(result);
  flow.operations.expect("prr_invariant", prr_invariant(sizes, why), why);
  flow.report.number("nodes", static_cast<double>(sizes.nodes));
  flow.report.number("days", sizes.simulate_days);
  flow.report.number("snapshots", static_cast<double>(log.total_snapshots()));
  flow.report.number("prr", reported);
  flow.report.number("prr_distinct_reports", distinct_report_prr(result));
  flow.layers["trace.csv_mb"] = megabytes(bytes.size());
  if (!o.check) return;

  const bool roundtrip = same_trace(log, trace::read_trace_csv_file(out), why);
  flow.checks.expect("csv_reads_back_equal", roundtrip, why);

  flow.checks.expect("matches_reference_trace",
                     bytes == read_file(o.path("reference.csv")),
                     "flow output differs from the set-up's reference run");
}

// citysee-train: CSV -> states -> core::train (rank sweep) -> model file.
void flow_train(const Options& o, Flow& flow) {
  const std::string in = o.path("history.csv");
  const std::string out = o.path("model.vn2");
  core::TrainingOptions options;  // rank 0: automatic selection.
  std::ifstream threshold(o.path("threshold.txt"));
  if (!(threshold >> options.exception_threshold))
    throw std::runtime_error("cannot read threshold.txt");

  const Clock::time_point start = Clock::now();
  const std::uint64_t cpu0 = process_cpu_ns();
  // As `vn2 train` does: the trace is dropped once its states are out, and
  // the states stay alive through training.
  std::vector<trace::StateVector> extracted;
  {
    const trace::Trace log = flow.calls.time(
        "trace.read", [&] { return trace::read_trace_csv_file(in); });
    extracted = flow.calls.time("trace.extract",
                                [&] { return trace::extract_states(log); });
  }
  const linalg::Matrix states = flow.calls.time(
      "trace.extract", [&] { return trace::states_matrix(extracted); });
  const core::TrainingReport report =
      flow.calls.time("core.train", [&] { return core::train(states, options); });
  const core::Vn2Tool tool = flow.calls.time(
      "core.interpret", [&] { return core::Vn2Tool::from_model(report.model); });
  flow.calls.time("core.model_io", [&] {
    tool.model().save(out);
    return 0;
  });
  close_window(flow, start, cpu0);

  const std::string bytes = read_file(out);
  flow.digest = hex(fnv1a(bytes.data(), bytes.size()));
  flow.report.number("states", static_cast<double>(states.rows()));
  flow.report.number("exception_states",
                     static_cast<double>(report.exception_states));
  flow.report.number("rank", static_cast<double>(report.chosen_rank));
  flow.report.number("max_score", report.detection.max_score);
  flow.layers["core.exception_states"] =
      static_cast<double>(report.exception_states);
  flow.layers["core.rank"] = static_cast<double>(report.chosen_rank);
  flow.layers["trace.states"] = static_cast<double>(states.rows());
  flow.layers["trace.csv_mb"] = megabytes(file_bytes(in));
  if (!o.check) return;

  const linalg::Matrix& w = report.nmf.w;
  const linalg::Matrix& psi = report.model.psi();
  auto finite_nonnegative = [](const linalg::Matrix& m) {
    return std::all_of(m.data(), m.data() + m.size(),
                       [](double v) { return std::isfinite(v) && v >= 0.0; });
  };
  flow.checks.expect("factors_finite_nonnegative",
                     finite_nonnegative(w) && finite_nonnegative(psi) &&
                         psi == report.nmf.psi,
                     "W or psi has a negative or non-finite entry");
  const std::vector<std::size_t> ranks = candidate_ranks();
  const bool rank_ok =
      psi.cols() == core::kEncodedCount && psi.rows() == report.chosen_rank &&
      std::find(ranks.begin(), ranks.end(), psi.rows()) != ranks.end();
  flow.checks.expect("psi_shape", rank_ok,
                     format("psi is %.0f x %.0f", psi.rows(), psi.cols()));

  // Exception count from the returned scores and the ε rule.
  const linalg::Vector& scores = report.detection.scores;
  double max_score = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i)
    max_score = std::max(max_score, scores[i]);
  std::vector<std::size_t> exceptions;
  for (std::size_t i = 0; i < scores.size(); ++i)
    if (max_score > 0.0 &&
        scores[i] / max_score >= options.exception_threshold)
      exceptions.push_back(i);
  flow.checks.expect(
      "exception_count",
      exceptions.size() == report.exception_states &&
          exceptions == report.detection.exception_rows &&
          max_score == report.detection.max_score,
      format("recomputed %.0f, reported %.0f",
             static_cast<double>(exceptions.size()),
             static_cast<double>(report.exception_states)));

  // Relative reconstruction error ‖E − WΨ‖_F / ‖E‖_F from the factors,
  // with E the encoded exception states.
  double err2 = 0.0, norm2 = 0.0;
  bool shapes = w.rows() == exceptions.size() && w.cols() == psi.rows();
  for (std::size_t i = 0; shapes && i < exceptions.size(); ++i) {
    const linalg::Vector e =
        report.model.encoder().encode(states.row_vector(exceptions[i]));
    for (std::size_t c = 0; c < psi.cols(); ++c) {
      double approx = 0.0;
      for (std::size_t r = 0; r < psi.rows(); ++r) approx += w(i, r) * psi(r, c);
      err2 += (e[c] - approx) * (e[c] - approx);
      norm2 += e[c] * e[c];
    }
  }
  const double rel_error = norm2 > 0.0 ? std::sqrt(err2 / norm2) : 1.0;
  flow.checks.expect("reconstruction_error_below_1", shapes && rel_error < 1.0,
                     format("relative error %.6g", rel_error));

  flow.checks.expect("model_loads_back_equal",
                     core::Vn2Model::load(out) == report.model,
                     "saved model does not load back equal");
  flow.report.number("relative_error", rel_error);
}

/// KKT conditions of argmin ½‖b − wΨ‖² s.t. w ≥ 0 (NNLS with A = Ψᵀ) at
/// the reported w, in plain loops: w ≥ 0, every gradient entry ≥ −tol, and
/// |gradient| ≤ tol where w > 0. Returns the largest violation relative to
/// the problem's scale 1 + ‖b‖·max_k ‖Ψ_k‖; `residual_error` gets the
/// relative gap between the reported residual and ‖b − wΨ‖.
double kkt_violation(const linalg::Matrix& psi, double psi_row_max,
                     const linalg::Vector& b, const core::Diagnosis& d,
                     double& residual_error) {
  const std::size_t r = psi.rows(), m = psi.cols();
  std::vector<double> res(m);
  double res2 = 0.0, b2 = 0.0;
  for (std::size_t c = 0; c < m; ++c) {
    double fit = 0.0;
    for (std::size_t k = 0; k < r; ++k) fit += d.weights[k] * psi(k, c);
    res[c] = b[c] - fit;
    res2 += res[c] * res[c];
    b2 += b[c] * b[c];
  }
  residual_error =
      std::abs(d.residual - std::sqrt(res2)) / (1.0 + std::sqrt(res2));
  const double scale = 1.0 + std::sqrt(b2) * psi_row_max;
  double worst = 0.0;
  for (std::size_t k = 0; k < r; ++k) {
    const double w = d.weights[k];
    if (!(w >= 0.0)) return INFINITY;
    // Gradient of ½‖Aw − b‖²: Aᵀ(Aw − b) = −Ψ·res.
    double grad = 0.0;
    for (std::size_t c = 0; c < m; ++c) grad -= psi(k, c) * res[c];
    worst = std::max(worst, (w > 0.0 ? std::abs(grad) : -grad) / scale);
  }
  return worst;
}

bool same_weights(const core::Diagnosis& a, const core::Diagnosis& b) {
  return a.weights.size() == b.weights.size() &&
         std::memcmp(a.weights.data(), b.weights.data(),
                     a.weights.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.residual, &b.residual, sizeof(double)) == 0;
}

// citysee-diagnose: model file + CSV -> diagnose_states -> evaluate.
void flow_diagnose(const Options& o, Flow& flow) {
  const Sizes& sizes = o.sizes();
  const std::vector<wsn::InjectedFault> truth =
      read_faults(o.path("faults.txt"));
  const std::string model_path = o.path("model.vn2");
  const std::string in = o.path("fresh.csv");

  const Clock::time_point start = Clock::now();
  const std::uint64_t cpu0 = process_cpu_ns();
  core::Vn2Model loaded = flow.calls.time(
      "core.model_io", [&] { return core::Vn2Model::load(model_path); });
  const core::Vn2Tool tool = flow.calls.time("core.interpret", [&] {
    return core::Vn2Tool::from_model(std::move(loaded));
  });
  std::vector<trace::StateVector> states;
  linalg::Matrix raw;
  {
    const trace::Trace log = flow.calls.time(
        "trace.read", [&] { return trace::read_trace_csv_file(in); });
    states = flow.calls.time("trace.extract",
                             [&] { return trace::extract_states(log); });
    raw = flow.calls.time("trace.extract",
                          [&] { return trace::states_matrix(states); });
  }
  const std::uint64_t diagnose_cpu0 = process_cpu_ns();
  const std::vector<core::Diagnosis> diagnoses = flow.calls.time(
      "core.diagnose", [&] { return tool.diagnose_states(raw); });
  const std::uint64_t diagnose_cpu = process_cpu_ns() - diagnose_cpu0;
  const core::EvalReport eval = flow.calls.time("core.evaluate", [&] {
    return core::evaluate(
        core::predict_hazards(states, diagnoses, tool.interpretations()),
        truth);
  });
  close_window(flow, start, cpu0);

  const linalg::Matrix& psi = tool.model().psi();
  std::uint64_t digest = 14695981039346656037ULL;
  std::size_t exceptions = 0;
  for (const core::Diagnosis& d : diagnoses) {
    digest = fnv1a(d.weights.data(), d.weights.size() * sizeof(double), digest);
    digest = fnv1a(&d.residual, sizeof d.residual, digest);
    if (d.is_exception) ++exceptions;
  }
  flow.digest = hex(digest);
  flow.report.number("states", static_cast<double>(diagnoses.size()));
  flow.report.number("injected_faults", static_cast<double>(truth.size()));
  flow.report.number("rank", static_cast<double>(psi.rows()));
  flow.report.number("macro_recall", eval.macro_recall);
  flow.report.number("macro_precision", eval.macro_precision);
  flow.layers["core.exception_states"] = static_cast<double>(exceptions);
  flow.layers["core.rank"] = static_cast<double>(psi.rows());
  flow.layers["core.macro_recall"] = eval.macro_recall;
  flow.layers["core.macro_precision"] = eval.macro_precision;
  flow.layers["core.diagnose_cpu_us_per_state"] =
      diagnoses.empty() ? 0.0
                        : static_cast<double>(diagnose_cpu) / 1e3 /
                              static_cast<double>(diagnoses.size());
  flow.layers["trace.states"] = static_cast<double>(states.size());
  flow.layers["trace.csv_mb"] = megabytes(file_bytes(in));
  if (!o.check) return;

  // NNLS optimality of every diagnosis, recomputed from Ψ and the encoded
  // state. The solver stops at an absolute gradient tolerance of 1e-10 and
  // solves the passive set with a 1e-12 relative ridge; 1e-8 of the
  // problem's scale leaves room for rounding and nothing else.
  constexpr double kKktTolerance = 1e-8;
  double psi_row_max = 0.0;
  for (std::size_t k = 0; k < psi.rows(); ++k) {
    double row2 = 0.0;
    for (std::size_t c = 0; c < psi.cols(); ++c) row2 += psi(k, c) * psi(k, c);
    psi_row_max = std::max(psi_row_max, std::sqrt(row2));
  }
  double worst_kkt = 0.0, worst_residual = 0.0;
  std::size_t kkt_failures = 0, residual_failures = 0;
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    const core::Diagnosis& d = diagnoses[i];
    double residual_error = 0.0;
    const double violation =
        d.weights.size() == psi.rows()
            ? kkt_violation(psi, psi_row_max,
                            tool.model().encoder().encode(raw.row_vector(i)),
                            d, residual_error)
            : INFINITY;
    worst_kkt = std::max(worst_kkt, violation);
    worst_residual = std::max(worst_residual, residual_error);
    if (!(violation <= kKktTolerance)) ++kkt_failures;
    if (!(residual_error <= 1e-9)) ++residual_failures;
  }
  flow.checks.expect("nnls_kkt", kkt_failures == 0 && !diagnoses.empty(),
                     format("%.0f states violate KKT (worst %.3g)",
                            static_cast<double>(kkt_failures), worst_kkt));
  flow.checks.expect("nnls_residual", residual_failures == 0,
                     format("%.0f reported residuals differ (worst %.3g)",
                            static_cast<double>(residual_failures),
                            worst_residual));
  flow.report.number("kkt_worst_violation", worst_kkt);

  // Thread identity: a seeded sample diagnosed at 1 thread and at the
  // budget must give bit-identical weights (and match the timed pass).
  // The ratio of the two pass times is the reference parallel speedup.
  std::vector<std::size_t> index(raw.rows());
  std::iota(index.begin(), index.end(), std::size_t{0});
  std::mt19937_64 rng(o.seed ^ 0x1de7717eULL);
  const std::size_t m = std::min(sizes.identity_sample, index.size());
  for (std::size_t j = 0; j < m; ++j) {
    std::uniform_int_distribution<std::size_t> pick(j, index.size() - 1);
    std::swap(index[j], index[pick(rng)]);
  }
  index.resize(m);
  std::sort(index.begin(), index.end());
  linalg::Matrix sample(m, raw.cols());
  for (std::size_t j = 0; j < m; ++j) sample.set_row(j, raw.row_vector(index[j]));
  core::set_num_threads(1);
  const Clock::time_point serial_start = Clock::now();
  const std::vector<core::Diagnosis> serial = tool.diagnose_states(sample);
  const double serial_s = seconds_between(serial_start, Clock::now());
  core::set_num_threads(o.threads);
  (void)core::global_pool();
  const Clock::time_point parallel_start = Clock::now();
  const std::vector<core::Diagnosis> parallel = tool.diagnose_states(sample);
  const double parallel_s = seconds_between(parallel_start, Clock::now());
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < m; ++j)
    if (!same_weights(serial[j], parallel[j]) ||
        !same_weights(parallel[j], diagnoses[index[j]]))
      ++mismatches;
  flow.checks.expect("thread_identity", mismatches == 0 && m > 0,
                     format("%.0f of %.0f sampled states differ",
                            static_cast<double>(mismatches),
                            static_cast<double>(m)));
  flow.report.number("identity_sample", static_cast<double>(m));
  flow.layers["parallel.diagnose_speedup"] =
      parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer figures of a traced flow: the timed calls, the telemetry
// counters and spans, and the figures the flow measured itself. Every
// workload reports every figure; a layer a workload does not use reads 0.
// parallel.diagnose_speedup is present only when the checks ran.

double span_seconds(const std::vector<telemetry::SpanStats>& stats,
                    const std::string& name, bool cpu = false) {
  for (const telemetry::SpanStats& s : stats)
    if (s.name == name)
      return static_cast<double>(cpu ? s.total_cpu_ns : s.total_ns) / 1e9;
  return 0.0;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

JsonObject layer_figures(const Flow& flow) {
  const telemetry::Snapshot& snap = flow.snapshot;
  const Calls& calls = flow.calls;
  auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  std::map<std::string, double> f;
  for (const char* key :
       {"core.exception_states", "core.rank", "core.macro_recall",
        "core.macro_precision", "core.diagnose_cpu_us_per_state",
        "trace.states", "trace.csv_mb"})
    f[key] = 0.0;
  for (const auto& [key, value] : flow.layers) f[key] = value;

  f["wsn.make_simulator_s"] = calls.seconds("wsn.make_simulator");
  f["wsn.run_s"] = calls.seconds("wsn.run");
  f["wsn.events"] = counter("sim.events");
  f["wsn.events_per_s"] = ratio(f["wsn.events"], f["wsn.run_s"]);
  f["wsn.packets_tx"] = counter("sim.packets.tx");

  f["trace.build_s"] = calls.seconds("trace.build");
  f["trace.write_s"] = calls.seconds("trace.write");
  f["trace.read_s"] = calls.seconds("trace.read");
  f["trace.extract_s"] = calls.seconds("trace.extract");
  f["trace.write_mb_per_s"] = ratio(f["trace.write_s"] > 0.0 ? f["trace.csv_mb"] : 0.0,
                                    f["trace.write_s"]);
  f["trace.read_mb_per_s"] = ratio(f["trace.read_s"] > 0.0 ? f["trace.csv_mb"] : 0.0,
                                   f["trace.read_s"]);

  f["core.train_s"] = calls.seconds("core.train");
  f["core.interpret_s"] = calls.seconds("core.interpret");
  f["core.model_io_s"] = calls.seconds("core.model_io");
  f["core.diagnose_s"] = calls.seconds("core.diagnose");
  f["core.evaluate_s"] = calls.seconds("core.evaluate");
  f["core.detect_exceptions_s"] =
      span_seconds(snap.span_stats, "vn2.detect_exceptions");
  // Training time no NMF span covers: encoder fit, encoding and the ε rule.
  f["core.train_outside_nmf_s"] = std::max(
      0.0, span_seconds(snap.span_stats, "vn2.train") -
               span_seconds(snap.path_stats, "vn2.train/nmf.rank_sweep") -
               span_seconds(snap.path_stats, "vn2.train/nmf.factorize"));

  f["nmf.rank_sweep_s"] = span_seconds(snap.span_stats, "nmf.rank_sweep");
  f["nmf.factorize_cpu_s"] =
      span_seconds(snap.span_stats, "nmf.factorize", /*cpu=*/true);
  f["nmf.factorizations"] = counter("nmf.factorizations");
  f["nmf.iterations"] = counter("nmf.iterations");
  f["nmf.cpu_us_per_iteration"] =
      ratio(f["nmf.factorize_cpu_s"] * 1e6, f["nmf.iterations"]);
  f["nmf.workspace_reallocs"] = counter("nmf.workspace.reallocs");
  f["nmf.rank_sweep_efficiency"] = ratio(
      span_seconds(snap.path_stats, "vn2.train/nmf.rank_sweep/nmf.factorize",
                   /*cpu=*/true),
      static_cast<double>(flow.threads) * f["nmf.rank_sweep_s"]);

  f["nnls.solves"] = counter("nnls.solves");
  f["nnls.pivots"] = counter("nnls.pivots");
  f["nnls.workspace_reallocs"] = counter("nnls.workspace.reallocs");
  f["nnls.workspace_alloc_mb"] = counter("nnls.workspace.alloc_bytes") / 1e6;

  f["parallel.regions"] = counter("parallel.regions");
  f["parallel.regions_inline"] = counter("parallel.regions_inline");
  f["parallel.tasks"] = counter("parallel.tasks");
  double busy_ns = 0.0;
  for (const auto& [name, histogram] : snap.histograms)
    if (name == "parallel.worker_busy_ns")
      busy_ns = static_cast<double>(histogram.sum);
  f["parallel.utilization"] =
      ratio(busy_ns / 1e9, static_cast<double>(flow.threads) * flow.wall_s);

  f["bench.unattributed_s"] = flow.wall_s - calls.total();

  JsonObject out;
  for (const auto& [key, value] : f) out.number(key, value);
  return out;
}

// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"citysee-simulate", "citysee-train",
                                  "citysee-diagnose"};

int run_flow(const Options& o) {
  telemetry::set_collecting(o.trace);

  Flow flow;
  flow.threads = o.threads;
  if (o.workload == kWorkloads[0])
    flow_simulate(o, flow);
  else if (o.workload == kWorkloads[1])
    flow_train(o, flow);
  else
    flow_diagnose(o, flow);

  JsonObject out;
  out.string("workload", o.workload);
  out.number("threads", static_cast<double>(o.threads));
  out.number("run_s", flow.wall_s);
  out.number("cpu_s", flow.cpu_s);
  out.number("peak_rss_mb", flow.peak_rss_mb);
  out.number("checks_failed", static_cast<double>(flow.checks.failed()));
  out.object("checks", flow.checks.json());
  out.object("operations", flow.operations.json());
  out.string("digest", flow.digest);
  out.object("report", flow.report);
  if (o.trace) out.object("layers", layer_figures(flow));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int print_env() {
  linalg::set_backend(*linalg::parse_backend("auto"));
  JsonObject out;
  out.string("linalg_backend", linalg::backend_name(linalg::backend()));
  out.string("cpu_features", linalg::cpu_features_summary());
  out.string("build_type", VN2_PERFBENCH_BUILD_TYPE);
  out.boolean("telemetry_compiled_in", telemetry::kCompiledIn);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vn2_perfbench prepare|flow <workload> --seed S --dir D "
               "[--quick] [--trace]\n"
               "       vn2_perfbench env\n"
               "workloads: citysee-simulate citysee-train citysee-diagnose\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "env") == 0) return print_env();
  if (argc < 3) return usage();
  const std::string command = argv[1];
  Options o;
  o.workload = argv[2];
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads))
    return usage();
  bool have_seed = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      o.seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      o.dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || o.dir.empty()) return usage();
  o.threads = thread_budget(o.workload);
  try {
    core::set_num_threads(o.threads);
    linalg::set_backend(*linalg::parse_backend("auto"));
    if (command == "prepare") return prepare(o);
    if (command == "flow") return run_flow(o);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vn2_perfbench %s %s: %s\n", command.c_str(),
                 o.workload.c_str(), error.what());
    return 1;
  }
  return usage();
}
