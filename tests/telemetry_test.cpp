// Tests for the telemetry subsystem: registry thread-safety, span nesting,
// every sink format parsing back through the JSON codec field by field,
// the runtime and compile-time switches, and an end-to-end pipeline run
// leaving nonzero counters in every instrumented family. All tests share
// the process-global registry, so each starts with reset().
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "json/json.hpp"
#include "linalg/nnls.hpp"
#include "linalg/random.hpp"
#include "nmf/nmf.hpp"
#include "scenario/scenario.hpp"
#include "support/synthetic.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/sink.hpp"
#include "trace/trace.hpp"

namespace vn2::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_collecting(true);
  }
  void TearDown() override {
    Registry::global().set_span_capacity(65536);
    Registry::global().reset();
    set_collecting(true);
  }
};

TEST_F(TelemetryTest, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100000;
  Counter& counter = Registry::global().counter("test.concurrent");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(TelemetryTest, MetricReferencesSurviveReset) {
  Counter& counter = Registry::global().counter("test.identity");
  counter.add(5);
  Registry::global().reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(2);
  EXPECT_EQ(&counter, &Registry::global().counter("test.identity"));
  EXPECT_EQ(Registry::global().snapshot().counter("test.identity"), 2u);
}

TEST_F(TelemetryTest, HistogramBucketsByBitWidth) {
  Histogram& h = Registry::global().histogram("test.hist");
  for (std::uint64_t sample : {0u, 1u, 2u, 3u, 4u, 7u, 8u}) h.record(sample);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(3), 2u);  // 4, 7
  EXPECT_EQ(h.bucket(4), 1u);  // 8
}

TEST_F(TelemetryTest, SpanNestingTracksDepth) {
  {
    ScopedSpan outer("test.outer");
    ScopedSpan inner("test.inner");
  }
  const Snapshot snapshot = Registry::global().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == "test.outer") outer = &span;
    if (span.name == "test.inner") inner = &span;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->thread, inner->thread);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->duration_ns, outer->duration_ns);
}

TEST_F(TelemetryTest, SpanCapacityDropsAreCounted) {
  Registry::global().set_span_capacity(4);
  for (int i = 0; i < 6; ++i) ScopedSpan span("test.capped");
  const Snapshot snapshot = Registry::global().snapshot();
  EXPECT_EQ(snapshot.spans.size(), 4u);
  EXPECT_EQ(snapshot.spans_dropped, 2u);
  // Aggregated stats still see every occurrence.
  ASSERT_EQ(snapshot.span_stats.size(), 1u);
  EXPECT_EQ(snapshot.span_stats[0].count, 6u);
}

TEST_F(TelemetryTest, JsonLinesRoundTrips) {
  Registry::global().counter("test.count").add(42);
  Registry::global().gauge("test.gauge").set(2.5);
  Histogram& h = Registry::global().histogram("test.hist");
  h.record(3);
  h.record(900);
  { ScopedSpan span("test.span"); }
  const Snapshot before = Registry::global().snapshot();
  // Every section holds the entries above, so no check below is vacuous.
  EXPECT_EQ(before.counter("test.count"), 42u);
  ASSERT_FALSE(before.gauges.empty());
  ASSERT_EQ(before.histograms.size(), 1u);
  EXPECT_EQ(before.histograms[0].second.sum, 903u);
  ASSERT_FALSE(before.span_stats.empty());

  StringSink sink;
  write_json_lines(sink, before);
  std::vector<json::Value> rows;
  std::istringstream lines(sink.str());
  for (std::string line; std::getline(lines, line);)
    rows.push_back(json::parse(line));

  const std::size_t expected = 2 + before.counters.size() +
                               before.gauges.size() +
                               before.histograms.size() +
                               before.span_stats.size() +
                               before.path_stats.size();
  ASSERT_EQ(rows.size(), expected);
  EXPECT_EQ(rows[0].at("type").as_string(), "meta");
  EXPECT_EQ(rows[0].at("telemetry_compiled").as_bool(), before.compiled_in);
  EXPECT_EQ(rows[0].at("spans_dropped").as_u64(), before.spans_dropped);
  EXPECT_EQ(rows[1].at("type").as_string(), "resource");
  EXPECT_EQ(rows[1].at("sampled").as_bool(), before.resource.sampled);
  EXPECT_EQ(rows[1].at("peak_rss_bytes").as_u64(),
            before.resource.peak_rss_bytes);
  EXPECT_EQ(rows[1].at("current_rss_bytes").as_u64(),
            before.resource.current_rss_bytes);
  EXPECT_EQ(rows[1].at("cpu_user_ns").as_u64(), before.resource.cpu_user_ns);
  EXPECT_EQ(rows[1].at("cpu_system_ns").as_u64(),
            before.resource.cpu_system_ns);
  std::size_t row = 2;
  for (const auto& [name, value] : before.counters) {
    EXPECT_EQ(rows[row].at("type").as_string(), "counter");
    EXPECT_EQ(rows[row].at("name").as_string(), name);
    EXPECT_EQ(rows[row++].at("value").as_u64(), value);
  }
  for (const auto& [name, value] : before.gauges) {
    EXPECT_EQ(rows[row].at("type").as_string(), "gauge");
    EXPECT_EQ(rows[row].at("name").as_string(), name);
    EXPECT_EQ(rows[row++].at("value").as_double(), value);
  }
  for (const auto& [name, hist] : before.histograms) {
    EXPECT_EQ(rows[row].at("type").as_string(), "histogram");
    EXPECT_EQ(rows[row].at("name").as_string(), name);
    EXPECT_EQ(rows[row].at("count").as_u64(), hist.count);
    EXPECT_EQ(rows[row].at("sum").as_u64(), hist.sum);
    EXPECT_EQ(rows[row].at("min").as_u64(), hist.min);
    EXPECT_EQ(rows[row++].at("max").as_u64(), hist.max);
  }
  const auto expect_stats = [&](const char* type, const char* key,
                                const SpanStats& s) {
    EXPECT_EQ(rows[row].at("type").as_string(), type);
    EXPECT_EQ(rows[row].at(key).as_string(), s.name);
    EXPECT_EQ(rows[row].at("count").as_u64(), s.count);
    EXPECT_EQ(rows[row].at("total_ns").as_u64(), s.total_ns);
    EXPECT_EQ(rows[row].at("min_ns").as_u64(), s.min_ns);
    EXPECT_EQ(rows[row].at("max_ns").as_u64(), s.max_ns);
    EXPECT_EQ(rows[row++].at("total_cpu_ns").as_u64(), s.total_cpu_ns);
  };
  for (const SpanStats& s : before.span_stats) expect_stats("span", "name", s);
  for (const SpanStats& s : before.path_stats) expect_stats("path", "path", s);
}

TEST_F(TelemetryTest, TraceEventsRoundTrip) {
  Registry::global().record_span({"alpha", "alpha", 1000, 250, 0, 0});
  Registry::global().record_span(
      {"beta.gamma", "alpha/beta.gamma", 1250, 1, 1, 2});
  const Snapshot snapshot = Registry::global().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 2u);

  StringSink sink;
  write_trace_events(sink, snapshot);
  const json::Value document = json::parse(sink.str());

  EXPECT_EQ(document.at("base_ns").as_u64(), 1000u);
  const auto& events = document.at("traceEvents").items();
  ASSERT_EQ(events.size(), 2u);
  // Microsecond timestamps keep nanosecond precision in their text.
  const char* ts[] = {"0.000", "0.250"};
  const char* dur[] = {"0.250", "0.001"};
  for (std::size_t i = 0; i < 2; ++i) {
    const SpanRecord& span = snapshot.spans[i];
    const json::Value& event = events[i];
    EXPECT_EQ(event.at("name").as_string(), span.name);
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_EQ(event.at("pid").as_u64(), 0u);
    EXPECT_EQ(event.at("tid").as_u64(), span.thread);
    EXPECT_EQ(event.at("ts").number_text(), ts[i]);
    EXPECT_EQ(event.at("dur").number_text(), dur[i]);
    EXPECT_EQ(event.at("args").at("depth").as_u64(), span.depth);
    EXPECT_EQ(event.at("args").at("cpu_ns").as_u64(), span.cpu_ns);
    EXPECT_EQ(event.at("args").at("path").as_string(), span.path);
  }
  EXPECT_EQ(snapshot.spans[1].path, "alpha/beta.gamma");
  EXPECT_EQ(snapshot.spans[1].depth, 2u);
}

TEST_F(TelemetryTest, MalformedInputThrows) {
  Registry::global().counter("test.count").add(1);
  { ScopedSpan span("test.span"); }
  const Snapshot snapshot = Registry::global().snapshot();
  StringSink pretty, lines, trace;
  write_json(pretty, snapshot);
  write_json_lines(lines, snapshot);
  write_trace_events(trace, snapshot);
  // Every writer's output parses whole, and is rejected cut short.
  for (const std::string& text : {pretty.str(), lines.str().substr(
                                       0, lines.str().find('\n')),
                                   trace.str()}) {
    EXPECT_NO_THROW((void)json::parse(text));
    EXPECT_THROW((void)json::parse(text.substr(0, text.size() / 2)),
                 json::Error);
  }
  EXPECT_THROW((void)json::parse("not json at all"), std::runtime_error);
}

TEST_F(TelemetryTest, NonFiniteGaugesAreWrittenAsNull) {
  Snapshot snapshot;  // Hand-built: identical with telemetry compiled out.
  snapshot.gauges = {{"test.nan", std::nan("")},
                     {"test.inf", std::numeric_limits<double>::infinity()},
                     {"test.finite", 0.1}};
  StringSink pretty, lines;
  write_json(pretty, snapshot);
  write_json_lines(lines, snapshot);
  const json::Value document = json::parse(pretty.str());
  EXPECT_TRUE(document.at("gauges").at("test.nan").is_null());
  EXPECT_TRUE(document.at("gauges").at("test.inf").is_null());
  EXPECT_EQ(document.at("gauges").at("test.finite").as_double(), 0.1);
  std::istringstream rows(lines.str());
  for (std::string line; std::getline(rows, line);)
    EXPECT_NO_THROW((void)json::parse(line)) << line;
}

TEST_F(TelemetryTest, MacrosHonourCompileAndRuntimeSwitches) {
  VN2_COUNT("test.macro");
  VN2_COUNT_N("test.macro", 2);
  { VN2_SPAN("test.macro_span"); }
  Snapshot snapshot = Registry::global().snapshot();
  if (kCompiledIn) {
    EXPECT_EQ(snapshot.counter("test.macro"), 3u);
    ASSERT_EQ(snapshot.span_stats.size(), 1u);
    EXPECT_EQ(snapshot.span_stats[0].name, "test.macro_span");
  } else {
    // Compiled out: macros are no-ops and record nothing.
    EXPECT_EQ(snapshot.counter("test.macro"), 0u);
    EXPECT_TRUE(snapshot.span_stats.empty());
    EXPECT_EQ(VN2_CLOCK_NOW(), 0u);
  }

  // Runtime pause: nothing records while collecting is off.
  Registry::global().reset();
  set_collecting(false);
  VN2_COUNT("test.macro");
  { VN2_SPAN("test.macro_span"); }
  EXPECT_EQ(VN2_CLOCK_NOW(), 0u);
  snapshot = Registry::global().snapshot();
  EXPECT_EQ(snapshot.counter("test.macro"), 0u);
  EXPECT_TRUE(snapshot.span_stats.empty());
  set_collecting(true);
}

// The acceptance check: a real (small) pipeline run leaves nonzero
// counters in every instrumented family — simulator events, NMF
// iterations, NNLS solves, and parallel_for tasks.
TEST_F(TelemetryTest, PipelineRunPopulatesEveryCounterFamily) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";

  scenario::ScenarioBundle bundle = scenario::tiny(9, 600.0, 7);
  const wsn::SimulationResult result = bundle.make_simulator().run();
  const trace::Trace log = trace::build_trace(result);
  (void)trace::extract_states(log);

  const vn2::testing::SyntheticTrace synthetic = vn2::testing::make_synthetic(
      vn2::testing::standard_causes(), 400, 11);
  core::TrainingOptions options;
  options.rank = 6;
  const core::TrainingReport report = core::train(synthetic.states, options);
  (void)core::diagnose_batch(report.model, synthetic.states);

  const Snapshot snapshot = Registry::global().snapshot();
  EXPECT_GT(snapshot.counter("sim.events"), 0u);
  EXPECT_GT(snapshot.counter("sim.beacons"), 0u);
  EXPECT_GT(snapshot.counter("trace.csv.rows") +
                snapshot.counter("trace.states.extracted"),
            0u);
  EXPECT_GT(snapshot.counter("nmf.factorizations"), 0u);
  EXPECT_GT(snapshot.counter("nmf.iterations"), 0u);
  EXPECT_GT(snapshot.counter("nnls.solves"), 0u);
  EXPECT_GT(snapshot.counter("parallel.tasks"), 0u);
  EXPECT_GT(snapshot.counter("vn2.states.diagnosed"), 0u);
}

// ---------------------------------------------------------------------------
// Process resource visibility (resource.hpp).

TEST_F(TelemetryTest, ResourceSamplerReportsPlausibleValues) {
  const ResourceUsage usage = sample_resources();
#if defined(__linux__)
  ASSERT_TRUE(usage.sampled);
  EXPECT_GT(usage.peak_rss_bytes, 0u);
  EXPECT_GT(usage.current_rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.current_rss_bytes);
  // A gtest process has certainly burned some CPU by now.
  EXPECT_GT(usage.cpu_total_ns(), 0u);
#else
  // Portable fallback: may or may not be available, but must not lie.
  if (!usage.sampled) {
    EXPECT_EQ(usage.peak_rss_bytes, 0u);
    EXPECT_EQ(usage.current_rss_bytes, 0u);
  }
#endif
}

TEST_F(TelemetryTest, ResourceSamplerPeakIsMonotonic) {
  const ResourceUsage before = sample_resources();
  // Touch a real chunk of memory so RSS has a reason to move; the peak
  // must never decrease across samples regardless.
  std::vector<double> ballast(4 << 20, 1.5);
  double sum = 0;
  for (double v : ballast) sum += v;
  const ResourceUsage after = sample_resources();
  EXPECT_GT(sum, 0.0);
  if (before.sampled && after.sampled) {
    EXPECT_GE(after.peak_rss_bytes, before.peak_rss_bytes);
  }
}

TEST_F(TelemetryTest, ThreadCpuClockAdvancesWithWork) {
  const std::uint64_t before = thread_cpu_ns();
  volatile double sink_value = 1.0;
  for (int i = 0; i < 2000000; ++i) sink_value = sink_value * 1.0000001 + 0.1;
  const std::uint64_t after = thread_cpu_ns();
  if (before == 0 && after == 0) GTEST_SKIP() << "no thread CPU clock here";
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0u);
}

TEST_F(TelemetryTest, SpansSplitWallAndCpuTime) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  {
    ScopedSpan span("test.cpu_split");
    volatile double sink_value = 1.0;
    for (int i = 0; i < 2000000; ++i)
      sink_value = sink_value * 1.0000001 + 0.1;
  }
  const Snapshot snapshot = Registry::global().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 1u);
  ASSERT_EQ(snapshot.span_stats.size(), 1u);
  EXPECT_GT(snapshot.spans[0].duration_ns, 0u);
  // A pure compute loop spends nearly all wall time on-CPU; allow a
  // generous scheduler margin but require the split to be populated.
  if (thread_cpu_ns() > 0) {
    EXPECT_GT(snapshot.spans[0].cpu_ns, 0u);
    EXPECT_EQ(snapshot.span_stats[0].total_cpu_ns, snapshot.spans[0].cpu_ns);
  }
}

TEST_F(TelemetryTest, SnapshotEmbedsResourceUsage) {
  const Snapshot snapshot = Registry::global().snapshot();
#if defined(__linux__)
  EXPECT_TRUE(snapshot.resource.sampled);
  EXPECT_GT(snapshot.resource.peak_rss_bytes, 0u);
#else
  (void)snapshot;
#endif
}

// ---------------------------------------------------------------------------
// Allocation counters on the NMF/NNLS workspace seams.

TEST_F(TelemetryTest, NmfWorkspaceIsAllocationFreeOnceWarm) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const linalg::Matrix e = linalg::random_uniform_matrix(24, 16, 3);
  linalg::Matrix w = linalg::random_uniform_matrix(24, 4, 5);
  linalg::Matrix psi = linalg::random_uniform_matrix(4, 16, 9);
  nmf::Workspace workspace;
  nmf::multiplicative_update(e, w, psi, workspace);
  const Snapshot warm = Registry::global().snapshot();
  EXPECT_GT(warm.counter("nmf.workspace.reallocs"), 0u);
  EXPECT_GT(warm.counter("nmf.workspace.alloc_bytes"), 0u);
  for (int sweep = 0; sweep < 5; ++sweep)
    nmf::multiplicative_update(e, w, psi, workspace);
  const Snapshot after = Registry::global().snapshot();
  // Same shapes, same workspace: the hot loop allocates nothing more.
  EXPECT_EQ(after.counter("nmf.workspace.reallocs"),
            warm.counter("nmf.workspace.reallocs"));
  EXPECT_EQ(after.counter("nmf.workspace.alloc_bytes"),
            warm.counter("nmf.workspace.alloc_bytes"));
}

TEST_F(TelemetryTest, NnlsWarmSolvesAllocateLessAndAtConstantRate) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const linalg::NnlsSystem system(linalg::random_uniform_matrix(12, 6, 21));
  const linalg::Vector b(12, 1.0);
  // A default workspace grows on its first solve, and the counters see it.
  linalg::NnlsWorkspace workspace;
  (void)linalg::nnls(system, b, {}, workspace);
  const std::uint64_t cold =
      Registry::global().snapshot().counter("nnls.workspace.reallocs");
  EXPECT_GT(cold, 0u);
  EXPECT_GT(Registry::global().snapshot().counter(
                "nnls.workspace.alloc_bytes"),
            0u);
  // Warm solves of the same shape reuse every buffer: the Gram form has no
  // per-pivot reshapes left, so the rate is not just constant but zero.
  for (int solve = 0; solve < 4; ++solve)
    (void)linalg::nnls(system, b, {}, workspace);
  EXPECT_EQ(Registry::global().snapshot().counter("nnls.workspace.reallocs"),
            cold);
  // A workspace sized for the system never grows at all.
  linalg::NnlsWorkspace sized(system);
  (void)linalg::nnls(system, b, {}, sized);
  EXPECT_EQ(Registry::global().snapshot().counter("nnls.workspace.reallocs"),
            cold);
}

TEST_F(TelemetryTest, BatchInferenceAllocationsAreDeterministicAndBounded) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const vn2::testing::SyntheticTrace synthetic = vn2::testing::make_synthetic(
      vn2::testing::standard_causes(), 1200, 13);
  core::TrainingOptions options;
  options.rank = 5;
  const core::TrainingReport report = core::train(synthetic.states, options);

  // Steady state: every chunk's workspace is sized for the shared system
  // up front, so a batch of any size at any thread count solves without a
  // single workspace reallocation.
  for (const std::size_t threads : {1ul, 4ul}) {
    core::set_num_threads(threads);
    Registry::global().reset();
    (void)core::diagnose_batch(report.model, synthetic.states);
    const Snapshot snapshot = Registry::global().snapshot();
    EXPECT_EQ(snapshot.counter("nnls.solves"), synthetic.states.rows())
        << threads << " threads";
    EXPECT_GT(snapshot.counter("nnls.pivots"), 0u) << threads << " threads";
    EXPECT_EQ(snapshot.counter("nnls.workspace.reallocs"), 0u)
        << threads << " threads";
    EXPECT_EQ(snapshot.counter("nnls.workspace.alloc_bytes"), 0u)
        << threads << " threads";
  }
  core::set_num_threads(0);
}

// ---------------------------------------------------------------------------
// ResourceSampler: the time-series side of resource telemetry. These run
// in the TSan CI job, so the start/stop/read interleavings are also a
// data-race check on the sampler's locking.

/// Spins until the sampler has taken at least `want` samples (bounded so
/// a platform without /proc cannot hang the test).
void wait_for_samples(const ResourceSampler& sampler, std::uint64_t want) {
  for (int spin = 0; spin < 2000 && sampler.total_samples() < want; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST_F(TelemetryTest, SamplerRejectsZeroIntervalOrCapacity) {
  SamplerOptions zero_interval;
  zero_interval.interval_ms = 0;
  EXPECT_THROW(ResourceSampler{zero_interval}, std::invalid_argument);
  SamplerOptions zero_capacity;
  zero_capacity.capacity = 0;
  EXPECT_THROW(ResourceSampler{zero_capacity}, std::invalid_argument);
}

TEST_F(TelemetryTest, SamplerCapturesOrderedSeries) {
  SamplerOptions options;
  options.interval_ms = 1;
  ResourceSampler sampler(options);
  sampler.start();
  if (!kCompiledIn) {
    // Kill-switch builds: start() is a no-op, the series stays empty.
    EXPECT_FALSE(sampler.running());
    EXPECT_TRUE(sampler.series().empty());
    return;
  }
  EXPECT_TRUE(sampler.running());
  wait_for_samples(sampler, 3);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_GE(series.size(), 3u);  // Immediate + ticks + closing sample.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
}

TEST_F(TelemetryTest, SamplerRingWrapsKeepingNewestOldestFirst) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  options.capacity = 4;
  ResourceSampler sampler(options);
  sampler.start();
  wait_for_samples(sampler, 7);
  sampler.stop();
  EXPECT_GT(sampler.total_samples(), 4u);
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_EQ(series.size(), 4u);  // Bounded by capacity after the wrap.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
}

TEST_F(TelemetryTest, SamplerStartStopAreIdempotentAndRestartable) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  ResourceSampler sampler(options);
  sampler.stop();  // Stop before ever starting: no-op.
  EXPECT_EQ(sampler.total_samples(), 0u);
  sampler.start();
  sampler.start();  // Second start while running: no-op, no second thread.
  wait_for_samples(sampler, 2);
  sampler.stop();
  sampler.stop();  // Second stop: no-op.
  const std::uint64_t first_window = sampler.total_samples();
  EXPECT_GE(first_window, 2u);
  // Restarting appends into the same ring (how a bench brackets reps).
  sampler.start();
  wait_for_samples(sampler, first_window + 2);
  sampler.stop();
  EXPECT_GT(sampler.total_samples(), first_window);
  // reset() clears the window but keeps the sampler usable.
  sampler.reset();
  EXPECT_EQ(sampler.total_samples(), 0u);
  EXPECT_TRUE(sampler.series().empty());
}

TEST_F(TelemetryTest, SamplerTracksRegistryCounters) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  Counter& counter = Registry::global().counter("test.sampled_counter");
  SamplerOptions options;
  options.interval_ms = 1;
  options.counters = {"test.sampled_counter"};
  ResourceSampler sampler(options);
  sampler.start();
  counter.add(41);
  wait_for_samples(sampler, 3);
  counter.add(1);
  sampler.stop();
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_FALSE(series.empty());
  ASSERT_EQ(series.back().counters.size(), 1u);
  EXPECT_EQ(series.back().counters[0], 42u);  // Closing sample sees both.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].counters[0], series[i - 1].counters[0]);
}

TEST_F(TelemetryTest, SamplerPeakSurvivesRingOverwrites) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  options.capacity = 2;
  ResourceSampler sampler(options);
  sampler.start();
  wait_for_samples(sampler, 5);
  sampler.stop();
  // Peak tracks every sample ever taken, not just the two retained.
  std::uint64_t retained_max = 0;
  for (const ResourceSample& s : sampler.series())
    retained_max = std::max(retained_max, s.current_rss_bytes);
  EXPECT_GE(sampler.peak_rss_bytes(), retained_max);
}

}  // namespace
}  // namespace vn2::telemetry
