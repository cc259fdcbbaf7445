#include "benchstat/record.hpp"

#include <algorithm>
#include <stdexcept>

#include "json/json.hpp"

namespace vn2::benchstat {

namespace {

using json::Value;

// ---------------------------------------------------------------------------
// Value -> struct. An absent or null field reads as its fallback (null is
// how the writer spells a non-finite number); any other mistyped or
// inexact value throws json::Error with its offset.

const Value* field(const Value& object, std::string_view key) {
  const Value* value = object.find(key);
  return value == nullptr || value->is_null() ? nullptr : value;
}

std::string opt_string(const Value& object, std::string_view key,
                       std::string fallback = "") {
  const Value* value = field(object, key);
  return value != nullptr ? value->as_string() : std::move(fallback);
}

double opt_number(const Value& object, std::string_view key,
                  double fallback = 0.0) {
  const Value* value = field(object, key);
  return value != nullptr ? value->as_double() : fallback;
}

double number_or_zero(const Value& value) {
  return value.is_null() ? 0.0 : value.as_double();
}

std::uint64_t opt_u64(const Value& object, std::string_view key) {
  const Value* value = field(object, key);
  return value != nullptr ? value->as_u64() : 0;
}

bool opt_bool(const Value& object, std::string_view key, bool fallback) {
  const Value* value = field(object, key);
  return value != nullptr ? value->as_bool() : fallback;
}

/// Every element of the array `key`, or none when it is absent or null.
const std::vector<Value>& opt_items(const Value& object,
                                    std::string_view key) {
  static const std::vector<Value> kNone;
  const Value* value = field(object, key);
  return value != nullptr ? value->items() : kNone;
}

/// Reads schema_version, rejecting versions newer than this reader.
std::int64_t schema_version(const Value& object, const char* what) {
  const std::uint64_t version = object.at("schema_version").as_u64();
  if (version > static_cast<std::uint64_t>(kSchemaVersion))
    throw std::runtime_error("benchstat: " + std::string(what) +
                             " schema_version " + std::to_string(version) +
                             " is newer than this tool understands (" +
                             std::to_string(kSchemaVersion) + ")");
  return static_cast<std::int64_t>(version);
}

Metric metric_from_value(const Value& v) {
  Metric metric;
  metric.name = v.at("name").as_string();
  metric.unit = opt_string(v, "unit", "s");
  metric.lower_is_better = opt_bool(v, "lower_is_better", true);
  metric.gated = opt_bool(v, "gated", false);
  for (const Value& s : opt_items(v, "samples"))
    metric.samples.push_back(number_or_zero(s));
  if (v.find("median") != nullptr) {
    metric.stats.median = opt_number(v, "median");
    metric.stats.min = opt_number(v, "min");
    metric.stats.max = opt_number(v, "max");
    metric.stats.q1 = opt_number(v, "q1", metric.stats.median);
    metric.stats.q3 = opt_number(v, "q3", metric.stats.median);
  } else if (!metric.samples.empty()) {
    metric.finalize();
  } else {
    throw std::runtime_error("benchstat: metric '" + metric.name +
                             "' has neither samples nor derived stats");
  }
  return metric;
}

Record record_from_value(const Value& v) {
  Record record;
  record.schema_version = schema_version(v, "record");
  record.bench = v.at("bench").as_string();
  record.workload = opt_string(v, "workload");
  if (const Value* prov = field(v, "provenance"); prov != nullptr) {
    record.provenance.git_sha = opt_string(*prov, "git_sha", "unknown");
    record.provenance.timestamp = opt_string(*prov, "timestamp");
    record.provenance.bench_days = opt_number(*prov, "bench_days");
    record.provenance.reps = opt_u64(*prov, "reps");
  }
  if (const Value* env = field(v, "environment"); env != nullptr) {
    record.environment.cpu_features = opt_string(*env, "cpu_features");
    record.environment.hardware_concurrency =
        opt_u64(*env, "hardware_concurrency");
    record.environment.threads = opt_u64(*env, "threads");
    record.environment.telemetry_compiled =
        opt_bool(*env, "telemetry_compiled", true);
  }
  if (const Value* scale = field(v, "scale"); scale != nullptr)
    for (const auto& [name, value] : scale->members())
      record.scale.emplace_back(name, number_or_zero(value));
  for (const Value& c : opt_items(v, "cases")) {
    Case parsed;
    parsed.name = c.at("name").as_string();
    for (const Value& m : opt_items(c, "metrics"))
      parsed.metrics.push_back(metric_from_value(m));
    // Optional: cases written before per-case sampling existed parse
    // with resources.sampled == false.
    if (const Value* res = field(c, "resources"); res != nullptr) {
      parsed.resources.sampled = opt_bool(*res, "sampled", false);
      parsed.resources.peak_rss_bytes = opt_u64(*res, "peak_rss_bytes");
      parsed.resources.interval_ms = opt_u64(*res, "interval_ms");
      for (const Value& p : opt_items(*res, "rss_series"))
        parsed.resources.rss_series.push_back(
            RssPoint{opt_u64(p, "offset_ms"), opt_u64(p, "bytes")});
    }
    record.cases.push_back(std::move(parsed));
  }
  for (const Value& c : opt_items(v, "checks"))
    record.checks.push_back(
        Check{c.at("name").as_string(), opt_bool(c, "pass", false)});
  if (const Value* res = field(v, "resources"); res != nullptr) {
    record.resources.peak_rss_bytes = opt_u64(*res, "peak_rss_bytes");
    record.resources.current_rss_bytes = opt_u64(*res, "current_rss_bytes");
    record.resources.cpu_user_ns = opt_u64(*res, "cpu_user_ns");
    record.resources.cpu_system_ns = opt_u64(*res, "cpu_system_ns");
    record.resources.alloc_count = opt_u64(*res, "alloc_count");
    record.resources.alloc_bytes = opt_u64(*res, "alloc_bytes");
  }
  // The embedded telemetry subtree stays opaque: compact, with its key
  // order and number text exactly as read.
  if (const Value* telem = v.find("telemetry"); telem != nullptr)
    record.telemetry_json = json::dump(*telem);
  return record;
}

// ---------------------------------------------------------------------------
// Struct -> Value.

Value metric_value(const Metric& metric) {
  Value samples = Value::array();
  for (const double s : metric.samples) samples.push_back(s);
  return Value::object({{"name", metric.name},
                        {"unit", metric.unit},
                        {"lower_is_better", metric.lower_is_better},
                        {"gated", metric.gated},
                        {"samples", std::move(samples)},
                        {"median", metric.stats.median},
                        {"min", metric.stats.min},
                        {"max", metric.stats.max},
                        {"q1", metric.stats.q1},
                        {"q3", metric.stats.q3}});
}

Value case_value(const Case& c) {
  Value metrics = Value::array();
  for (const Metric& metric : c.metrics)
    metrics.push_back(metric_value(metric));
  Value out =
      Value::object({{"name", c.name}, {"metrics", std::move(metrics)}});
  if (const CaseResources& cr = c.resources; cr.sampled) {
    Value series = Value::array();
    for (const RssPoint& p : cr.rss_series)
      series.push_back(
          Value::object({{"offset_ms", p.offset_ms}, {"bytes", p.bytes}}));
    out.set("resources", Value::object({{"sampled", true},
                                        {"peak_rss_bytes", cr.peak_rss_bytes},
                                        {"interval_ms", cr.interval_ms},
                                        {"rss_series", std::move(series)}}));
  }
  return out;
}

Value record_value(const Record& record) {
  const Provenance& prov = record.provenance;
  const Environment& env = record.environment;
  const Resources& res = record.resources;
  Value scale = Value::object();
  for (const auto& [name, value] : record.scale) scale.set(name, value);
  Value cases = Value::array();
  for (const Case& c : record.cases) cases.push_back(case_value(c));
  Value checks = Value::array();
  for (const Check& check : record.checks)
    checks.push_back(
        Value::object({{"name", check.name}, {"pass", check.pass}}));
  Value out = Value::object();
  out.set("schema_version", record.schema_version)
      .set("bench", record.bench)
      .set("workload", record.workload)
      .set("provenance", Value::object({{"git_sha", prov.git_sha},
                                        {"timestamp", prov.timestamp},
                                        {"bench_days", prov.bench_days},
                                        {"reps", prov.reps}}))
      .set("environment",
           Value::object({{"cpu_features", env.cpu_features},
                          {"hardware_concurrency", env.hardware_concurrency},
                          {"threads", env.threads},
                          {"telemetry_compiled", env.telemetry_compiled}}))
      .set("scale", std::move(scale))
      .set("cases", std::move(cases))
      .set("checks", std::move(checks))
      .set("resources",
           Value::object({{"peak_rss_bytes", res.peak_rss_bytes},
                          {"current_rss_bytes", res.current_rss_bytes},
                          {"cpu_user_ns", res.cpu_user_ns},
                          {"cpu_system_ns", res.cpu_system_ns},
                          {"alloc_count", res.alloc_count},
                          {"alloc_bytes", res.alloc_bytes}}));
  if (!record.telemetry_json.empty())
    out.set("telemetry", json::parse(record.telemetry_json));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sample statistics.

SampleStats summarize(std::vector<double> samples) {
  if (samples.empty())
    throw std::runtime_error("benchstat: cannot summarize zero samples");
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&samples](double p) {
    const double h = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  SampleStats stats;
  stats.min = samples.front();
  stats.max = samples.back();
  stats.q1 = quantile(0.25);
  stats.median = quantile(0.5);
  stats.q3 = quantile(0.75);
  return stats;
}

void Metric::finalize() {
  if (!samples.empty()) stats = summarize(samples);
}

Metric make_metric(std::string name, std::string unit, bool lower_is_better,
                   bool gated, std::vector<double> samples) {
  Metric metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.lower_is_better = lower_is_better;
  metric.gated = gated;
  metric.samples = std::move(samples);
  metric.finalize();
  return metric;
}

const Metric* Case::find_metric(std::string_view metric_name) const {
  for (const Metric& metric : metrics)
    if (metric.name == metric_name) return &metric;
  return nullptr;
}

const Case* Record::find_case(std::string_view case_name) const {
  for (const Case& c : cases)
    if (c.name == case_name) return &c;
  return nullptr;
}

const Record* Baseline::find(std::string_view bench) const {
  for (const Record& record : records)
    if (record.bench == bench) return &record;
  return nullptr;
}

Record* Baseline::find(std::string_view bench) {
  for (Record& record : records)
    if (record.bench == bench) return &record;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialization entry points.

void write_record(telemetry::Sink& sink, const Record& record) {
  sink.write(json::dump_indented(record_value(record)));
}

Record read_record(std::string_view text) {
  return record_from_value(json::parse(text));
}

void write_baseline(telemetry::Sink& sink, const Baseline& baseline) {
  Value records = Value::array();
  for (const Record& record : baseline.records)
    records.push_back(record_value(record));
  Value document = Value::object();
  document.set("schema_version", baseline.schema_version)
      .set("records", std::move(records));
  sink.write(json::dump_indented(document));
}

Baseline read_baseline(std::string_view text) {
  const Value document = json::parse(text);
  Baseline baseline;
  baseline.schema_version = schema_version(document, "baseline");
  for (const Value& r : opt_items(document, "records"))
    baseline.records.push_back(record_from_value(r));
  return baseline;
}

}  // namespace vn2::benchstat
