#include "telemetry/sink.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "json/json.hpp"
#include "telemetry/calltree.hpp"

namespace vn2::telemetry {

namespace {

using json::Value;

/// Nanoseconds as microseconds with exactly three decimals, the
/// trace_event unit; the literal keeps the nanosecond precision exact.
Value micros(std::uint64_t ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return Value::number(buffer);
}

// Rows shared by the snapshot and json-lines formats: `head` members
// first, then the fields both formats write.

Value resource_row(std::initializer_list<Value::Member> head,
                   const ResourceUsage& usage) {
  Value row = Value::object(head);
  row.set("sampled", usage.sampled)
      .set("peak_rss_bytes", usage.peak_rss_bytes)
      .set("current_rss_bytes", usage.current_rss_bytes)
      .set("cpu_user_ns", usage.cpu_user_ns)
      .set("cpu_system_ns", usage.cpu_system_ns);
  return row;
}

Value histogram_row(std::initializer_list<Value::Member> head,
                    const HistogramSnapshot& h) {
  Value row = Value::object(head);
  row.set("count", h.count)
      .set("sum", h.sum)
      .set("min", h.min)
      .set("max", h.max);
  return row;
}

Value span_row(std::initializer_list<Value::Member> head,
               const SpanStats& s) {
  Value row = Value::object(head);
  row.set("count", s.count)
      .set("total_ns", s.total_ns)
      .set("min_ns", s.min_ns)
      .set("max_ns", s.max_ns)
      .set("total_cpu_ns", s.total_cpu_ns);
  return row;
}

}  // namespace

void write_json(Sink& sink, const Snapshot& snapshot) {
  Value counters = Value::object();
  for (const auto& [name, value] : snapshot.counters) counters.set(name, value);
  Value gauges = Value::object();
  for (const auto& [name, value] : snapshot.gauges) gauges.set(name, value);
  Value histograms = Value::object();
  for (const auto& [name, h] : snapshot.histograms)
    histograms.set(name, histogram_row({}, h).set("mean", h.mean()));
  Value spans = Value::object();
  for (const SpanStats& s : snapshot.span_stats)
    spans.set(s.name, span_row({}, s));
  // The call tree: path-keyed rows in preorder, with exclusive times
  // precomputed so downstream tools (vn2_profdiff) never rebuild the
  // hierarchy to diff it.
  Value call_tree = Value::object();
  for (const PathProfile& p : flatten(build_call_tree(snapshot.path_stats)))
    call_tree.set(p.path, Value::object({{"count", p.count},
                                         {"wall_ns", p.wall_ns},
                                         {"cpu_ns", p.cpu_ns},
                                         {"excl_wall_ns", p.excl_wall_ns},
                                         {"excl_cpu_ns", p.excl_cpu_ns}}));
  Value document = Value::object();
  document.set("telemetry_compiled", snapshot.compiled_in)
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms))
      .set("spans", std::move(spans))
      .set("call_tree", std::move(call_tree))
      .set("resource", resource_row({}, snapshot.resource));
  if (!snapshot.resource_series.empty()) {
    // Offsets are relative to the first sample; readable and stable
    // across runs, unlike raw monotonic timestamps.
    const std::uint64_t t0 = snapshot.resource_series.front().t_ns;
    Value series = Value::array();
    for (const ResourceSample& s : snapshot.resource_series)
      series.push_back(Value::object({{"t_ms", (s.t_ns - t0) / 1000000},
                                      {"rss_bytes", s.current_rss_bytes},
                                      {"cpu_ns", s.cpu_total_ns}}));
    document.set("resource_series", std::move(series));
  }
  document.set("spans_dropped", snapshot.spans_dropped);
  sink.write(json::dump_indented(document));
}

void write_json_lines(Sink& sink, const Snapshot& snapshot) {
  std::string out;
  const auto line = [&out](const Value& row) {
    out += json::dump(row);
    out += '\n';
  };
  line(Value::object({{"type", "meta"},
                      {"telemetry_compiled", snapshot.compiled_in},
                      {"spans_dropped", snapshot.spans_dropped}}));
  line(resource_row({{"type", "resource"}}, snapshot.resource));
  for (const auto& [name, value] : snapshot.counters)
    line(Value::object(
        {{"type", "counter"}, {"name", name}, {"value", value}}));
  for (const auto& [name, value] : snapshot.gauges)
    line(Value::object(
        {{"type", "gauge"}, {"name", name}, {"value", value}}));
  for (const auto& [name, h] : snapshot.histograms)
    line(histogram_row({{"type", "histogram"}, {"name", name}}, h));
  for (const SpanStats& s : snapshot.span_stats)
    line(span_row({{"type", "span"}, {"name", s.name}}, s));
  for (const SpanStats& s : snapshot.path_stats)
    line(span_row({{"type", "path"}, {"path", s.name}}, s));
  sink.write(out);
}

void write_trace_events(Sink& sink, const Snapshot& snapshot) {
  // Complete events ("ph":"X") with timestamps relative to the earliest
  // span, in microseconds as the format requires; base_ns preserves the
  // absolute origin.
  std::uint64_t base = ~std::uint64_t{0};
  for (const SpanRecord& span : snapshot.spans)
    base = std::min(base, span.start_ns);
  if (snapshot.spans.empty()) base = 0;
  Value events = Value::array();
  for (const SpanRecord& span : snapshot.spans) {
    Value args =
        Value::object({{"depth", span.depth}, {"cpu_ns", span.cpu_ns}});
    if (!span.path.empty()) args.set("path", span.path);
    events.push_back(Value::object({{"name", span.name},
                                    {"ph", "X"},
                                    {"pid", 0},
                                    {"tid", span.thread},
                                    {"ts", micros(span.start_ns - base)},
                                    {"dur", micros(span.duration_ns)},
                                    {"args", std::move(args)}}));
  }
  Value document = Value::object();
  document.set("base_ns", base).set("traceEvents", std::move(events));
  sink.write(json::dump(document) + "\n");
}

}  // namespace vn2::telemetry
