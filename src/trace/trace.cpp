#include "trace/trace.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "telemetry/telemetry.hpp"

#include "wsn/packet.hpp"

namespace vn2::trace {

using metrics::PacketType;

const NodeSeries* Trace::find(wsn::NodeId id) const {
  for (const NodeSeries& series : nodes)
    if (series.node == id) return &series;
  return nullptr;
}

std::size_t Trace::total_snapshots() const {
  std::size_t total = 0;
  for (const NodeSeries& series : nodes) total += series.snapshots.size();
  return total;
}

Trace build_trace(const wsn::SimulationResult& result) {
  struct PendingEpoch {
    std::array<double, metrics::kMetricCount> values{};
    std::uint8_t blocks_seen = 0;  // Bitmask: 1=C1, 2=C2, 4=C3.
    wsn::Time last_time = 0.0;
  };
  // (node, epoch) → partial snapshot. std::map keeps epochs ordered per node.
  std::map<std::pair<wsn::NodeId, std::uint64_t>, PendingEpoch> pending;

  for (const wsn::SinkPacketRecord& record : result.sink_log) {
    PendingEpoch& slot = pending[{record.origin, record.epoch}];
    const wsn::BlockRange range = wsn::block_range(record.type);
    if (record.values.size() != range.count) continue;  // Corrupt block.
    std::copy(record.values.begin(), record.values.end(),
              slot.values.begin() + static_cast<long>(range.first));
    slot.blocks_seen |= 1u << (static_cast<unsigned>(record.type) - 1);
    slot.last_time = std::max(slot.last_time, record.recv_time);
  }

  std::map<wsn::NodeId, NodeSeries> by_node;
  for (const auto& [key, slot] : pending) {
    if (slot.blocks_seen != 0b111) continue;  // Incomplete epoch.
    NodeSeries& series = by_node[key.first];
    series.node = key.first;
    series.snapshots.push_back({slot.last_time, key.second, slot.values});
  }

  Trace trace;
  trace.node_count = result.node_count;
  trace.duration = result.duration;
  trace.report_period = result.report_period;
  trace.nodes.reserve(by_node.size());
  for (auto& [id, series] : by_node) {
    // map iteration is epoch-ordered already, but arrival reordering across
    // epochs is possible; sort defensively by epoch.
    std::sort(series.snapshots.begin(), series.snapshots.end(),
              [](const Snapshot& a, const Snapshot& b) {
                return a.epoch < b.epoch;
              });
    trace.nodes.push_back(std::move(series));
  }
  return trace;
}

std::vector<StateVector> extract_states(const Trace& trace) {
  std::vector<StateVector> states;
  for (const NodeSeries& series : trace.nodes) {
    for (std::size_t i = 1; i < series.snapshots.size(); ++i) {
      const Snapshot& prev = series.snapshots[i - 1];
      const Snapshot& curr = series.snapshots[i];
      StateVector state;
      state.node = series.node;
      state.time = curr.time;
      state.epoch = curr.epoch;
      state.delta = linalg::Vector(metrics::kMetricCount);
      for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
        state.delta[m] = curr.values[m] - prev.values[m];
      states.push_back(std::move(state));
    }
  }
  VN2_COUNT_N("trace.states.extracted", states.size());
  return states;
}

linalg::Matrix states_matrix(const std::vector<StateVector>& states) {
  linalg::Matrix m;
  for (const StateVector& s : states) m.append_row(s.delta.span());
  return m;
}

std::vector<PrrPoint> prr_series(const wsn::SimulationResult& result,
                                 wsn::Time window) {
  std::vector<PrrPoint> points;
  if (window <= 0.0 || result.duration <= 0.0) return points;
  const std::size_t buckets =
      static_cast<std::size_t>(std::max(1.0, result.duration / window));
  points.resize(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    points[b].window_start = static_cast<double>(b) * window;
    points[b].window_end = points[b].window_start + window;
  }
  auto bucket_of = [&](wsn::Time t) -> std::size_t {
    const auto b = static_cast<std::size_t>(t / window);
    return std::min(b, buckets - 1);
  };
  for (const wsn::Origination& o : result.originations)
    points[bucket_of(o.time)].originated++;
  // Attribute receptions to their origination window so late arrivals do not
  // inflate a later bucket's ratio. We do not log origination time per
  // packet at the sink, so approximate with the receive time — multi-hop
  // latency is seconds, windows are hours.
  for (const wsn::SinkPacketRecord& r : result.sink_log)
    points[bucket_of(r.recv_time)].received++;
  return points;
}

std::map<wsn::NodeId, Delivery> report_delivery(
    const wsn::SimulationResult& result) {
  using Key = std::tuple<wsn::NodeId, std::uint64_t, PacketType>;
  std::vector<Key> originated;
  originated.reserve(result.originations.size());
  for (const wsn::Origination& o : result.originations)
    originated.emplace_back(o.origin, o.epoch, o.type);
  std::sort(originated.begin(), originated.end());
  originated.erase(std::unique(originated.begin(), originated.end()),
                   originated.end());
  std::vector<bool> reached(originated.size(), false);
  for (const wsn::SinkPacketRecord& r : result.sink_log) {
    const Key key{r.origin, r.epoch, r.type};
    const auto it = std::lower_bound(originated.begin(), originated.end(), key);
    if (it != originated.end() && *it == key)
      reached[static_cast<std::size_t>(it - originated.begin())] = true;
  }
  std::map<wsn::NodeId, Delivery> delivery;
  for (std::size_t k = 0; k < originated.size(); ++k) {
    Delivery& node = delivery[std::get<0>(originated[k])];
    ++node.originated;
    if (reached[k]) ++node.delivered;
  }
  return delivery;
}

double overall_prr(const wsn::SimulationResult& result) {
  std::size_t originated = 0, delivered = 0;
  for (const auto& [node, counts] : report_delivery(result)) {
    originated += counts.originated;
    delivered += counts.delivered;
  }
  if (originated == 0) return 1.0;
  return static_cast<double>(delivered) / static_cast<double>(originated);
}

}  // namespace vn2::trace
