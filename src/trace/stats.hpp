// Per-node operator statistics: the first report an operator pulls up when
// a deployment misbehaves — who delivers, over how many hops, how stable
// their routes are, and when they were last heard.
#pragma once

#include <iosfwd>
#include <vector>

#include "trace/trace.hpp"

namespace vn2::trace {

struct NodeStats {
  wsn::NodeId node = wsn::kInvalidNode;
  std::size_t snapshots = 0;       ///< Complete epochs assembled at the sink.
  double prr = 0.0;                ///< Distinct reports delivered / originated.
  double mean_hops = 0.0;          ///< Mean hop count of delivered packets.
  double max_hops = 0.0;
  double parent_changes = 0.0;     ///< Final Parent_change_counter value.
  double loops = 0.0;              ///< Final Loop_counter value.
  double retransmits = 0.0;        ///< Final NOACK_retransmit_counter value.
  double voltage = 0.0;            ///< Last reported voltage.
  wsn::Time first_seen = 0.0;
  wsn::Time last_seen = 0.0;
};

struct NetworkStats {
  std::vector<NodeStats> nodes;    ///< Sorted by NodeId.
  double overall_prr = 0.0;
  std::size_t reporting_nodes = 0; ///< Nodes with at least one snapshot.
  std::size_t expected_nodes = 0;  ///< result.node_count − 1 (sink excluded).
  double mean_hops = 0.0;          ///< Across all delivered packets.

  [[nodiscard]] const NodeStats* find(wsn::NodeId id) const;
};

/// Computes the report from a simulation result and its assembled trace.
NetworkStats compute_stats(const wsn::SimulationResult& result,
                           const Trace& trace);

/// Trace-only variant for field data (no origination log): PRR fields are
/// left at 0 and flagged by `has_prr == false` in the printout.
NetworkStats compute_stats(const Trace& trace);

/// Formats the report as a fixed-width table.
void print_stats(std::ostream& os, const NetworkStats& stats,
                 bool has_prr = true);

}  // namespace vn2::trace
