// The centralized queuing protocol of Section 5:
// "A globally known central node always stored the current tail of the total
//  order. Every queuing request was completed using only two messages, one
//  to the central node, and one back."
//
// Messages travel shortest paths of the underlying graph G (latency dG). A
// request from the center itself completes locally with zero messages. The
// per-node serial service time is what makes the center a bottleneck at
// scale — with free local processing (service 0) the protocol's total
// latency is flat, with service > 0 it degrades linearly in the node count,
// which is exactly the behaviour Figure 10 shows on the SP2.
#pragma once

#include <cstdint>

#include "baseline/dist.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/fault.hpp"
#include "support/types.hpp"

namespace arrowdq {

struct CentralizedConfig {
  NodeId center = 0;
  Time service_time = 0;  // serial per-node message processing cost (ticks)
  /// Fault schedule (default: none). The baseline degrades gracefully:
  /// message faults delay delivery, crash windows defer deliveries to the
  /// victim until it recovers. The center holds the queue tail in stable
  /// storage, so no pointer corruption applies — only the arrow drivers
  /// model state recovery.
  FaultSpec fault;
  /// Optional out-param: filled with drop/duplicate counts after a one-shot
  /// run when a fault schedule is active (the loop result carries its own).
  FaultStats* fault_stats_out = nullptr;
};

/// One-shot execution. Completion is recorded when the center's reply (the
/// predecessor's identity) reaches the requester, matching Section 5's
/// completion definition.
QueuingOutcome run_centralized(NodeId node_count, const RequestSet& requests,
                               const DistOracle& dist, const CentralizedConfig& config);

struct CentralizedLoopResult {
  Time makespan = 0;
  std::int64_t total_requests = 0;
  std::uint64_t messages = 0;
  double avg_round_latency_units = 0.0;
  // Degradation metrics (all zero fault-free).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::int32_t crashes = 0;
  std::uint64_t partition_backlog = 0;  // sends the filter queued at a cut
};

/// Closed-loop driver matching run_arrow_closed_loop: every node performs
/// `requests_per_node` rounds, re-issuing when the reply arrives.
CentralizedLoopResult run_centralized_closed_loop(NodeId node_count, std::int64_t requests_per_node,
                                                  const DistOracle& dist,
                                                  const CentralizedConfig& config);

}  // namespace arrowdq
