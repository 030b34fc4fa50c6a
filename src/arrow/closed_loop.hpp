// Closed-loop experiment driver reproducing Section 5's measurement:
// "Each processor issued the next queuing request immediately after it
//  learnt about the completion of its previous request", with completion
// defined as "the identity of the predecessor was returned to the processor".
//
// Per round, a processor v issues queue(a); the queue message finds the sink
// w (zero messages if v is itself the sink); w then returns the predecessor
// identity to v as a direct message of one unit (the complete-graph SP2
// setup); on receipt v issues its next request.
//
// Figure 10 plots the total makespan for `requests_per_node` rounds per
// processor as the node count grows; Figure 11 plots the average number of
// tree messages (hops) per queuing operation.
#pragma once

#include <cstdint>

#include "arrow/recovery.hpp"
#include "graph/implicit.hpp"
#include "graph/tree.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace arrowdq {

struct ClosedLoopConfig {
  std::int64_t requests_per_node = 1000;
  /// Serial per-node message processing cost in ticks. Section 5 ran on real
  /// CPUs whose message handling serializes; 0 reproduces the cost-free
  /// local processing of the theoretical model.
  Time service_time = 0;
  /// Fault schedule (default: none). Crash windows corrupt the victim's
  /// pointer state and run a SelfStabilizer recovery wave; stale queue
  /// messages are absorbed at the live sink and answered from there.
  /// Partition windows sever a subtree (cross-cut queue and notify traffic
  /// defers to the heal instant and drains FIFO) and churn events splice a
  /// departed node toward the root via the same wave. Note a fault window
  /// scheduled past the last round completion still extends the makespan by
  /// its (empty) trailing event.
  FaultSpec fault;
};

struct ClosedLoopResult {
  Time makespan = 0;                   // ticks until every node finished
  std::int64_t total_requests = 0;
  std::uint64_t tree_messages = 0;     // queue() messages over tree edges
  std::uint64_t notify_messages = 0;   // predecessor-identity replies
  double avg_hops_per_request = 0.0;   // Figure 11's metric
  double avg_round_latency_units = 0.0;  // mean issue->reply time per request
  // Degradation/recovery metrics (all zero fault-free).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t partition_backlog = 0;     // cross-cut messages queued, drained at heal
  RecoveryCounters recovery;
};

/// Run the closed-loop workload with the arrow protocol on spanning tree T.
/// Statically dispatched: the four standard latency models are devirtualized
/// once per run and the network handler is a typed callable (no per-message
/// vtable or std::function indirection).
ClosedLoopResult run_arrow_closed_loop(const Tree& tree, LatencyModel& latency,
                                       const ClosedLoopConfig& config);

/// The scale path: the same closed-loop driver on an implicit topology
/// (graph/implicit.hpp) — tree parents computed in closed form, network edge
/// ids derived on the fly, CompactSimulator's 32-byte event slots, 32-bit
/// round counters. No Graph, Tree, or APSP is materialized, so memory is a
/// small constant per node and Figure-10-style runs reach n = 10^6-10^7.
/// Tick-identical to run_arrow_closed_loop on the materialized equivalent
/// of `topo` by construction (one driver implementation; pinned by
/// tests/scale_test.cpp). Topology faults (crash, partition, churn) are not
/// supported here — the recovery waves need a real Tree — and are rejected
/// by assertion; message-level faults (loss, duplication, jitter, spikes)
/// work normally.
ClosedLoopResult run_arrow_closed_loop_implicit(const ImplicitTopology& topo,
                                                LatencyModel& latency,
                                                const ClosedLoopConfig& config);

}  // namespace arrowdq
