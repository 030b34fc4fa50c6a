// The arrow distributed queuing protocol (Raymond 1989; Demmer-Herlihy 1998),
// exactly as described in Section 2 of the paper.
//
// State per node v:
//   link(v) — a tree neighbour or v itself; v is a *sink* iff link(v) == v.
//   id(v)   — the id of the last queuing request issued by v (⊥ if none;
//             the root starts holding the virtual request r0).
//
// Issuing a request a at v (atomic):   receiving queue(a) at u from w (atomic):
//   id(v) <- a                           next <- link(u); link(u) <- w
//   send queue(a) to link(v)             if next != u: forward queue(a) to next
//   link(v) <- v                         else: a is queued behind id(u)
//
// Degenerate case: if v is itself the sink when it issues, the request is
// queued behind v's previous request locally with zero messages — this is
// why Figure 11 reports *less than one* hop per request under contention.
#pragma once

#include <memory>
#include <vector>

#include "arrow/recovery.hpp"
#include "graph/tree.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// The wire message: queue(a) plus traversal accounting carried for
/// measurement only (a real deployment sends just the request id).
struct ArrowMsg {
  RequestId req = kNoRequest;
  std::int32_t hops = 0;  // tree edges traversed so far
  Weight dist = 0;        // weighted distance traversed so far (units)
  // Crash-recovery epoch the message was sent in. A crash invalidates all
  // in-flight queue messages (the recovery wave rebuilds the pointer state
  // they were routing through); a message from an older epoch is absorbed
  // at the current sink instead of path-reversing. Always 0 fault-free.
  std::int32_t epoch = 0;
};

/// One-shot arrow execution: issue a fixed request set, run to quiescence,
/// return the queuing outcome.
class ArrowEngine {
 public:
  /// `tree` is the pre-selected spanning tree T; `latency` decides the
  /// synchronous/asynchronous model. Both must outlive the engine.
  ArrowEngine(const Tree& tree, LatencyModel& latency);

  /// Serial per-node message processing cost (0 = the paper's free local
  /// processing).
  void set_service_time(Time ticks) { service_time_ = ticks; }

  /// Install a fault schedule (default: none). Message faults perturb
  /// delivery through the network's fault filter; crash windows corrupt the
  /// victim's pointer state and trigger a SelfStabilizer recovery wave that
  /// re-centers the queue tail at the request root before queuing resumes.
  /// Partition windows sever a subtree (cross-cut traffic queues until the
  /// heal, each side reconciles around its own sink) and churn events splice
  /// departed nodes out via the same wave. With any topology fault active
  /// the outcome still completes every request, but the pre-fault successor
  /// chain may be severed (validate() would abort), so callers must skip
  /// full-order validation for such runs.
  void set_fault(const FaultSpec& fault) { fault_ = fault; }
  const FaultSpec& fault() const { return fault_; }

  /// Statically dispatched execution: the standard latency models are
  /// devirtualized once per run and the network handler is a typed callable.
  QueuingOutcome run(const RequestSet& requests);

  /// Post-run pointer state (index = node, value = link target).
  const std::vector<NodeId>& links() const { return link_; }
  /// Post-run node that is the unique sink (the queue's tail location).
  NodeId sink_node() const;
  /// Messages sent during the last run.
  std::uint64_t messages_sent() const { return messages_; }
  /// Simulated time at which the last run went quiescent.
  Time makespan() const { return makespan_; }

  /// Degradation/recovery metrics from the last run (all zero fault-free).
  const FaultStats& fault_stats() const { return fault_stats_; }
  /// Crash, partition and churn recovery work (windows opened after the
  /// last completion never fire, so counts can fall short of a schedule).
  const RecoveryCounters& recovery() const { return recovery_; }

 private:
  /// Run the one-shot driver on the serial engine and keep its post-run
  /// state.
  template <typename Latency, typename Faults>
  QueuingOutcome run_with(Latency latency, Faults faults, const RequestSet& requests);

  const Tree& tree_;
  LatencyModel& latency_;
  Time service_time_ = 0;
  FaultSpec fault_;
  Graph tree_graph_;
  std::vector<NodeId> link_;
  std::uint64_t messages_ = 0;
  Time makespan_ = 0;
  FaultStats fault_stats_;
  RecoveryCounters recovery_;
};

/// Convenience: run arrow once on (tree, requests) under the given latency
/// model; validates the outcome before returning it.
QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests, LatencyModel& latency);

/// Synchronous-model convenience overload.
QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests);

}  // namespace arrowdq
