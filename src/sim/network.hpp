// Point-to-point FIFO message network over a graph, driven by the simulator.
//
// Guarantees, matching the paper's model:
//  * FIFO links: messages on the same directed edge are delivered in send
//    order even under randomized latencies (later sends are clamped to not
//    overtake earlier ones).
//  * Atomic handlers: a node's handler for one message runs to completion at
//    a single simulated instant.
//  * Optional serial per-node service time: each node processes messages one
//    at a time, each occupying the node for `service_time` ticks. The
//    theoretical model of Section 3.1 has free local processing
//    (service_time = 0, the default); the Section 5 experiment reproduction
//    sets it > 0 to model a real CPU's serial message handling, which is
//    what makes the centralized protocol's home node a bottleneck.
//
// Hot-path design: each in-flight message lives in one slot of a free-listed
// pool and is dispatched through the single stored handler — no per-send
// closure, no allocation after the pool warms up. The FIFO clamp is a flat
// array indexed by the graph's dense directed-edge id (Graph::find_edge,
// O(1)).
//
// Static dispatch: the network is templated on the latency sampler, the
// handler, and the fault filter. On the default path the protocol drivers
// instantiate `Network<M, ConcreteSampler, TypedHandlerStruct>`, so a send
// samples its latency with an inlinable direct call and a delivery invokes
// the protocol handler without an indirect std::function dispatch — the
// whole send → schedule → deliver → handle chain is visible to the
// optimizer as one loop. The defaults (`VirtualSampler`, `std::function`,
// `NoFaults`) keep every legacy `Network<M>(graph, sim, model)` call site
// source-compatible on the dynamically dispatched path; with `NoFaults` the
// fault branches are `if constexpr`-eliminated, so the fault-free hot path
// is unchanged down to the instruction level (the golden hashes pin this).
//
// The trailing `Index` and `Sim` parameters generalize the edge index and
// the event arena for the scale path: `Index` is anything with Graph's
// node_count / dir_edge_count / find_edge shape (graph/implicit.hpp's
// ImplicitTreeIndex computes edges on the fly for the structured families),
// and `Sim` selects the event-slot width (CompactSimulator's 32-byte slots
// for network-sized protocol events at millions of nodes). Both default to
// the materialized types, so every existing instantiation is untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Index for drivers that never send over graph edges: the centralized and
/// pointer-forwarding baselines only make explicit-latency direct sends
/// against a distance oracle, so the network needs just the node count.
struct DirectOnlyIndex {
  NodeId n = 0;
  NodeId node_count() const { return n; }
  std::size_t dir_edge_count() const { return 0; }
  DirEdgeRef find_edge(NodeId, NodeId) const {
    ARROWDQ_ASSERT_MSG(false, "direct-only driver sent over a graph edge");
    return DirEdgeRef{};
  }
};

struct NetworkStats {
  std::uint64_t edge_messages = 0;    // messages sent over graph edges
  std::uint64_t direct_messages = 0;  // messages sent via send_with_latency
  Time total_edge_latency = 0;        // sum of sampled edge latencies (ticks)
};

template <typename M, typename Latency = VirtualSampler,
          typename Handler = std::function<void(NodeId from, NodeId to, const M& msg)>,
          typename Faults = NoFaults, typename Index = Graph, typename Sim = Simulator>
class Network {
 public:
  // Guard rails on the fast path: messages are copied in and out of the
  // in-flight pool and must stay trivially copyable and within the default
  // simulator's inline-event budget, so a future field addition cannot
  // silently push deliveries onto a slow path. (Messages live in the
  // network's own pool, never in an event slot, so the compact simulator
  // does not tighten this bound.)
  static_assert(std::is_trivially_copyable_v<M>,
                "network message types must be trivially copyable");
  static_assert(sizeof(M) <= Simulator::kInlineStorage,
                "network message types must fit the 48-byte inline-event budget");

  Network(const Index& graph, Sim& sim, Latency latency, Faults faults = Faults{})
      : graph_(graph),
        sim_(sim),
        latency_(std::move(latency)),
        faults_(std::move(faults)),
        busy_until_(static_cast<std::size_t>(graph.node_count()), 0),
        fifo_ready_(graph.dir_edge_count(), 0) {}

  void set_handler(Handler h) {
    handler_ = std::move(h);
    handler_set_ = true;
  }

  /// Serial processing cost per message at every node, in ticks.
  void set_service_time(Time ticks) {
    ARROWDQ_ASSERT_MSG(ticks >= 0, "service time must be >= 0");
    service_time_ = ticks;
  }
  Time service_time() const { return service_time_; }

  /// Capacity hint: pre-size the message pool for ~n concurrently in-flight
  /// messages.
  void reserve_messages(std::size_t n) {
    pool_.reserve(n);
    free_.reserve(n);
  }

  const Index& graph() const { return graph_; }
  Sim& sim() { return sim_; }
  Latency& latency() { return latency_; }
  Faults& faults() { return faults_; }
  const Faults& faults() const { return faults_; }
  const NetworkStats& stats() const { return stats_; }

  /// Send over graph edge {from, to}; latency sampled from the model and
  /// clamped for FIFO.
  void send(NodeId from, NodeId to, M msg) {
    // Adding edges renumbers the dense directed ids, which would silently
    // alias fifo_ready_ entries — catch any mutation, not just growth past
    // the old size. Debug-only: a per-send size re-check is pure hot-loop
    // overhead in Release.
    ARROWDQ_ASSERT(graph_.dir_edge_count() == fifo_ready_.size());
    DirEdgeRef edge = graph_.find_edge(from, to);
    ARROWDQ_ASSERT_MSG(edge, "send over a non-edge");
    Time lat = latency_(from, to, edge.weight);
    ARROWDQ_ASSERT(lat >= 1);
    bool duplicated = false;
    if constexpr (Faults::kActive) {
      EdgeFaultResult f = faults_.on_edge(from, to, lat);
      lat = f.latency;
      duplicated = f.duplicated;
    }
    Time deliver = sim_.now() + lat;
    // FIFO clamp: never deliver before an earlier message on this edge.
    Time& ready = fifo_ready_[static_cast<std::size_t>(edge.id)];
    if (deliver < ready) deliver = ready;
    if constexpr (Faults::kActive) {
      // A delivery falling inside a crash/churn window of `to` or crossing
      // an active partition cut waits the window out; the FIFO horizon
      // moves with it so link order still holds and cut backlogs drain in
      // send order at the heal instant.
      deliver = faults_.defer_edge(from, to, deliver);
    }
    ready = deliver;
    if constexpr (Faults::kActive) {
      // The duplicate copy is suppressed at the transport (the protocols
      // are not idempotent) but still occupies the link behind the
      // original, so duplication surfaces as FIFO congestion.
      if (duplicated) ready += lat;
    }
    ++stats_.edge_messages;
    stats_.total_edge_latency += lat;
    schedule_processing(from, to, deliver, msg);
  }

  /// Send with an explicit latency (ticks), e.g. along a shortest path of
  /// the underlying graph rather than a single edge. Not FIFO-clamped
  /// against edge traffic (it does not traverse a single link).
  void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
    ARROWDQ_ASSERT(latency >= 0);
    Time deliver = sim_.now() + latency;
    if constexpr (Faults::kActive) {
      deliver = sim_.now() + faults_.on_direct(from, to, latency);
      deliver = faults_.defer_edge(from, to, deliver);
    }
    ++stats_.direct_messages;
    schedule_processing(from, to, deliver, msg);
  }

 private:
  struct Pending {
    M msg;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    bool in_service = false;
  };

  /// The one event type the network schedules: 16 trivially-copyable bytes,
  /// always on the simulator's inline path.
  struct DeliveryEvent {
    Network* net;
    std::uint32_t slot;
    void operator()() const { net->deliver(slot); }
  };
  static_assert(Sim::template fits_inline_v<DeliveryEvent>,
                "DeliveryEvent must stay on the simulator's inline path");

  void schedule_processing(NodeId from, NodeId to, Time deliver, const M& msg) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      Pending& p = pool_[slot];
      p.msg = msg;
      p.from = from;
      p.to = to;
      p.in_service = false;
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Pending{msg, from, to, false});
    }
    sim_.at(deliver, DeliveryEvent{this, slot});
  }

  void deliver(std::uint32_t slot) {
    Pending& p = pool_[slot];
    if (service_time_ != 0 && !p.in_service) {
      // Arrival at a serial node: wait until the node frees up, occupy it
      // for one service interval, and re-arm this same record for the
      // completion instant.
      Time& busy = busy_until_[static_cast<std::size_t>(p.to)];
      Time start = std::max(sim_.now(), busy);
      Time done = start + service_time_;
      busy = done;
      p.in_service = true;
      sim_.at(done, DeliveryEvent{this, slot});
      return;
    }
    if constexpr (std::is_constructible_v<bool, const Handler&>) {
      ARROWDQ_ASSERT_MSG(static_cast<bool>(handler_), "no handler installed");
    } else {
      // Typed handlers carry no emptiness state of their own; the flag
      // keeps "forgot set_handler" loud under the Debug/ASan CI job.
      ARROWDQ_ASSERT(handler_set_);
    }
    // Copy the record out and recycle the slot first: the handler may send,
    // and that send can reuse this slot immediately.
    NodeId from = p.from;
    NodeId to = p.to;
    M msg = p.msg;
    free_.push_back(slot);
    handler_(from, to, msg);
  }

  const Index& graph_;
  Sim& sim_;
  Latency latency_;
  Faults faults_{};
  Handler handler_{};
  bool handler_set_ = false;
  Time service_time_ = 0;
  std::vector<Time> busy_until_;
  std::vector<Time> fifo_ready_;  // indexed by dense directed-edge id
  std::vector<Pending> pool_;
  std::vector<std::uint32_t> free_;
  NetworkStats stats_;
};

}  // namespace arrowdq
