// The closed-loop arrow driver behind run_arrow_closed_loop (serial core),
// run_arrow_closed_loop_implicit (serial, implicit topology) and
// run_arrow_closed_loop_sharded / _implicit_sharded (sharded engine). One
// class template serves all four; sim/engine.hpp describes the two engines.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "arrow/closed_loop.hpp"
#include "arrow/recovery.hpp"
#include "graph/implicit.hpp"
#include "graph/tree.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/assert.hpp"

namespace arrowdq::detail {

enum class LoopKind : std::uint8_t { kQueue, kNotify };

struct ArrowLoopMsg {
  LoopKind kind = LoopKind::kQueue;
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;  // issuer of `req` (for the reply)
  std::int32_t hops = 0;
  std::int32_t epoch = 0;  // crash-recovery epoch (kQueue only); 0 fault-free
};

/// Topology policies for the closed-loop driver. The protocol core reads
/// only node_count / root / parent plus a Network-compatible edge index, so
/// one driver implementation serves both tiers — which is what makes the
/// implicit path tick-identical to the materialized one by construction.
///
/// Materialized: a Tree and its Graph, the default 64-byte event slots,
/// fault recovery available (arrow/recovery.hpp walks the real tree).
struct MaterializedTopo {
  const Tree* tree = nullptr;
  using Index = Graph;
  using Sim = Simulator;
  /// Round counters are kept wide; requests_per_node is an int64 axis.
  using RoundCount = std::int64_t;
  static constexpr bool kMaterialized = true;
  NodeId node_count() const { return tree->node_count(); }
  NodeId root() const { return tree->root(); }
  NodeId parent(NodeId v) const { return tree->parent(v); }
  Index make_index() const { return tree->as_graph(); }
};

/// Implicit: closed-form parents and on-the-fly edge ids (no stored Graph,
/// no stored parent array), CompactSimulator's 32-byte event slots, 32-bit
/// round counters — the compact configuration for million-node runs.
struct ImplicitLoopTopo {
  ImplicitTopology topo;
  using Index = ImplicitTreeIndex;
  using Sim = CompactSimulator;
  using RoundCount = std::int32_t;
  static constexpr bool kMaterialized = false;
  NodeId node_count() const { return topo.n; }
  NodeId root() const { return topo.root; }
  NodeId parent(NodeId v) const { return topo.tree_parent(v); }
  Index make_index() const { return ImplicitTreeIndex{topo}; }
};

/// Closed-loop arrow driver. The protocol core matches ArrowEngine's;
/// requests are generated on the fly, one outstanding per node. Templated on
/// the latency sampler and fault filter (static dispatch, no fault branches
/// under NoFaults), on the topology policy (materialized or implicit), and
/// on the engine selector (serial core or sharded engine).
template <typename Latency, typename Faults, typename Topo, typename On = OnSerial>
class ArrowLoopDriver {
 public:
  using Eng = typename On::template Engine<ArrowLoopMsg, Latency, ReceiveHandler<ArrowLoopDriver>,
                                           Faults, typename Topo::Index, typename Topo::Sim>;
  using Ctx = typename Eng::Ctx;

  ArrowLoopDriver(Topo topo, Latency latency, Faults faults, const ClosedLoopConfig& config,
                  const On& on = {})
      : topo_(std::move(topo)),
        config_(config),
        index_(topo_.make_index()),
        eng_(on.template make<Eng>(index_, std::move(latency), std::move(faults),
                                   kTicksPerUnit, config.fault)),
        link_(static_cast<std::size_t>(topo_.node_count())),
        last_req_(static_cast<std::size_t>(topo_.node_count()), kNoRequest),
        issued_(static_cast<std::size_t>(topo_.node_count()), 0),
        issue_time_(static_cast<std::size_t>(topo_.node_count()), 0),
        tally_(static_cast<std::size_t>(eng_.lane_count())) {
    // One outstanding request per node bounds concurrently pending events
    // and in-flight messages to O(n).
    const auto n = static_cast<std::size_t>(topo_.node_count());
    if constexpr (Topo::kMaterialized) {
      eng_.reserve(4 * n, 2 * n);
    } else {
      // At million-node scale the reserve itself is the memory budget:
      // ~n events (every node's t=0 issue) and ~n in-flight messages are
      // live at once; growth past the hint stays amortized.
      eng_.reserve(n + n / 4 + 64, n + n / 4 + 64);
    }
    eng_.set_service_time(config.service_time);
    eng_.set_handler(ReceiveHandler<ArrowLoopDriver>{this});
    NodeId root = topo_.root();
    for (NodeId v = 0; v < topo_.node_count(); ++v)
      link_[static_cast<std::size_t>(v)] = v == root ? v : topo_.parent(v);
    last_req_[static_cast<std::size_t>(root)] = kRootRequest;
    if constexpr (kRecovery) {
      rec_.emplace(*topo_.tree, root, eng_.faults(), link_, last_req_);
    } else if constexpr (Faults::kActive && !Topo::kMaterialized) {
      // The registry keeps topology-fault schedules off the implicit tier
      // (resolve() materializes the tree instead); this is the backstop for
      // direct callers.
      ARROWDQ_ASSERT_MSG(!config.fault.has_topology_faults(),
                         "topology-fault recovery requires a materialized tree");
    }
  }

  Eng& engine() { return eng_; }

  ClosedLoopResult run() {
    for (NodeId v = 0; v < topo_.node_count(); ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    if constexpr (kRecovery)
      for (RecoveryStep step : rec_->first_steps()) schedule(step);
    eng_.run();
    ClosedLoopResult res;
    res.makespan = eng_.makespan();
    res.total_requests = static_cast<std::int64_t>(topo_.node_count()) *
                         config_.requests_per_node;
    res.tree_messages = eng_.stats().edge_messages;
    res.notify_messages = eng_.stats().direct_messages;
    res.avg_hops_per_request =
        res.total_requests == 0
            ? 0.0
            : static_cast<double>(res.tree_messages) / static_cast<double>(res.total_requests);
    res.avg_round_latency_units = mean_round_units(sum_lanes(tally_));
    const FaultStats fs = eng_.fault_stats();
    res.messages_dropped = fs.messages_dropped;
    res.messages_duplicated = fs.messages_duplicated;
    res.partition_backlog = fs.partition_deferred;
    if constexpr (kRecovery) res.recovery = rec_->counters();
    return res;
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const ArrowLoopMsg& m) {
    if (m.kind == LoopKind::kNotify) {
      // Replies ride outside the pointer dynamics, so they stay valid
      // across recovery waves — no epoch check.
      round_done(ctx, at);
      return;
    }
    if constexpr (kRecovery) {
      if (m.epoch != epoch_of(rec_)) {
        absorb(ctx, at, m);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;
    if (next != at) {
      ctx.send(at, next,
               ArrowLoopMsg{LoopKind::kQueue, m.req, m.requester, m.hops + 1, epoch_of(rec_)});
      return;
    }
    // Sink found; return the predecessor identity to the requester.
    ARROWDQ_ASSERT(last_req_[ui] != kNoRequest);
    if (m.requester == at) {
      round_done(ctx, at);
    } else {
      ctx.send_with_latency(at, m.requester, kTicksPerUnit,
                            ArrowLoopMsg{LoopKind::kNotify, m.req, m.requester, 0, epoch_of(rec_)});
    }
  }

  void issue(NodeId v) {
    Ctx ctx = eng_.ctx_of(v);
    auto vi = static_cast<std::size_t>(v);
    if (issued_[vi] >= config_.requests_per_node) return;
    if constexpr (Faults::kActive) {
      // A crashed node cannot issue; retry when its down window closes.
      Time up = eng_.faults().defer(v, ctx.now());
      if (up != ctx.now()) {
        ctx.at(up, IssueEvent{this, v});
        return;
      }
    }
    ++issued_[vi];
    RequestId a = tally(ctx).next_id(ctx.lane(), eng_.lane_count());
    issue_time_[vi] = ctx.now();
    if (link_[vi] == v) {
      RequestId pred = last_req_[vi];
      ARROWDQ_ASSERT(pred != kNoRequest);
      last_req_[vi] = a;
      // Predecessor found locally: the reply is local too (zero latency).
      round_done(ctx, v);
      return;
    }
    NodeId target = link_[vi];
    last_req_[vi] = a;
    link_[vi] = v;
    ctx.send(v, target, ArrowLoopMsg{LoopKind::kQueue, a, v, 1, epoch_of(rec_)});
  }

  /// Apply one recovery step (RecoveryEvent) and schedule its follow-up.
  void recover(RecoveryStep step) {
    if (auto next = rec_->apply(step, rounds_remaining())) schedule(*next);
  }

 private:
  /// Crash, partition and churn recovery: serial engine, materialized tree.
  static constexpr bool kRecovery = Faults::kActive && !Eng::kSharded && Topo::kMaterialized;

  /// The one event the driver schedules on every engine: issue node v's
  /// next request.
  struct IssueEvent {
    ArrowLoopDriver* driver;
    NodeId v;
    void operator()() const { driver->issue(v); }
  };
  static_assert(Topo::Sim::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  /// A stale queue message whose side has no sink during a partition
  /// window: park it until the window closes, then re-enter receive(). May
  /// exceed the simulator's inline slot — boxing is fine off the hot path.
  struct ParkedEvent {
    ArrowLoopDriver* driver;
    NodeId at;
    ArrowLoopMsg msg;
    void operator()() const {
      Ctx ctx = driver->eng_.ctx_of(at);
      driver->receive(ctx, at, at, msg);
    }
  };

  auto& sim() { return eng_.sim(); }
  LaneTally& tally(const Ctx& ctx) { return tally_[static_cast<std::size_t>(ctx.lane())]; }

  void round_done(Ctx& ctx, NodeId v) {
    LaneTally& t = tally(ctx);
    t.latency_sum += ctx.now() - issue_time_[static_cast<std::size_t>(v)];
    ++t.rounds;
    // Re-issue through the event loop (not recursively) so long local-only
    // streaks do not grow the call stack. Preparing the next request costs
    // one service interval of local CPU time — without this, a node holding
    // the tail would complete its whole budget of local requests in zero
    // simulated time, which no real processor can do.
    ctx.in(config_.service_time, IssueEvent{this, v});
  }

  void schedule(RecoveryStep step) {
    sim().at(rec_->at(step), RecoveryEvent<ArrowLoopDriver>{this, step});
  }

  /// A stale queue message: the pointer path it was chasing is gone, so the
  /// live sink queues the request behind its tail and answers the requester
  /// directly — the round completes, just via recovery.
  void absorb(Ctx& ctx, NodeId at, const ArrowLoopMsg& m) {
    const AbsorbSite site = rec_->absorb_site(at, ctx.now());
    if (site.sink == kNoNode) {
      ctx.at(site.park_until, ParkedEvent{this, at, m});
      return;
    }
    const NodeId sink = site.sink;
    last_req_[static_cast<std::size_t>(sink)] = m.req;
    if (m.requester == sink) {
      round_done(ctx, sink);
    } else {
      ctx.send_with_latency(sink, m.requester, kTicksPerUnit,
                            ArrowLoopMsg{LoopKind::kNotify, m.req, m.requester, 0, epoch_of(rec_)});
    }
  }

  bool rounds_remaining() const {
    return sum_lanes(tally_).rounds <
           static_cast<std::int64_t>(topo_.node_count()) * config_.requests_per_node;
  }

  Topo topo_;
  const ClosedLoopConfig& config_;
  typename Topo::Index index_;
  Eng eng_;
  std::vector<NodeId> link_;          // element-owned by the node's lane
  std::vector<RequestId> last_req_;   // element-owned by the node's lane
  std::vector<typename Topo::RoundCount> issued_;
  std::vector<Time> issue_time_;
  std::vector<LaneTally> tally_;
  // Recovery runs on the serial engine only; elsewhere the driver holds none.
  [[no_unique_address]] std::conditional_t<kRecovery, std::optional<ArrowRecovery>, NoRecovery>
      rec_;
};

/// Run the closed loop on `topo` with the given engine selector: one-time
/// static dispatch of the latency model and the fault filter, then the
/// driver.
template <typename Topo, typename On>
ClosedLoopResult run_arrow_loop(Topo topo, LatencyModel& latency, const ClosedLoopConfig& config,
                                const On& on) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node >= 0, "requests_per_node must be >= 0");
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(config.fault, topo.node_count(), [&](auto filt) {
      ArrowLoopDriver<decltype(lat), decltype(filt), Topo, On> driver(
          topo, std::move(lat), std::move(filt), config, on);
      return driver.run();
    });
  });
}

}  // namespace arrowdq::detail
