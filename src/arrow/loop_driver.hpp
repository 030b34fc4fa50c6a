// The closed-loop arrow driver behind run_arrow_closed_loop (serial core),
// run_arrow_closed_loop_implicit (serial, implicit topology) and
// run_arrow_closed_loop_sharded / _implicit_sharded (sharded engine). One
// class template serves all four; sim/engine.hpp describes the two engines.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "arrow/closed_loop.hpp"
#include "arrow/stabilize.hpp"
#include "graph/implicit.hpp"
#include "graph/tree.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

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
/// crash recovery available (SelfStabilizer walks the real tree).
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
                                   config.notify_latency ? Time{1} : kTicksPerUnit,
                                   config.fault)),
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
      crashes_ = crash_schedule(config.fault, topo_.node_count());
      crash_rng_ = Rng(mix64(config.fault.seed ^ 0xa770c4a54ULL));
      Faults& filt = eng_.faults();
      if (!crashes_.empty() || !filt.partitions().empty() || !filt.churns().empty()) {
        if constexpr (Topo::kMaterialized) {
          stab_.emplace(*topo_.tree, root);
          // Remap the raw seeded draws to legal victims and install the
          // real tree bipartition for each cut (see one_shot_driver.hpp).
          for (std::size_t k = 0; k < filt.partitions().size(); ++k) {
            NodeId cut = remap_partition_cut(stab_->anchored(), filt.partitions()[k].victim);
            if (cut != kNoNode)
              filt.set_partition_cut(k, cut, subtree_mask(stab_->anchored(), cut));
          }
          for (std::size_t k = 0; k < filt.churns().size(); ++k)
            filt.set_churn_victim(
                k, remap_churn_victim(stab_->anchored(), filt.churns()[k].victim,
                                      config.fault.churn_leaf_only != 0));
        } else {
          // The registry keeps topology-fault schedules off the implicit
          // tier (resolve() materializes the tree instead); this is the
          // backstop for direct callers.
          ARROWDQ_ASSERT_MSG(false, "topology-fault recovery requires a materialized tree");
        }
      }
      partitions_ = filt.partitions();
      churns_ = filt.churns();
    }
  }

  Eng& engine() { return eng_; }

  ClosedLoopResult run() {
    for (NodeId v = 0; v < topo_.node_count(); ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    if constexpr (kRecovery) {
      if (!crashes_.empty()) sim().at(crashes_[0].at, CrashEvent{this, 0});
      if (!partitions_.empty()) sim().at(partitions_[0].at, PartitionEvent{this, 0});
      if (!churns_.empty()) sim().at(churns_[0].at, ChurnEvent{this, 0});
    }
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
    res.crashes = crashes_applied_;
    res.stabilize_rounds = stabilize_rounds_;
    res.stabilize_corrections = stabilize_corrections_;
    res.partitions = partitions_applied_;
    res.reselections = reselections_;
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
      if (m.epoch != epoch_) {
        absorb(ctx, at, m);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;
    if (next != at) {
      ctx.send(at, next, ArrowLoopMsg{LoopKind::kQueue, m.req, m.requester, m.hops + 1, epoch_});
      return;
    }
    // Sink found; return the predecessor identity to the requester.
    ARROWDQ_ASSERT(last_req_[ui] != kNoRequest);
    if (m.requester == at) {
      round_done(ctx, at);
    } else {
      ctx.send_with_latency(at, m.requester, notify_latency(at, m.requester),
                            ArrowLoopMsg{LoopKind::kNotify, m.req, m.requester, 0, epoch_});
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
    ctx.send(v, target, ArrowLoopMsg{LoopKind::kQueue, a, v, 1, epoch_});
  }

 private:
  /// Crash, partition and churn recovery: serial engine only.
  static constexpr bool kRecovery = Faults::kActive && !Eng::kSharded;

  /// The one event the driver schedules on every engine: issue node v's
  /// next request.
  struct IssueEvent {
    ArrowLoopDriver* driver;
    NodeId v;
    void operator()() const { driver->issue(v); }
  };
  static_assert(Topo::Sim::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  struct CrashEvent {
    ArrowLoopDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_crash(k); }
  };

  struct PartitionEvent {
    ArrowLoopDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_partition(k); }
  };

  struct HealEvent {
    ArrowLoopDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_heal(k); }
  };

  struct ChurnEvent {
    ArrowLoopDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_churn(k); }
  };

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

  Time notify_latency(NodeId from, NodeId to) const {
    if (config_.notify_latency) return config_.notify_latency(from, to);
    return kTicksPerUnit;  // complete graph, unit pairwise latency
  }

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

  NodeId current_sink() const {
    for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v)
      if (link_[static_cast<std::size_t>(v)] == v) return v;
    ARROWDQ_ASSERT_MSG(false, "no sink available to absorb a stale request");
    return kNoNode;
  }

  /// A pre-crash queue message: the pointer path it was chasing is gone, so
  /// the live sink queues the request behind its tail and answers the
  /// requester directly — the round completes, just via recovery. During a
  /// partition window the sink scan is restricted to the receiver's side of
  /// the cut; a sinkless side parks the message until the heal instant.
  void absorb(Ctx& ctx, NodeId at, const ArrowLoopMsg& m) {
    NodeId sink = kNoNode;
    const std::size_t w = eng_.faults().active_partition(ctx.now());
    if (w != Faults::kNoWindow) {
      const auto& side = eng_.faults().partition_side(w);
      if (!side.empty()) {
        const std::uint8_t tag = side[static_cast<std::size_t>(at)];
        for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v) {
          auto vi = static_cast<std::size_t>(v);
          if (side[vi] == tag && link_[vi] == v) {
            sink = v;
            break;
          }
        }
        if (sink == kNoNode) {
          ctx.at(partitions_[w].up_at, ParkedEvent{this, at, m});
          return;
        }
      }
    }
    if (sink == kNoNode) sink = current_sink();
    auto si = static_cast<std::size_t>(sink);
    ARROWDQ_ASSERT_MSG(last_req_[si] != kNoRequest, "absorbing sink without a tail");
    last_req_[si] = m.req;
    if (m.requester == sink) {
      round_done(ctx, sink);
    } else {
      ctx.send_with_latency(sink, m.requester, notify_latency(sink, m.requester),
                            ArrowLoopMsg{LoopKind::kNotify, m.req, m.requester, 0, epoch_});
    }
  }

  bool rounds_remaining() const {
    return sum_lanes(tally_).rounds <
           static_cast<std::int64_t>(topo_.node_count()) * config_.requests_per_node;
  }

  void on_crash(std::size_t k) {
    if (rounds_remaining()) {
      corrupt_and_recover(crashes_[k].victim);
      if (k + 1 < crashes_.size()) sim().at(crashes_[k + 1].at, CrashEvent{this, k + 1});
    }
  }

  /// Snapshot the pre-wave sink landscape (smallest live sink + whether the
  /// anchor already is one).
  void snapshot_sinks(NodeId& first_sink, bool& anchor_was_sink) const {
    const NodeId anchor = topo_.root();
    first_sink = kNoNode;
    anchor_was_sink = false;
    for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v) {
      if (link_[static_cast<std::size_t>(v)] == v) {
        if (first_sink == kNoNode) first_sink = v;
        if (v == anchor) anchor_was_sink = true;
      }
    }
  }

  /// The shared global recovery wave (crash, churn splice, partition heal):
  /// see arrow/one_shot_driver.hpp for the invariant argument.
  void recover_global([[maybe_unused]] NodeId first_sink,
                      [[maybe_unused]] bool anchor_was_sink) {
    if constexpr (!Topo::kMaterialized) {
      ARROWDQ_ASSERT_MSG(false, "topology-fault recovery requires a materialized tree");
    } else {
      const NodeId n = topo_.node_count();
      const NodeId anchor = topo_.root();
      ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "recovery wave with no live sink");
      RequestId adopted = last_req_[static_cast<std::size_t>(first_sink)];

      ++epoch_;

      auto h = stab_->estimate_hops(link_);
      StabilizeResult res = stab_->stabilize(link_, h, 4 * n + 8);
      ARROWDQ_ASSERT_MSG(res.converged, "self-stabilization did not converge");
      stabilize_rounds_ += res.rounds;
      stabilize_corrections_ += res.corrections;

      if (!anchor_was_sink) {
        ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-wave sink without a tail");
        last_req_[static_cast<std::size_t>(anchor)] = adopted;
      }
    }
  }

  void corrupt_and_recover([[maybe_unused]] NodeId victim) {
    if constexpr (!Topo::kMaterialized) {
      ARROWDQ_ASSERT_MSG(false, "crash recovery requires a materialized tree");
    } else {
      const NodeId n = topo_.node_count();
      const NodeId anchor = topo_.root();
      // Snapshot pending tails before corrupting anything.
      NodeId first_sink = kNoNode;
      bool anchor_was_sink = false;
      snapshot_sinks(first_sink, anchor_was_sink);
      ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "crash with no live sink");

      auto wi = static_cast<std::size_t>(victim);
      switch (crash_rng_.next_below(3)) {
        case 0: link_[wi] = victim; break;
        case 1:
          link_[wi] = static_cast<NodeId>(crash_rng_.next_below(static_cast<std::uint64_t>(n)));
          break;
        default: link_[wi] = victim == anchor ? victim : topo_.parent(victim); break;
      }

      recover_global(first_sink, anchor_was_sink);
      ++crashes_applied_;
    }
  }

  /// Partition onset: one epoch bump, then each side holding a pre-onset
  /// sink reconciles toward its side anchor and adopts the side's smallest
  /// pre-onset tail (as in the one-shot driver).
  void on_partition([[maybe_unused]] std::size_t k) {
    if constexpr (!Topo::kMaterialized) {
      ARROWDQ_ASSERT_MSG(false, "topology-fault recovery requires a materialized tree");
    } else {
      if (!rounds_remaining()) return;
      const NodeId n = topo_.node_count();
      const NodeId cut = partitions_[k].victim;
      const auto& side = eng_.faults().partition_side(k);
      ++partitions_applied_;
      if (side.empty() || cut == kNoNode) {
        sim().at(partitions_[k].up_at, HealEvent{this, k});
        return;
      }
      NodeId first_sink[2] = {kNoNode, kNoNode};
      bool anchor_sink[2] = {false, false};
      const NodeId side_anchor[2] = {topo_.root(), cut};
      for (NodeId v = 0; v < n; ++v) {
        auto vi = static_cast<std::size_t>(v);
        if (link_[vi] != v) continue;
        const std::uint8_t s = side[vi];
        if (first_sink[s] == kNoNode) first_sink[s] = v;
        if (v == side_anchor[s]) anchor_sink[s] = true;
      }

      ++epoch_;
      auto h = stab_->estimate_hops(link_);
      for (int s = 0; s < 2; ++s) {
        if (first_sink[s] == kNoNode) continue;  // frozen side
        RequestId adopted = last_req_[static_cast<std::size_t>(first_sink[s])];
        StabilizeResult res = stab_->stabilize_side(link_, h, 4 * n + 8, side,
                                                    static_cast<std::uint8_t>(s),
                                                    side_anchor[s]);
        ARROWDQ_ASSERT_MSG(res.converged, "side stabilization did not converge");
        stabilize_rounds_ += res.rounds;
        stabilize_corrections_ += res.corrections;
        if (!anchor_sink[s]) {
          ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-onset sink without a tail");
          last_req_[static_cast<std::size_t>(side_anchor[s])] = adopted;
        }
      }
      sim().at(partitions_[k].up_at, HealEvent{this, k});
    }
  }

  /// Partition heal: merge the two pointer regimes with the shared global
  /// wave; the filter's queued cross-cut backlog drains at this instant.
  /// The merge runs even when the round budget is spent — quiescence must
  /// leave a unique sink — but a finished run schedules no further windows.
  void on_heal(std::size_t k) {
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
    snapshot_sinks(first_sink, anchor_was_sink);
    recover_global(first_sink, anchor_was_sink);
    if (rounds_remaining() && k + 1 < partitions_.size())
      sim().at(partitions_[k + 1].at, PartitionEvent{this, k + 1});
  }

  /// Churn: splice the departed victim toward the root and re-center the
  /// queue with the shared global wave; the filter's node-down window
  /// covers its absence until rejoin.
  void on_churn([[maybe_unused]] std::size_t k) {
    if constexpr (!Topo::kMaterialized) {
      ARROWDQ_ASSERT_MSG(false, "topology-fault recovery requires a materialized tree");
    } else {
      if (!rounds_remaining()) return;
      const NodeId victim = churns_[k].victim;
      if (victim != kNoNode && victim != topo_.root()) {
        NodeId first_sink = kNoNode;
        bool anchor_was_sink = false;
        snapshot_sinks(first_sink, anchor_was_sink);
        link_[static_cast<std::size_t>(victim)] = stab_->anchored().parent(victim);
        recover_global(first_sink, anchor_was_sink);
        ++reselections_;
      }
      if (k + 1 < churns_.size()) sim().at(churns_[k + 1].at, ChurnEvent{this, k + 1});
    }
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
  std::int32_t epoch_ = 0;
  std::vector<CrashEventSpec> crashes_;
  std::vector<CrashEventSpec> partitions_;
  std::vector<CrashEventSpec> churns_;
  Rng crash_rng_{0};
  std::optional<SelfStabilizer> stab_;
  int stabilize_rounds_ = 0;
  int stabilize_corrections_ = 0;
  std::int32_t crashes_applied_ = 0;
  std::int32_t partitions_applied_ = 0;
  std::int32_t reselections_ = 0;
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
