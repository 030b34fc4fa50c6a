// The one-shot arrow driver behind ArrowEngine (serial core) and
// run_arrow_one_shot_sharded (sharded engine); sim/engine.hpp describes the
// two engines.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/stabilize.hpp"
#include "graph/tree.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace arrowdq::detail {

/// The unique sink of a quiescent pointer state.
inline NodeId unique_sink(const std::vector<NodeId>& link) {
  NodeId sink = kNoNode;
  for (NodeId v = 0; v < static_cast<NodeId>(link.size()); ++v) {
    if (link[static_cast<std::size_t>(v)] == v) {
      ARROWDQ_ASSERT_MSG(sink == kNoNode, "multiple sinks at quiescence");
      sink = v;
    }
  }
  ARROWDQ_ASSERT_MSG(sink != kNoNode, "no sink at quiescence");
  return sink;
}

/// Per-run protocol driver: owns the engine (templated on the latency
/// sampler and the fault filter, so the default path has no virtual
/// `sample`, no std::function dispatch, and no fault branches) and the
/// pointer/id state, which the caller reads back after the run.
///
/// Initial configuration: all pointers lead to the request root (Figure 1);
/// the root is the sink holding the virtual request r0.
///
/// Crash recovery (Faults::kActive, serial engine only): each crash window
/// corrupts the victim's pointer, bumps the message epoch, and runs a
/// SelfStabilizer wave that re-points every arrow toward the anchor (the
/// request root). The anchor adopts the pending queue tail of the smallest
/// pre-crash sink so queuing resumes behind a live request; tails parked at
/// other sinks are forfeited (their successor chains are severed — the cost
/// the Herlihy-Tirthapura simplification accepts). A stale queue message is
/// *absorbed*: recorded behind the current sink's tail, with the sink's tail
/// advanced to the end of the stale request's successor chain so the
/// spliced segment rejoins the live queue.
///
/// Partition windows reuse the same wave skeleton per side: at onset the
/// epoch bumps once and each side that holds a pre-onset sink is stabilized
/// toward its side anchor (the cut root for the isolated subtree, the
/// request root for the remainder), which adopts the side's smallest
/// pre-onset tail. A side with no sink is left frozen — its traffic parks
/// at the cut and drains on heal. At heal a global wave (epoch bump +
/// full stabilize + anchor adoption) merges the two pointer regimes; the
/// cross-cut backlog the filter queued drains in FIFO send order at the
/// heal instant and absorbs as stale messages.
///
/// Churn events splice the departed victim out: its pointer resets to its
/// anchored-tree parent (the deterministic re-selection) and the same
/// global wave crashes use re-centers the queue; the filter's node-down
/// window covers the victim's absence.
template <typename Latency, typename Faults, typename On = OnSerial>
class ArrowOneShotDriver {
 public:
  using Eng = typename On::template Engine<ArrowMsg, Latency,
                                           ReceiveHandler<ArrowOneShotDriver>, Faults, Graph,
                                           Simulator>;
  using Ctx = typename Eng::Ctx;

  /// `tree_graph` is `tree.as_graph()`; `tree` may be rooted anywhere.
  ArrowOneShotDriver(const Tree& tree, const Graph& tree_graph, Latency latency, Faults faults,
                     Time service_time, const RequestSet& requests, const FaultSpec& fault,
                     QueuingOutcome& out, const On& on = {})
      : tree_(tree),
        graph_(tree_graph),
        eng_(on.template make<Eng>(tree_graph, std::move(latency), std::move(faults),
                                   kTimeNever, fault)),
        done_(out, eng_.lane_count()),
        anchor_(requests.root()),
        link_(static_cast<std::size_t>(tree.node_count()), kNoNode),
        last_req_(static_cast<std::size_t>(tree.node_count()), kNoRequest) {
    ARROWDQ_ASSERT_MSG(anchor_ >= 0 && anchor_ < tree.node_count(),
                       "request root is not a tree node");
    const auto n = static_cast<std::size_t>(tree.node_count());
    // Pending events are bounded by the issue schedule plus in-flight
    // messages (at most a few per tree node at any instant).
    eng_.reserve(static_cast<std::size_t>(requests.size()) + 2 * n, 2 * n);
    eng_.set_service_time(service_time);
    eng_.set_handler(ReceiveHandler<ArrowOneShotDriver>{this});
    // Parent pointers must lead to the request root however the caller
    // rooted T.
    const Tree rooted = tree.root() == anchor_ ? tree : tree.rerooted(anchor_);
    for (NodeId v = 0; v < tree.node_count(); ++v)
      link_[static_cast<std::size_t>(v)] = v == anchor_ ? v : rooted.parent(v);
    last_req_[static_cast<std::size_t>(anchor_)] = kRootRequest;
    if constexpr (kRecovery) {
      crashes_ = crash_schedule(fault, tree.node_count());
      crash_rng_ = Rng(mix64(fault.seed ^ 0xa770c4a54ULL));
      Faults& filt = eng_.faults();
      if (!crashes_.empty() || !filt.partitions().empty() || !filt.churns().empty())
        stab_.emplace(tree_, anchor_);
      // Remap the raw seeded draws to legal victims and install the real
      // tree bipartition for each cut so the filter defers exactly the
      // cross-cut traffic (its built-in fallback only isolates one node).
      for (std::size_t k = 0; k < filt.partitions().size(); ++k) {
        NodeId cut = remap_partition_cut(stab_->anchored(), filt.partitions()[k].victim);
        if (cut != kNoNode)
          filt.set_partition_cut(k, cut, subtree_mask(stab_->anchored(), cut));
      }
      partitions_ = filt.partitions();
      for (std::size_t k = 0; k < filt.churns().size(); ++k)
        filt.set_churn_victim(k, remap_churn_victim(stab_->anchored(), filt.churns()[k].victim,
                                                    fault.churn_leaf_only != 0));
      churns_ = filt.churns();
    }
  }

  Eng& engine() { return eng_; }

  /// Issue every real request and run to quiescence.
  void run(const RequestSet& requests) {
    for (const Request& r : requests.real()) eng_.post_initial(r.node, r.time, IssueEvent{this, r});
    if constexpr (kRecovery) {
      if (!crashes_.empty()) sim().at(crashes_[0].at, CrashEvent{this, 0});
      if (!partitions_.empty()) sim().at(partitions_[0].at, PartitionEvent{this, 0});
      if (!churns_.empty()) sim().at(churns_[0].at, ChurnEvent{this, 0});
    }
    eng_.run();
    done_.flush();
    ARROWDQ_ASSERT_MSG(out().is_complete(), "arrow did not complete all requests");
  }

  /// Post-run pointer state (index = node, value = link target).
  std::vector<NodeId>& links() { return link_; }
  int stabilize_rounds() const { return stabilize_rounds_; }
  int stabilize_corrections() const { return stabilize_corrections_; }
  std::int32_t crashes_applied() const { return crashes_applied_; }
  std::int32_t partitions_applied() const { return partitions_applied_; }
  std::int32_t reselections() const { return reselections_; }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    if constexpr (Faults::kActive) {
      // A crashed node cannot issue; retry when its down window closes.
      Time up = eng_.faults().defer(r.node, ctx.now());
      if (up != ctx.now()) {
        ctx.at(up, IssueEvent{this, r});
        return;
      }
    }
    NodeId v = r.node;
    auto vi = static_cast<std::size_t>(v);
    if (link_[vi] == v) {
      // v is the sink: queue behind v's previous request locally, no messages.
      RequestId pred = last_req_[vi];
      ARROWDQ_ASSERT(pred != kNoRequest);
      if constexpr (kRecovery) pred = chain_end(pred);
      last_req_[vi] = r.id;
      done_.record(ctx.lane(), Completion{r.id, pred, ctx.now(), 0, 0});
      return;
    }
    NodeId target = link_[vi];
    last_req_[vi] = r.id;
    link_[vi] = v;
    ctx.send(v, target, ArrowMsg{r.id, 1, graph_.edge_weight(v, target), epoch_});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const ArrowMsg& msg) {
    if constexpr (kRecovery) {
      if (msg.epoch != epoch_) {
        absorb(ctx, at, msg);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;  // path reversal
    if (next != at) {
      ctx.send(at, next,
               ArrowMsg{msg.req, msg.hops + 1, msg.dist + graph_.edge_weight(at, next), epoch_});
      return;
    }
    // `at` is the sink: msg.req is queued behind at's last issued request.
    RequestId pred = last_req_[ui];
    ARROWDQ_ASSERT_MSG(pred != kNoRequest, "sink without an id — broken initial state");
    if constexpr (kRecovery) pred = chain_end(pred);
    done_.record(ctx.lane(), Completion{msg.req, pred, ctx.now(), msg.hops, msg.dist});
  }

 private:
  /// Crash, partition and churn recovery: serial engine only.
  static constexpr bool kRecovery = Faults::kActive && !Eng::kSharded;

  struct IssueEvent {
    ArrowOneShotDriver* driver;
    Request r;
    void operator()() const { driver->issue(r); }
  };
  static_assert(Simulator::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  struct CrashEvent {
    ArrowOneShotDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_crash(k); }
  };

  struct PartitionEvent {
    ArrowOneShotDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_partition(k); }
  };

  struct HealEvent {
    ArrowOneShotDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_heal(k); }
  };

  struct ChurnEvent {
    ArrowOneShotDriver* driver;
    std::size_t k;
    void operator()() const { driver->on_churn(k); }
  };

  /// A stale message whose side has no sink during a partition window: it
  /// parks at its node until the window closes, then re-enters receive()
  /// (still stale) and absorbs into the healed queue. May exceed the
  /// simulator's inline slot — the boxed fallback is fine off the hot path.
  struct ParkedEvent {
    ArrowOneShotDriver* driver;
    NodeId at;
    ArrowMsg msg;
    void operator()() const {
      Ctx ctx = driver->eng_.ctx_of(at);
      driver->receive(ctx, at, at, msg);
    }
  };

  auto& sim() { return eng_.sim(); }
  QueuingOutcome& out() { return done_.outcome(); }
  const QueuingOutcome& out() const { return done_.outcome(); }

  /// The live end of the recorded successor chain containing `id`. A stored
  /// pending tail can be superseded while faults are active: partition-side
  /// adoption copies a tail without clearing its source, and absorb's
  /// chain-end walk can land on an id another live sink also holds — so two
  /// sinks alias one chain, and whichever appends first gives the shared id
  /// a successor. Queuing behind the stale copy would then put two requests
  /// behind the same predecessor; walking to the chain end at use time makes
  /// every record site self-healing.
  RequestId chain_end(RequestId id) const {
    while (out().successor_of(id) != kNoRequest) id = out().successor_of(id);
    return id;
  }

  /// The unique live sink (smallest node id breaks transient multi-sink
  /// states, which only exist while current-epoch messages are in flight).
  NodeId current_sink() const {
    for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v)
      if (link_[static_cast<std::size_t>(v)] == v) return v;
    ARROWDQ_ASSERT_MSG(false, "no sink available to absorb a stale request");
    return kNoNode;
  }

  /// Queue a pre-crash message's request behind the live tail. The stale
  /// request may already have its own successor chain (requests that queued
  /// behind it before the crash, or behind its adopted tail after), so the
  /// live tail advances to the *end* of that chain. During a partition
  /// window the scan is restricted to the receiver's side of the cut —
  /// bookkeeping must not teleport across a severed edge — and a sinkless
  /// side parks the message until the heal instant.
  void absorb(Ctx& ctx, NodeId at, const ArrowMsg& msg) {
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
          ctx.at(partitions_[w].up_at, ParkedEvent{this, at, msg});
          return;
        }
      }
    }
    if (sink == kNoNode) sink = current_sink();
    auto si = static_cast<std::size_t>(sink);
    RequestId pred = last_req_[si];
    ARROWDQ_ASSERT_MSG(pred != kNoRequest, "absorbing sink without a tail");
    pred = chain_end(pred);
    RequestId tail = chain_end(msg.req);
    if (tail == pred) {
      // Both walks ended at the same id, so the live tail sits inside this
      // request's own chain (its tail was adopted at recovery and the queue
      // grew behind it). Recording it behind `pred` would close a successor
      // cycle; attach its chain to the end of the recorded root chain
      // instead — the root chain is disjoint from msg.req's chain because
      // both chain heads differ and recorded chains never merge.
      pred = chain_end(kRootRequest);
    }
    out().record(Completion{msg.req, pred, ctx.now(), msg.hops, msg.dist});
    last_req_[si] = tail;
  }

  void on_crash(std::size_t k) {
    if (!out().is_complete()) {
      corrupt_and_recover(crashes_[k].victim);
      if (k + 1 < crashes_.size()) sim().at(crashes_[k + 1].at, CrashEvent{this, k + 1});
    }
  }

  /// Snapshot the pre-wave sink landscape: the smallest live sink (whose
  /// tail the anchor adopts) and whether the anchor already is one.
  void snapshot_sinks(NodeId& first_sink, bool& anchor_was_sink) const {
    first_sink = kNoNode;
    anchor_was_sink = false;
    for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v) {
      if (link_[static_cast<std::size_t>(v)] == v) {
        if (first_sink == kNoNode) first_sink = v;
        if (v == anchor_) anchor_was_sink = true;
      }
    }
  }

  /// The shared global recovery wave (crash, churn splice, partition heal):
  /// invalidate every in-flight message, stabilize all pointers toward the
  /// anchor, and re-center the queue tail there. Callers snapshot *before*
  /// perturbing the pointer state.
  void recover_global(NodeId first_sink, bool anchor_was_sink) {
    const NodeId n = static_cast<NodeId>(link_.size());
    ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "recovery wave with no live sink");
    RequestId adopted = last_req_[static_cast<std::size_t>(first_sink)];

    // Every in-flight queue message now predates the recovery wave.
    ++epoch_;

    auto h = stab_->estimate_hops(link_);
    StabilizeResult res = stab_->stabilize(link_, h, 4 * n + 8);
    ARROWDQ_ASSERT_MSG(res.converged, "self-stabilization did not converge");
    stabilize_rounds_ += res.rounds;
    stabilize_corrections_ += res.corrections;

    // Adoption: the anchor is now the unique sink. If it already was one it
    // keeps its own pending tail; otherwise it adopts the smallest pre-wave
    // sink's tail (other pending tails are forfeited).
    if (!anchor_was_sink) {
      ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-wave sink without a tail");
      last_req_[static_cast<std::size_t>(anchor_)] = adopted;
    }
  }

  void corrupt_and_recover(NodeId victim) {
    const NodeId n = static_cast<NodeId>(link_.size());
    // Snapshot the pending tails before anything changes: the recovery wave
    // re-centers the queue at the anchor, which must resume from a real
    // pending request, not a stale one.
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
    snapshot_sinks(first_sink, anchor_was_sink);
    ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "crash with no live sink");

    // The victim restarts with corrupted pointer state: a spurious sink, an
    // arbitrary (possibly dangling) pointer, or a plausible tree pointer in
    // the wrong direction (which can close a cycle with a child).
    auto wi = static_cast<std::size_t>(victim);
    switch (crash_rng_.next_below(3)) {
      case 0: link_[wi] = victim; break;
      case 1:
        link_[wi] = static_cast<NodeId>(crash_rng_.next_below(static_cast<std::uint64_t>(n)));
        break;
      default: link_[wi] = victim == tree_.root() ? victim : tree_.parent(victim); break;
    }

    recover_global(first_sink, anchor_was_sink);
    ++crashes_applied_;
  }

  /// Partition onset: bump the epoch once, then reconcile each side that
  /// holds a pre-onset sink toward its side anchor. A sinkless side stays
  /// frozen — its pointers still lead to the cut, where traffic queues.
  void on_partition(std::size_t k) {
    if (out().is_complete()) return;
    const NodeId n = static_cast<NodeId>(link_.size());
    const NodeId cut = partitions_[k].victim;
    const auto& side = eng_.faults().partition_side(k);
    ++partitions_applied_;
    if (side.empty() || cut == kNoNode) {
      // Single-node tree: no edge to sever, the window is a no-op.
      sim().at(partitions_[k].up_at, HealEvent{this, k});
      return;
    }
    // Pre-onset landscape per side: smallest sink and whether the side
    // anchor already is one.
    NodeId first_sink[2] = {kNoNode, kNoNode};
    bool anchor_sink[2] = {false, false};
    const NodeId side_anchor[2] = {anchor_, cut};  // side 0 keeps the root
    for (NodeId v = 0; v < n; ++v) {
      auto vi = static_cast<std::size_t>(v);
      if (link_[vi] != v) continue;
      const std::uint8_t s = side[vi];
      if (first_sink[s] == kNoNode) first_sink[s] = v;
      if (v == side_anchor[s]) anchor_sink[s] = true;
    }

    // One epoch bump covers both sides' reconciliation.
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

  /// Partition heal: merge the two pointer regimes with the shared global
  /// wave. The filter's queued cross-cut backlog delivers at this same
  /// instant in FIFO send order and absorbs as stale traffic. The merge
  /// runs even when every request already completed — quiescence must leave
  /// a unique sink — but a finished run schedules no further windows.
  void on_heal(std::size_t k) {
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
    snapshot_sinks(first_sink, anchor_was_sink);
    recover_global(first_sink, anchor_was_sink);
    if (!out().is_complete() && k + 1 < partitions_.size())
      sim().at(partitions_[k + 1].at, PartitionEvent{this, k + 1});
  }

  /// Churn: the victim leaves for its down window. Its tree edges are
  /// spliced by the deterministic re-selection — the pointer resets toward
  /// the anchor — and the same global wave crashes use re-centers the
  /// queue. The filter's node-down window covers its absence; on rejoin it
  /// participates again with already-consistent state.
  void on_churn(std::size_t k) {
    if (out().is_complete()) return;
    const NodeId victim = churns_[k].victim;
    if (victim != kNoNode && victim != anchor_) {
      NodeId first_sink = kNoNode;
      bool anchor_was_sink = false;
      snapshot_sinks(first_sink, anchor_was_sink);
      link_[static_cast<std::size_t>(victim)] = stab_->anchored().parent(victim);
      recover_global(first_sink, anchor_was_sink);
      ++reselections_;
    }
    if (k + 1 < churns_.size()) sim().at(churns_[k + 1].at, ChurnEvent{this, k + 1});
  }

  const Tree& tree_;
  const Graph& graph_;
  Eng eng_;
  CompletionLog<Eng> done_;
  NodeId anchor_ = kNoNode;
  std::vector<NodeId> link_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
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

}  // namespace arrowdq::detail
