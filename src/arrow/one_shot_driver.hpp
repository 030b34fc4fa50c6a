// The one-shot arrow driver behind ArrowEngine (serial core) and
// run_arrow_one_shot_sharded (sharded engine); sim/engine.hpp describes the
// two engines.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/recovery.hpp"
#include "graph/tree.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "support/assert.hpp"

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
/// the root is the sink holding the virtual request r0. With a live fault
/// filter on the serial engine, an ArrowRecovery (arrow/recovery.hpp) runs
/// the crash, partition and churn waves with the request root as anchor.
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
      : graph_(tree_graph),
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
    if constexpr (kRecovery) rec_.emplace(tree, anchor_, eng_.faults(), link_, last_req_);
  }

  Eng& engine() { return eng_; }

  /// Issue every real request and run to quiescence.
  void run(const RequestSet& requests) {
    for (const Request& r : requests.real()) eng_.post_initial(r.node, r.time, IssueEvent{this, r});
    if constexpr (kRecovery)
      for (RecoveryStep step : rec_->first_steps()) schedule(step);
    eng_.run();
    done_.flush();
    ARROWDQ_ASSERT_MSG(out().is_complete(), "arrow did not complete all requests");
  }

  /// Post-run pointer state (index = node, value = link target).
  std::vector<NodeId>& links() { return link_; }
  /// Recovery work done in the run (all zero where no recovery runs).
  RecoveryCounters recovery_counters() const {
    if constexpr (kRecovery) return rec_->counters();
    return {};
  }

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
    ctx.send(v, target, ArrowMsg{r.id, 1, graph_.edge_weight(v, target), epoch_of(rec_)});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const ArrowMsg& msg) {
    if constexpr (kRecovery) {
      if (msg.epoch != epoch_of(rec_)) {
        absorb(ctx, at, msg);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;  // path reversal
    if (next != at) {
      ctx.send(at, next, ArrowMsg{msg.req, msg.hops + 1,
                                  msg.dist + graph_.edge_weight(at, next), epoch_of(rec_)});
      return;
    }
    // `at` is the sink: msg.req is queued behind at's last issued request.
    RequestId pred = last_req_[ui];
    ARROWDQ_ASSERT_MSG(pred != kNoRequest, "sink without an id — broken initial state");
    if constexpr (kRecovery) pred = chain_end(pred);
    done_.record(ctx.lane(), Completion{msg.req, pred, ctx.now(), msg.hops, msg.dist});
  }

  /// Apply one recovery step (RecoveryEvent) and schedule its follow-up.
  void recover(RecoveryStep step) {
    if (auto next = rec_->apply(step, !out().is_complete())) schedule(*next);
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

  void schedule(RecoveryStep step) {
    sim().at(rec_->at(step), RecoveryEvent<ArrowOneShotDriver>{this, step});
  }

  /// Queue a stale message's request behind the live tail. The stale
  /// request may already have its own successor chain (requests that queued
  /// behind it before the wave, or behind its adopted tail after), so the
  /// live tail advances to the *end* of that chain.
  void absorb(Ctx& ctx, NodeId at, const ArrowMsg& msg) {
    const AbsorbSite site = rec_->absorb_site(at, ctx.now());
    if (site.sink == kNoNode) {
      ctx.at(site.park_until, ParkedEvent{this, at, msg});
      return;
    }
    auto si = static_cast<std::size_t>(site.sink);
    RequestId pred = chain_end(last_req_[si]);
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

  const Graph& graph_;
  Eng eng_;
  CompletionLog<Eng> done_;
  NodeId anchor_ = kNoNode;
  std::vector<NodeId> link_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
  // Recovery runs on the serial engine only; elsewhere the driver holds none.
  [[no_unique_address]] std::conditional_t<kRecovery, std::optional<ArrowRecovery>, NoRecovery>
      rec_;
};

}  // namespace arrowdq::detail
