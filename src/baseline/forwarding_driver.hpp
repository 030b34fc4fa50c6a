// The pointer-forwarding drivers behind run_pointer_forwarding /
// run_pointer_forwarding_closed_loop (serial core) and their _sharded
// counterparts (sharded engine); sim/engine.hpp describes the two engines.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "baseline/dist.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/assert.hpp"

namespace arrowdq::detail {

struct FindMsg {
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;
  std::int32_t hops = 0;
  Weight dist_units = 0;
};

/// One-shot pointer forwarding: pointer hints plus the engine. Only direct
/// sends are made (arbitrary node pairs on the complete communication
/// graph), so the network needs no edge index and the sampler is never
/// consulted; the distance oracle is a value type, so the standard draws are
/// direct calls. The fault branch compiles out under NoFaults.
template <typename Dist, typename Faults, typename On = OnSerial>
class Forwarder {
 public:
  using Eng = typename On::template Engine<FindMsg, SyncSampler, ReceiveHandler<Forwarder>, Faults,
                                           DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::Ctx;

  Forwarder(NodeId node_count, const RequestSet& requests, Dist dist, Faults faults,
            const PointerForwardingConfig& config, QueuingOutcome& out, const On& on = {})
      : index_{node_count},
        eng_(on.template make<Eng>(index_, SyncSampler{}, std::move(faults), kTicksPerUnit,
                                   config.fault)),
        dist_(dist),
        config_(config),
        done_(out, eng_.lane_count()),
        hint_(static_cast<std::size_t>(node_count), config.initial_owner),
        last_req_(static_cast<std::size_t>(node_count), kNoRequest),
        // A single find visits each node at most a few times even under
        // heavy concurrency; this cap only exists to turn a protocol bug
        // into a loud failure instead of a hang.
        hop_cap_(8 * node_count + 16) {
    eng_.reserve(2 * static_cast<std::size_t>(requests.size()) + 2,
                 static_cast<std::size_t>(requests.size()) + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(ReceiveHandler<Forwarder>{this});
    last_req_[static_cast<std::size_t>(config.initial_owner)] = kRootRequest;
  }

  Eng& engine() { return eng_; }

  void run(const RequestSet& requests) {
    for (const Request& r : requests.real()) {
      ARROWDQ_ASSERT_MSG(r.node >= 0 && r.node < index_.node_count(), "request from a non-node");
      eng_.post_initial(r.node, r.time, IssueEvent{this, r});
    }
    eng_.run();
    done_.flush();
    if (config_.fault_stats_out != nullptr) *config_.fault_stats_out = eng_.fault_stats();
    ARROWDQ_ASSERT_MSG(done_.outcome().is_complete(),
                       "pointer forwarding did not complete all requests");
  }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    auto vi = static_cast<std::size_t>(r.node);
    if (hint_[vi] == r.node) {
      RequestId pred = last_req_[vi];
      ARROWDQ_ASSERT(pred != kNoRequest);
      last_req_[vi] = r.id;
      done_.record(ctx.lane(), Completion{r.id, pred, ctx.now(), 0, 0});
      return;
    }
    NodeId target = hint_[vi];
    last_req_[vi] = r.id;
    hint_[vi] = r.node;
    const Time d = dist_(r.node, target);
    ctx.send_with_latency(r.node, target, d, FindMsg{r.id, r.node, 1, ticks_to_units(d)});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const FindMsg& m) {
    ARROWDQ_ASSERT_MSG(m.hops <= hop_cap_, "pointer-forwarding find did not terminate");
    auto ui = static_cast<std::size_t>(at);
    NodeId next = hint_[ui];
    hint_[ui] = config_.mode == ForwardingMode::kCompressToRequester ? m.requester : from;
    if (next == at) {
      RequestId pred = last_req_[ui];
      ARROWDQ_ASSERT(pred != kNoRequest);
      done_.record(ctx.lane(), Completion{m.req, pred, ctx.now(), m.hops, m.dist_units});
      return;
    }
    const Time d = dist_(at, next);
    const Weight dist_units = m.dist_units + ticks_to_units(d);
    ctx.send_with_latency(at, next, d, FindMsg{m.req, m.requester, m.hops + 1, dist_units});
  }

 private:
  struct IssueEvent {
    Forwarder* d;
    Request r;
    void operator()() const { d->issue(r); }
  };
  static_assert(Simulator::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  DirectOnlyIndex index_;
  Eng eng_;
  Dist dist_;
  const PointerForwardingConfig& config_;
  CompletionLog<Eng> done_;
  std::vector<NodeId> hint_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
  std::int32_t hop_cap_;
};

enum class FindKind : std::uint8_t { kFind, kReply };

struct ForwardLoopMsg {
  FindKind kind = FindKind::kFind;
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;
  std::int32_t hops = 0;
};

/// Closed-loop pointer forwarding: the hint/last_req core is the one-shot
/// Forwarder's, the round structure (one outstanding request per node,
/// re-issue one service interval after the predecessor identity arrives)
/// matches the arrow closed loop's. The reply is a direct message with
/// latency dG(owner, requester); a locally satisfied request replies with
/// zero latency, exactly like the arrow loop's local case.
template <typename Dist, typename Faults, typename On = OnSerial>
class LoopForwarder {
 public:
  using Eng = typename On::template Engine<ForwardLoopMsg, SyncSampler,
                                           ReceiveHandler<LoopForwarder>, Faults,
                                           DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::Ctx;

  LoopForwarder(NodeId node_count, std::int64_t reqs_per_node, Dist dist, Faults faults,
                const PointerForwardingConfig& config, const On& on = {})
      : index_{node_count},
        eng_(on.template make<Eng>(index_, SyncSampler{}, std::move(faults), kTicksPerUnit,
                                   config.fault)),
        dist_(dist),
        config_(config),
        requests_per_node_(reqs_per_node),
        hint_(static_cast<std::size_t>(node_count), config.initial_owner),
        last_req_(static_cast<std::size_t>(node_count), kNoRequest),
        issued_(static_cast<std::size_t>(node_count), 0),
        issue_time_(static_cast<std::size_t>(node_count), 0),
        tally_(static_cast<std::size_t>(eng_.lane_count())),
        hop_cap_(8 * node_count + 16) {
    // One outstanding request per node bounds pending events/messages to O(n).
    const auto n = static_cast<std::size_t>(node_count);
    eng_.reserve(4 * n, 2 * n);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(ReceiveHandler<LoopForwarder>{this});
    last_req_[static_cast<std::size_t>(config.initial_owner)] = kRootRequest;
  }

  Eng& engine() { return eng_; }

  ForwardingLoopResult run() {
    const NodeId n = index_.node_count();
    for (NodeId v = 0; v < n; ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    eng_.run();
    const LaneTally total = sum_lanes(tally_);
    ForwardingLoopResult res;
    res.makespan = eng_.makespan();
    res.total_requests = static_cast<std::int64_t>(n) * requests_per_node_;
    res.find_messages = total.find_messages;
    res.reply_messages = total.reply_messages;
    res.avg_hops_per_request =
        res.total_requests == 0
            ? 0.0
            : static_cast<double>(res.find_messages) / static_cast<double>(res.total_requests);
    res.avg_round_latency_units = mean_round_units(total);
    const FaultStats fs = eng_.fault_stats();
    res.messages_dropped = fs.messages_dropped;
    res.messages_duplicated = fs.messages_duplicated;
    res.partition_backlog = fs.partition_deferred;
    if constexpr (Faults::kActive)
      res.crashes = static_cast<std::int32_t>(eng_.faults().crashes().size());
    return res;
  }

  void issue(NodeId v) {
    Ctx ctx = eng_.ctx_of(v);
    auto vi = static_cast<std::size_t>(v);
    if (issued_[vi] >= requests_per_node_) return;
    ++issued_[vi];
    issue_time_[vi] = ctx.now();
    LaneTally& t = tally(ctx);
    RequestId a = t.next_id(ctx.lane(), eng_.lane_count());
    if (hint_[vi] == v) {
      ARROWDQ_ASSERT(last_req_[vi] != kNoRequest);
      last_req_[vi] = a;
      round_done(ctx, v);  // predecessor found locally: the reply is local too
      return;
    }
    NodeId target = hint_[vi];
    last_req_[vi] = a;
    hint_[vi] = v;
    ++t.find_messages;
    ctx.send_with_latency(v, target, dist_(v, target), ForwardLoopMsg{FindKind::kFind, a, v, 1});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const ForwardLoopMsg& m) {
    if (m.kind == FindKind::kReply) {
      round_done(ctx, at);
      return;
    }
    ARROWDQ_ASSERT_MSG(m.hops <= hop_cap_, "pointer-forwarding find did not terminate");
    auto ui = static_cast<std::size_t>(at);
    NodeId next = hint_[ui];
    hint_[ui] = config_.mode == ForwardingMode::kCompressToRequester ? m.requester : from;
    if (next == at) {
      // Owner found; return the predecessor identity to the requester (the
      // reply's req field carries last_req, not the requester's own id —
      // it is what the requester "learns", though only the arrival instant
      // drives the round structure).
      ARROWDQ_ASSERT(last_req_[ui] != kNoRequest);
      if (m.requester == at) {
        round_done(ctx, at);
      } else {
        ++tally(ctx).reply_messages;
        ctx.send_with_latency(at, m.requester, dist_(at, m.requester),
                              ForwardLoopMsg{FindKind::kReply, last_req_[ui], m.requester, 0});
      }
      return;
    }
    ++tally(ctx).find_messages;
    ctx.send_with_latency(at, next, dist_(at, next),
                          ForwardLoopMsg{FindKind::kFind, m.req, m.requester, m.hops + 1});
  }

 private:
  struct IssueEvent {
    LoopForwarder* d;
    NodeId v;
    void operator()() const { d->issue(v); }
  };
  static_assert(Simulator::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  LaneTally& tally(const Ctx& ctx) { return tally_[static_cast<std::size_t>(ctx.lane())]; }

  void round_done(Ctx& ctx, NodeId v) {
    LaneTally& t = tally(ctx);
    t.latency_sum += ctx.now() - issue_time_[static_cast<std::size_t>(v)];
    ++t.rounds;
    // Re-issue through the event loop: preparing the next request costs one
    // service interval of local CPU time (same rule as the arrow loop).
    ctx.in(config_.service_time, IssueEvent{this, v});
  }

  DirectOnlyIndex index_;
  Eng eng_;
  Dist dist_;
  const PointerForwardingConfig& config_;
  std::int64_t requests_per_node_;
  std::vector<NodeId> hint_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
  std::vector<std::int64_t> issued_;
  std::vector<Time> issue_time_;
  std::vector<LaneTally> tally_;
  std::int32_t hop_cap_;
};

/// Run one-shot pointer forwarding with the given engine selector.
template <typename On>
QueuingOutcome run_forwarding_one_shot(NodeId node_count, const RequestSet& requests,
                                       const DistOracle& dist,
                                       const PointerForwardingConfig& config, const On& on) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");
  ARROWDQ_ASSERT_MSG(requests.root() == config.initial_owner,
                     "request-set root must equal the initial owner");
  QueuingOutcome out(requests.size());
  std::visit(
      [&](const auto& oracle) {
        with_fault_filter(config.fault, node_count, [&](auto filt) {
          Forwarder<std::decay_t<decltype(oracle)>, decltype(filt), On> driver(
              node_count, requests, oracle, std::move(filt), config, out, on);
          driver.run(requests);
        });
      },
      dist);
  return out;
}

/// Run the pointer-forwarding closed loop with the given engine selector.
template <typename On>
ForwardingLoopResult run_forwarding_loop(NodeId node_count, std::int64_t requests_per_node,
                                         const DistOracle& dist,
                                         const PointerForwardingConfig& config, const On& on) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(requests_per_node >= 0, "requests_per_node must be >= 0");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");
  return std::visit(
      [&](const auto& oracle) {
        return with_fault_filter(config.fault, node_count, [&](auto filt) {
          LoopForwarder<std::decay_t<decltype(oracle)>, decltype(filt), On> driver(
              node_count, requests_per_node, oracle, std::move(filt), config, on);
          return driver.run();
        });
      },
      dist);
}

}  // namespace arrowdq::detail
