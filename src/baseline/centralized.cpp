#include "baseline/centralized.hpp"

#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "baseline/centralized_driver.hpp"
#include "sim/engine.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace arrowdq {

namespace {

using detail::CentralKind;
using detail::CentralMsg;

/// The centralized closed loop (serial core only: its Welford mean is
/// order-dependent, so it has no sharded run). Every node performs
/// `requests_per_node` rounds, re-issuing one service interval after the
/// center's reply arrives.
template <typename Dist, typename Faults>
class CentralLoop {
 public:
  using Eng = SerialNetSim<CentralMsg, SyncSampler, ReceiveHandler<CentralLoop>, Faults,
                           DirectOnlyIndex>;
  using Ctx = typename Eng::Ctx;

  CentralLoop(NodeId node_count, std::int64_t reqs_per_node, Dist dist, Faults faults,
              const CentralizedConfig& config)
      : index_{node_count},
        eng_(index_, SyncSampler{}, std::move(faults)),
        dist_(dist),
        config_(config),
        requests_per_node_(reqs_per_node),
        issued_(static_cast<std::size_t>(node_count), 0),
        issue_time_(static_cast<std::size_t>(node_count), 0) {
    ARROWDQ_ASSERT_MSG(config.center >= 0 && config.center < node_count,
                       "center must be a node");
    eng_.reserve(2 * static_cast<std::size_t>(node_count) + 2,
                 static_cast<std::size_t>(node_count) + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(ReceiveHandler<CentralLoop>{this});
  }

  Eng& engine() { return eng_; }

  CentralizedLoopResult run() {
    const NodeId n = index_.node_count();
    for (NodeId v = 0; v < n; ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    eng_.run();
    CentralizedLoopResult res;
    res.makespan = eng_.makespan();
    res.total_requests = static_cast<std::int64_t>(n) * requests_per_node_;
    res.messages = eng_.stats().direct_messages;
    res.avg_round_latency_units =
        latencies_.count() == 0 ? 0.0 : latencies_.mean() / static_cast<double>(kTicksPerUnit);
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
    RequestId a = ++next_id_;
    const NodeId center = config_.center;
    if (v == center) {
      enqueue(a);
      latencies_.add(0.0);
      ctx.in(config_.service_time, IssueEvent{this, v});
      return;
    }
    ctx.send_with_latency(v, center, dist(v, center),
                          CentralMsg{CentralKind::kRequest, a, kNoRequest, v});
  }

  void receive(Ctx& ctx, NodeId /*from*/, NodeId at, const CentralMsg& m) {
    const NodeId center = config_.center;
    if (m.kind == CentralKind::kRequest) {
      RequestId pred = enqueue(m.req);
      ctx.send_with_latency(center, m.requester, dist(center, m.requester),
                            CentralMsg{CentralKind::kReply, m.req, pred, m.requester});
    } else {
      auto vi = static_cast<std::size_t>(at);
      latencies_.add(static_cast<double>(ctx.now() - issue_time_[vi]));
      ctx.in(config_.service_time, IssueEvent{this, at});
    }
  }

 private:
  struct IssueEvent {
    CentralLoop* d;
    NodeId v;
    void operator()() const { d->issue(v); }
  };
  static_assert(Simulator::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  RequestId enqueue(RequestId req) {
    RequestId pred = tail_;
    tail_ = req;
    return pred;
  }

  Time dist(NodeId u, NodeId v) const { return u == v ? Time{0} : dist_(u, v); }

  DirectOnlyIndex index_;
  Eng eng_;
  Dist dist_;
  const CentralizedConfig& config_;
  std::int64_t requests_per_node_;
  std::vector<std::int64_t> issued_;
  std::vector<Time> issue_time_;
  StatAccumulator latencies_;
  RequestId next_id_ = kRootRequest;
  RequestId tail_ = kRootRequest;
};

}  // namespace

QueuingOutcome run_centralized(NodeId node_count, const RequestSet& requests,
                               const DistOracle& dist, const CentralizedConfig& config) {
  return detail::run_centralized_one_shot(node_count, requests, dist, config, OnSerial{});
}

CentralizedLoopResult run_centralized_closed_loop(NodeId node_count,
                                                  std::int64_t requests_per_node,
                                                  const DistOracle& dist,
                                                  const CentralizedConfig& config) {
  return std::visit(
      [&](const auto& oracle) {
        return with_fault_filter(config.fault, node_count, [&](auto filt) {
          CentralLoop<std::decay_t<decltype(oracle)>, decltype(filt)> driver(
              node_count, requests_per_node, oracle, std::move(filt), config);
          return driver.run();
        });
      },
      dist);
}

}  // namespace arrowdq
