// The centralized one-shot driver behind run_centralized (serial core) and
// run_centralized_sharded (sharded engine); sim/engine.hpp describes the two
// engines. The closed loop (centralized.cpp) runs on the serial core only.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "baseline/centralized.hpp"
#include "baseline/dist.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/assert.hpp"

namespace arrowdq::detail {

enum class CentralKind : std::uint8_t { kRequest, kReply };

struct CentralMsg {
  CentralKind kind = CentralKind::kRequest;
  RequestId req = kNoRequest;
  RequestId pred = kNoRequest;
  NodeId requester = kNoNode;
};

/// A star-shaped protocol: every request goes to the center, a reply
/// returns. Only direct sends are made (latency from the distance oracle),
/// so the network needs no edge index and the sampler is never consulted.
/// Templated on the DistOracle alternative so the per-message distance draw
/// is a direct call; the fault branch compiles out under NoFaults.
template <typename Dist, typename Faults, typename On = OnSerial>
class CentralOneShot {
 public:
  using Eng = typename On::template Engine<CentralMsg, SyncSampler, ReceiveHandler<CentralOneShot>,
                                           Faults, DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::Ctx;

  CentralOneShot(NodeId node_count, const RequestSet& requests, Dist dist, Faults faults,
                 const CentralizedConfig& config, QueuingOutcome& out, const On& on = {})
      : index_{node_count},
        eng_(on.template make<Eng>(index_, SyncSampler{}, std::move(faults), kTicksPerUnit,
                                   config.fault)),
        dist_(dist),
        config_(config),
        done_(out, eng_.lane_count()),
        travel_(static_cast<std::size_t>(requests.size()) + 1, 0) {
    ARROWDQ_ASSERT_MSG(config.center >= 0 && config.center < node_count,
                       "center must be a node");
    eng_.reserve(2 * static_cast<std::size_t>(requests.size()) + 2,
                 static_cast<std::size_t>(requests.size()) + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(ReceiveHandler<CentralOneShot>{this});
  }

  Eng& engine() { return eng_; }

  void run(const RequestSet& requests) {
    const NodeId center = config_.center;
    for (const Request& r : requests.real()) {
      ARROWDQ_ASSERT_MSG(r.node >= 0 && r.node < index_.node_count(), "request from a non-node");
      eng_.post_initial(r.node, r.time, IssueEvent{this, r});
      travel_[static_cast<std::size_t>(r.id)] = ticks_to_units(dist(r.node, center));
    }
    eng_.run();
    done_.flush();
    if (config_.fault_stats_out != nullptr) *config_.fault_stats_out = eng_.fault_stats();
    ARROWDQ_ASSERT_MSG(done_.outcome().is_complete(),
                       "centralized protocol did not complete all requests");
  }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    const NodeId center = config_.center;
    if (r.node == center) {
      RequestId pred = enqueue(r.id);
      done_.record(ctx.lane(), Completion{r.id, pred, ctx.now(), 0, 0});
      return;
    }
    ctx.send_with_latency(r.node, center, dist(r.node, center),
                          CentralMsg{CentralKind::kRequest, r.id, kNoRequest, r.node});
  }

  void receive(Ctx& ctx, NodeId /*from*/, NodeId at, const CentralMsg& m) {
    const NodeId center = config_.center;
    const Weight travel = travel_[static_cast<std::size_t>(m.req)];
    if (m.kind == CentralKind::kRequest) {
      ARROWDQ_ASSERT(at == center);
      RequestId pred = enqueue(m.req);
      if (m.requester == center) {
        done_.record(ctx.lane(), Completion{m.req, pred, ctx.now(), /*hops=*/1, travel});
      } else {
        ctx.send_with_latency(center, m.requester, dist(center, m.requester),
                              CentralMsg{CentralKind::kReply, m.req, pred, m.requester});
      }
    } else {
      done_.record(ctx.lane(), Completion{m.req, m.pred, ctx.now(), /*hops=*/2, 2 * travel});
    }
  }

 private:
  struct IssueEvent {
    CentralOneShot* d;
    Request r;
    void operator()() const { d->issue(r); }
  };
  static_assert(Simulator::template fits_inline_v<IssueEvent>,
                "IssueEvent must stay on the simulator's inline path");

  /// Processes a request at the center: returns the predecessor and
  /// advances the tail. Only events at the center touch the tail, so on the
  /// sharded engine it is single-writer (the center's lane).
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
  CompletionLog<Eng> done_;
  std::vector<Weight> travel_;  // filled before the run, read-only during it
  RequestId tail_ = kRootRequest;
};

/// Run the centralized one-shot with the given engine selector.
template <typename On>
QueuingOutcome run_centralized_one_shot(NodeId node_count, const RequestSet& requests,
                                        const DistOracle& dist, const CentralizedConfig& config,
                                        const On& on) {
  QueuingOutcome out(requests.size());
  std::visit(
      [&](const auto& oracle) {
        with_fault_filter(config.fault, node_count, [&](auto filt) {
          CentralOneShot<std::decay_t<decltype(oracle)>, decltype(filt), On> driver(
              node_count, requests, oracle, std::move(filt), config, out, on);
          driver.run(requests);
        });
      },
      dist);
  return out;
}

}  // namespace arrowdq::detail
