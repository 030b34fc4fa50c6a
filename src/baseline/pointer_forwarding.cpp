#include "baseline/pointer_forwarding.hpp"

#include "baseline/forwarding_driver.hpp"
#include "sim/engine.hpp"

namespace arrowdq {

template <typename Dist>
QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      Dist dist, const PointerForwardingConfig& config) {
  return detail::run_forwarding_one_shot(node_count, requests, dist, config, OnSerial{});
}

QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      const DistTicksFn& dist,
                                      const PointerForwardingConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return detail::run_forwarding_one_shot(node_count, requests, oracle, config, OnSerial{});
  });
}

template <typename Dist>
ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        Dist dist,
                                                        const PointerForwardingConfig& config) {
  return detail::run_forwarding_loop(node_count, requests_per_node, dist, config, OnSerial{});
}

ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        const DistTicksFn& dist,
                                                        const PointerForwardingConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return detail::run_forwarding_loop(node_count, requests_per_node, oracle, config,
                                       OnSerial{});
  });
}

// One explicit instantiation per concrete oracle in dist.hpp (see
// centralized.cpp for the rationale).
#define ARROWDQ_FORWARDING_INSTANTIATE(Dist)                                            \
  template QueuingOutcome run_pointer_forwarding<Dist>(NodeId, const RequestSet&, Dist, \
                                                       const PointerForwardingConfig&); \
  template ForwardingLoopResult run_pointer_forwarding_closed_loop<Dist>(               \
      NodeId, std::int64_t, Dist, const PointerForwardingConfig&)
ARROWDQ_FORWARDING_INSTANTIATE(UnitDist);
ARROWDQ_FORWARDING_INSTANTIATE(ApspDist);
ARROWDQ_FORWARDING_INSTANTIATE(FnDist);
ARROWDQ_FORWARDING_INSTANTIATE(PathDist);
ARROWDQ_FORWARDING_INSTANTIATE(RingDist);
ARROWDQ_FORWARDING_INSTANTIATE(GridDist);
ARROWDQ_FORWARDING_INSTANTIATE(TorusDist);
ARROWDQ_FORWARDING_INSTANTIATE(HypercubeDist);
#undef ARROWDQ_FORWARDING_INSTANTIATE

}  // namespace arrowdq
