#include "baseline/pointer_forwarding.hpp"

#include "baseline/forwarding_driver.hpp"
#include "sim/engine.hpp"

namespace arrowdq {

QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      const DistOracle& dist,
                                      const PointerForwardingConfig& config) {
  return detail::run_forwarding_one_shot(node_count, requests, dist, config, OnSerial{});
}

ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        const DistOracle& dist,
                                                        const PointerForwardingConfig& config) {
  return detail::run_forwarding_loop(node_count, requests_per_node, dist, config, OnSerial{});
}

}  // namespace arrowdq
