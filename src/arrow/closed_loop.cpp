#include "arrow/closed_loop.hpp"

#include <limits>
#include <utility>

#include "arrow/loop_driver.hpp"
#include "support/assert.hpp"

namespace arrowdq {

using detail::ImplicitLoopTopo;
using detail::MaterializedTopo;

ClosedLoopResult run_arrow_closed_loop(const Tree& tree, LatencyModel& latency,
                                       const ClosedLoopConfig& config) {
  return detail::run_arrow_loop(MaterializedTopo{&tree}, latency, config, OnSerial{});
}

ClosedLoopResult run_arrow_closed_loop_implicit(const ImplicitTopology& topo,
                                                LatencyModel& latency,
                                                const ClosedLoopConfig& config) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node <= std::numeric_limits<std::int32_t>::max(),
                     "implicit tier keeps 32-bit round counters");
  ARROWDQ_ASSERT_MSG(!config.fault.has_topology_faults(),
                     "topology-fault recovery requires a materialized tree");
  return detail::run_arrow_loop(ImplicitLoopTopo{topo}, latency, config, OnSerial{});
}

ClosedLoopResult run_arrow_closed_loop_dynamic(const Tree& tree, LatencyModel& latency,
                                               const ClosedLoopConfig& config) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node >= 0, "requests_per_node must be >= 0");
  return with_fault_filter(config.fault, tree.node_count(), [&](auto filt) {
    detail::ArrowLoopDriver<VirtualSampler, decltype(filt), MaterializedTopo, OnSerialDynamic>
        driver(MaterializedTopo{&tree}, VirtualSampler{latency}, std::move(filt), config);
    return driver.run();
  });
}

}  // namespace arrowdq
