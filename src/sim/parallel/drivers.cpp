// Sharded-engine entry points: the serial drivers themselves (arrow/
// loop_driver.hpp, arrow/one_shot_driver.hpp, baseline/centralized_driver.hpp,
// baseline/forwarding_driver.hpp) instantiated on OnShards. Each protocol is
// written once; sim/engine.hpp describes the two engines, and OnShards::make
// is the one place every sharded run starts (it refuses topology faults and
// derives the lookahead).
#include "sim/parallel/parallel.hpp"

#include <cstdint>
#include <limits>

#include "arrow/loop_driver.hpp"
#include "arrow/one_shot_driver.hpp"
#include "baseline/centralized_driver.hpp"
#include "baseline/forwarding_driver.hpp"
#include "sim/parallel/sharded_sim.hpp"
#include "support/assert.hpp"

namespace arrowdq {

ClosedLoopResult run_arrow_closed_loop_sharded(const Tree& tree, LatencyModel& latency,
                                               const ClosedLoopConfig& config,
                                               const ShardSpec& shard,
                                               ParallelStats* par_out) {
  return detail::run_arrow_loop(detail::MaterializedTopo{&tree}, latency, config,
                                OnShards{shard, par_out});
}

ClosedLoopResult run_arrow_closed_loop_implicit_sharded(const ImplicitTopology& topo,
                                                        LatencyModel& latency,
                                                        const ClosedLoopConfig& config,
                                                        const ShardSpec& shard,
                                                        ParallelStats* par_out) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node <= std::numeric_limits<std::int32_t>::max(),
                     "implicit tier keeps 32-bit round counters");
  return detail::run_arrow_loop(detail::ImplicitLoopTopo{topo}, latency, config,
                                OnShards{shard, par_out});
}

ShardedArrowRun run_arrow_one_shot_sharded(const Tree& tree, const RequestSet& requests,
                                           LatencyModel& latency, Time service_time,
                                           const FaultSpec& fault, const ShardSpec& shard) {
  const Graph graph = tree.as_graph();
  QueuingOutcome out(requests.size());
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(fault, tree.node_count(), [&](auto filt) {
      detail::ArrowOneShotDriver<decltype(lat), decltype(filt), OnShards> driver(
          tree, graph, std::move(lat), std::move(filt), service_time, requests, fault, out,
          OnShards{shard});
      driver.run(requests);
      const NodeId sink = detail::unique_sink(driver.links());
      return ShardedArrowRun{std::move(out), std::move(driver.links()), sink,
                             driver.engine().stats().edge_messages, driver.engine().makespan(),
                             driver.engine().fault_stats()};
    });
  });
}

QueuingOutcome run_centralized_sharded(NodeId node_count, const RequestSet& requests,
                                       const DistOracle& dist, const CentralizedConfig& config,
                                       const ShardSpec& shard) {
  return detail::run_centralized_one_shot(node_count, requests, dist, config, OnShards{shard});
}

QueuingOutcome run_pointer_forwarding_sharded(NodeId node_count, const RequestSet& requests,
                                              const DistOracle& dist,
                                              const PointerForwardingConfig& config,
                                              const ShardSpec& shard) {
  return detail::run_forwarding_one_shot(node_count, requests, dist, config, OnShards{shard});
}

ForwardingLoopResult run_pointer_forwarding_closed_loop_sharded(
    NodeId node_count, std::int64_t requests_per_node, const DistOracle& dist,
    const PointerForwardingConfig& config, const ShardSpec& shard) {
  return detail::run_forwarding_loop(node_count, requests_per_node, dist, config,
                                     OnShards{shard});
}

}  // namespace arrowdq
